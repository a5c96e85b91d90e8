"""Shared fixtures: routing workloads and small packet batches."""

from __future__ import annotations

import importlib.util
import os

import pytest

from repro.workload import forwarding_workload, generate_routes, worst_case_workload


@pytest.fixture(scope="session")
def routes100():
    return generate_routes(100)


@pytest.fixture(scope="session")
def routes20():
    return generate_routes(20, seed=11)


@pytest.fixture(scope="session")
def worst_packets(routes100):
    return worst_case_workload(routes100, 6)


@pytest.fixture(scope="session")
def mixed_packets(routes100):
    return forwarding_workload(routes100, 6, default_route_fraction=0.3)


@pytest.fixture(scope="session")
def metrics_checker():
    """``scripts/check_metrics_schema.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "check_metrics_schema",
        os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                     "check_metrics_schema.py"))
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    return checker
