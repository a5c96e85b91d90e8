"""Shared fixtures for the benchmark harness.

Every benchmark regenerates a table/figure/claim from the paper's
evaluation (see DESIGN.md §4 for the experiment index) and prints the
regenerated rows; run with ``-s`` to see them. Shape assertions guard the
qualitative conclusions; absolute cycle counts are reported, not asserted.
"""

from __future__ import annotations

import pytest

from repro.dse import ArchitectureEvaluator
from repro.workload import generate_routes, worst_case_workload


@pytest.fixture(scope="session")
def routes100():
    return generate_routes(100)


@pytest.fixture(scope="session")
def worst_packets(routes100):
    return worst_case_workload(routes100, 10)


@pytest.fixture(scope="session")
def evaluator(routes100, worst_packets):
    return ArchitectureEvaluator(routes=routes100, packets=worst_packets)
