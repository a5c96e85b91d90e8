"""End-to-end and per-layer benchmark of the ``taco-explore`` CLI.

``python3 bench/run.py`` runs it; README.md in this directory explains
the workloads, the metrics and how to compare two result sets.
"""
