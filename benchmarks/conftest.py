"""Shared fixtures and the report writer of the benchmark modules.

The simulations are memoized in a session-scoped Sweeper so the
evaluations (which share most configurations) each pay only for points
no earlier module has simulated.  Set ``PODS_BENCH_FULL=1`` for the
paper's full PE grid at 64x64.
"""

from __future__ import annotations

import os

import pytest

from repro.apps.simple_app import compile_simple
from repro.bench.figures import FULL
from repro.bench.harness import Sweeper


@pytest.fixture(scope="session")
def sweeper() -> Sweeper:
    return Sweeper()


@pytest.fixture(scope="session")
def simple_program():
    return compile_simple()


def simple_args(n: int) -> tuple:
    return (n, FULL.steps)


def save_report(name: str, text: str) -> str:
    """Write a figure/table report into ``benchmarks/results/``; returns
    the path."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "results", name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path
