"""Shared helpers for the benchmark harness.

Every benchmark regenerates one experiment (one theorem, figure, or
construction of the paper; see ``PAPER.md`` and ``benchmarks/README.md``),
prints the measured rows as a table, and asserts the qualitative *shape* the
paper predicts (who wins, what stays flat, what grows).  The
pytest-benchmark fixture times a single run of each experiment
(``pedantic`` with one round) so ``--benchmark-only`` produces a timing
table without multiplying the workload.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def run_experiment(benchmark):
    """Run an experiment callable exactly once under pytest-benchmark timing."""

    def _run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run


def emit(text: str) -> None:
    """Print a benchmark table (shown with pytest -s; always kept in captured output)."""
    print()
    print(text)
