"""Deterministic maximal matching (Theorem 5 iteration structure).

Theorem 5 computes, in every iteration, an integral matching whose weight
(under the edge weights ``w_e = d_u + d_v``) is a constant fraction of
``|E|`` — obtained in the paper by rounding the fractional matching
``f_e = 1/(d_u + d_v)`` with the deterministic algorithm of Ahmadi, Kuhn and
Oshman — and then removes the matched nodes, which kills at least a constant
fraction of the edges.  Repeating for ``Θ(log Δ)`` iterations also halves the
number of non-isolated nodes, giving edge-averaged complexity
``O(log² Δ + log* n)`` and node-averaged complexity ``O(log³ Δ + log* n)``.

Substitution: we keep the accounting — pick
heavy edges, add them, remove the incident edges — but compute the
per-iteration matching with a deterministic *local-maximum* rule instead of
the full AKO rounding: an undecided edge joins the matching when its key
``(d_u + d_v, ID-pair)`` is strictly larger than the key of every adjacent
undecided edge.  Local-maximum edges are heavy by construction (they beat all
their neighbours' weights) and at least one exists in every connected piece
of undecided edges, so the algorithm is correct and makes progress every
iteration; empirically it removes a constant fraction of the edges per
iteration on the benchmark workloads, reproducing the paper's
"edge-averaged ≪ node-averaged ≪ worst-case" separation.

Each iteration costs three communication rounds.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.local.coroutine import CoroutineAlgorithm
from repro.local.node import NodeRuntime

__all__ = ["DeterministicMaximalMatching"]

EdgeKey = Tuple[int, int, int]


class DeterministicMaximalMatching(CoroutineAlgorithm):
    """Theorem 5 (substituted rounding): deterministic weight-ranked matching."""

    name = "deterministic-maximal-matching"
    randomized = False
    uses_identifiers = True

    def run(self, node: NodeRuntime):
        undecided: Set[int] = set(node.neighbors)
        matched = False

        while undecided:
            # Round 1: exchange (current degree, identifier) with the
            # endpoints of the undecided incident edges.
            my_degree = len(undecided)
            inbox = yield {u: (my_degree, node.identifier) for u in undecided}
            info = {u: p for u, p in inbox.items() if u in undecided}

            # Both endpoints derive the same comparable key for each edge:
            # heavier edges (larger endpoint-degree sum) win, identifiers
            # break ties.
            keys: Dict[int, EdgeKey] = {}
            for u, (their_degree, their_id) in info.items():
                keys[u] = (
                    my_degree + their_degree,
                    max(node.identifier, their_id),
                    min(node.identifier, their_id),
                )

            # Round 2: report, per edge, the best key among my *other* edges.
            best_other: Dict[int, Optional[EdgeKey]] = {}
            for u in keys:
                others = [keys[w] for w in keys if w != u]
                best_other[u] = max(others) if others else None
            inbox = yield {u: ("other", best_other[u]) for u in keys}

            # Decide: an edge that beats both endpoints' other edges is a
            # local maximum and joins the matching.
            for u, (_, their_best_other) in inbox.items():
                if u not in keys or matched:
                    continue
                key = keys[u]
                beats_mine = best_other[u] is None or key > best_other[u]
                beats_theirs = their_best_other is None or key > tuple(their_best_other)
                if beats_mine and beats_theirs:
                    matched = True
                    node.commit_edge(u, True)
                    undecided.discard(u)
                    for w in list(undecided):
                        node.commit_edge(w, False)

            # Round 3: matched nodes announce themselves and retire.
            inbox = yield {u: ("matched", matched) for u in undecided}
            for u, (_, neighbor_matched) in inbox.items():
                if neighbor_matched and u in undecided:
                    node.commit_edge(u, False)
                    undecided.discard(u)
            if matched:
                return
