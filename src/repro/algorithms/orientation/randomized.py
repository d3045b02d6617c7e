"""Randomized sinkless orientation with node-averaged complexity O(1).

The paper observes (Section 3.3) that the randomized sinkless-orientation
algorithm of Ghaffari and Su already has node-averaged complexity O(1): each
node secures an out-edge with constant probability per attempt.  We substitute
the request/grant consent protocol of
:mod:`repro.algorithms.orientation.protocol` for Ghaffari and Su's algorithm
and keep exactly that property: an unsatisfied node requests a uniformly random unoriented incident edge each
phase, and requests are granted whenever the granting endpoint can afford to
lose the edge.  On minimum-degree-3 graphs a request is granted with constant
probability, so the expected number of two-round phases until a node is
satisfied is O(1) — the node-averaged complexity of the algorithm is O(1)
while its worst case is O(log n)-flavoured.

Nodes of degree below the minimum degree never need an outgoing edge (the
problem is posed for minimum degree ≥ 3) and behave as already satisfied.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.algorithms.orientation.protocol import orientation_phases
from repro.local.coroutine import CoroutineAlgorithm
from repro.local.node import NodeRuntime

__all__ = ["RandomizedSinklessOrientation"]


class RandomizedSinklessOrientation(CoroutineAlgorithm):
    """Randomized sinkless orientation; edge outputs are the head vertices."""

    name = "randomized-sinkless-orientation"
    randomized = True
    uses_identifiers = True  # tie breaking and leftover-edge orientation

    def __init__(self, min_degree: int = 3) -> None:
        """Nodes of degree below ``min_degree`` are exempt from needing an out-edge."""
        if min_degree < 1:
            raise ValueError("min_degree must be positive")
        self.min_degree = min_degree

    def run(self, node: NodeRuntime):
        unoriented: Set[int] = set(node.neighbors)
        if not unoriented:
            return
        secured = node.degree < self.min_degree
        yield from orientation_phases(node, unoriented, secured, self._choose_request)

    @staticmethod
    def _choose_request(
        node: NodeRuntime, unoriented: Set[int], neighbor_secured: Dict[int, bool]
    ) -> int:
        """Request a uniformly random unoriented incident edge."""
        choices = sorted(unoriented)
        return choices[node.rng.randrange(len(choices))]
