"""Deterministic ruling sets with node-averaged complexity O(log* n) (Theorem 3).

The algorithm follows the structure of Theorem 3 / its proof in Appendix B:

* It runs a fixed number of **halving iterations**.  Each iteration computes a
  dominating set ``D_total`` of the graph induced by the still-active nodes
  that (in practice) contains at most about half of them, lets every other
  active node commit "not in the ruling set", and continues with ``D_total``
  only.  The dominating set is the footnote-7 construction of the paper:

  1. every active node points to its highest-identifier active neighbour,
     which yields an oriented pseudo-forest;
  2. parents of leaves of that pseudo-forest join ``D``;
  3. nodes of ``N[D]`` are set aside, and the pseudo-forest induced by the
     remaining nodes is 8-coloured with Cole–Vishkin colour reduction
     (O(log* n) rounds) and turned into an independent dominating set of the
     remaining pseudo-forest colour class by colour class;
  4. ``D_total`` is the union of ``D`` and that independent set.

* After ``max_iterations`` iterations (``⌈log₂ Δ⌉`` for the
  ``(2, O(log Δ))``-ruling set, ``⌈log₂ log₂ n⌉`` for the
  ``(2, O(log log n))`` variant) the few remaining active nodes compute a
  maximal independent set among themselves; this MIS is the ruling set.
  The paper finishes with the ``O(Δ + log* n)`` MIS of [BEK15] (respectively
  the poly-log MIS of [RG20]); we substitute the simpler iterated
  local-minimum MIS, which is correct and only runs on the small residual
  instance, so the node-averaged accounting of the theorem is unaffected.

Every node that retires in iteration ``i`` is adjacent to a node that stays
active in iteration ``i + 1``, so the produced independent set is a
``(2, max_iterations + 1)``-ruling set; :attr:`DeterministicRulingSet.coverage_radius`
exposes that bound so callers can validate against the right problem spec.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set

from repro.algorithms.coloring.cole_vishkin import FINAL_COLOR_BOUND, cv_rounds_needed, cv_step
from repro.local.coroutine import CoroutineAlgorithm
from repro.local.network import Network
from repro.local.node import NodeRuntime

__all__ = ["DeterministicRulingSet"]


class DeterministicRulingSet(CoroutineAlgorithm):
    """Theorem 3: deterministic ruling set via dominating-set halving iterations."""

    name = "deterministic-ruling-set"
    randomized = False
    uses_identifiers = True

    def __init__(self, max_iterations: int, id_bits: int) -> None:
        """Configure the algorithm.

        Args:
            max_iterations: number of dominating-set halving iterations; the
                produced set is a ``(2, max_iterations + 1)``-ruling set.
            id_bits: bit length of the identifier space (global knowledge);
                fixes the deterministic Cole–Vishkin schedule length.
        """
        if max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if id_bits < 1:
            raise ValueError("id_bits must be positive")
        self.max_iterations = max_iterations
        self.id_bits = id_bits
        self.cv_rounds = cv_rounds_needed(id_bits)

    # ------------------------------------------------------------------ #
    # Convenience constructors matching the two variants of Theorem 3
    # ------------------------------------------------------------------ #

    @classmethod
    def for_network(cls, network: Network, variant: str = "log-delta") -> "DeterministicRulingSet":
        """Instantiate with the iteration budget of Theorem 3.

        ``variant="log-delta"`` gives the ``(2, O(log Δ))``-ruling set,
        ``variant="log-log-n"`` the ``(2, O(log log n))`` one.
        """
        id_bits = max(1, network.id_bit_length())
        delta = max(1, network.max_degree())
        if variant == "log-delta":
            iterations = max(1, math.ceil(math.log2(delta + 1)))
        elif variant == "log-log-n":
            iterations = max(1, math.ceil(math.log2(max(2.0, math.log2(max(2, network.n))))))
        else:
            raise ValueError(f"unknown variant {variant!r}")
        return cls(max_iterations=iterations, id_bits=id_bits)

    @property
    def coverage_radius(self) -> int:
        """β such that the output is guaranteed to be a (2, β)-ruling set."""
        return self.max_iterations + 1

    # ------------------------------------------------------------------ #

    def run(self, node: NodeRuntime):
        if node.degree == 0:
            node.commit(True)
            return

        for _ in range(self.max_iterations):
            survived = yield from self._halving_iteration(node)
            if node.has_committed:
                return
            if not survived:
                # Defensive: _halving_iteration always either commits or
                # reports survival, so this branch is unreachable.
                return

        yield from self._final_mis(node)

    # ------------------------------------------------------------------ #
    # One dominating-set halving iteration (fixed number of yields for every
    # active node, so that all survivors stay phase-aligned).
    # ------------------------------------------------------------------ #

    def _halving_iteration(self, node: NodeRuntime):
        my_id = node.identifier

        # Round 1: discover active neighbours and their identifiers.
        inbox = yield {u: ("active", my_id) for u in node.neighbors}
        active_ids: Dict[int, int] = {u: payload[1] for u, payload in inbox.items()}
        if not active_ids:
            # Isolated in the residual graph: nobody can dominate this node,
            # so it joins the ruling set and leaves the computation.
            node.commit(True)
            return False
        parent = max(active_ids, key=lambda u: active_ids[u])

        # Round 2: pseudo-forest pointers; learn which neighbours point here.
        inbox = yield {parent: "child"}
        children: Set[int] = {u for u, payload in inbox.items() if payload == "child"}
        is_leaf = len(children) == 0

        # Round 3: leaves report to their parent; parents of leaves join D.
        inbox = yield ({parent: "leaf"} if is_leaf else {})
        in_dominating = any(payload == "leaf" for payload in inbox.values())

        # Round 4: D announces itself; N[D] is set aside.
        inbox = yield {u: ("D", in_dominating) for u in active_ids}
        near_dominating = in_dominating or any(payload[1] for payload in inbox.values())

        # Round 5: exchange N[D] status so the remaining pseudo-forest is known.
        inbox = yield {u: ("ND", near_dominating) for u in active_ids}
        neighbor_near: Dict[int, bool] = {u: payload[1] for u, payload in inbox.items()}
        remaining = not near_dominating
        pf_parent: Optional[int] = None
        pf_children: Set[int] = set()
        if remaining:
            if not neighbor_near.get(parent, True):
                pf_parent = parent
            pf_children = {c for c in children if not neighbor_near.get(c, True)}
        pf_neighbors = set(pf_children)
        if pf_parent is not None:
            pf_neighbors.add(pf_parent)

        # Cole–Vishkin colour reduction on the remaining pseudo-forest.
        color = my_id
        for _ in range(self.cv_rounds):
            if remaining:
                inbox = yield {c: ("color", color) for c in pf_children}
                if pf_parent is not None and pf_parent in inbox:
                    parent_color = inbox[pf_parent][1]
                else:
                    # Roots use a virtual parent whose colour differs in bit 0.
                    parent_color = color ^ 1
                color = cv_step(color, parent_color)
            else:
                yield {}

        # Colour-by-colour independent dominating set of the remaining
        # pseudo-forest (colours are < FINAL_COLOR_BOUND after the reduction).
        in_submis = False
        blocked = False
        for colour_class in range(FINAL_COLOR_BOUND):
            joining = remaining and not in_submis and not blocked and color == colour_class
            if joining:
                in_submis = True
                inbox = yield {u: "submis" for u in pf_neighbors}
            else:
                inbox = yield {}
            if any(payload == "submis" for payload in inbox.values()):
                blocked = True

        # Final round of the iteration: D_total = D ∪ subMIS announces itself;
        # everyone else is dominated and retires.
        in_d_total = in_dominating or in_submis
        inbox = yield {u: ("Dtotal", in_d_total) for u in active_ids}
        if not in_d_total:
            node.commit(False)
            return False
        return True

    # ------------------------------------------------------------------ #
    # Final maximal independent set among the surviving active nodes.
    # ------------------------------------------------------------------ #

    def _final_mis(self, node: NodeRuntime):
        my_id = node.identifier
        while not node.has_committed:
            inbox = yield {u: ("final-id", my_id) for u in node.neighbors}
            competitor_ids = [
                payload[1] for payload in inbox.values() if payload[0] == "final-id"
            ]
            if all(my_id < other for other in competitor_ids):
                node.commit(True)

            joined = node.has_committed
            inbox = yield {u: ("final-join", joined) for u in node.neighbors}
            if not node.has_committed and any(
                payload[1] for payload in inbox.values() if payload[0] == "final-join"
            ):
                node.commit(False)
