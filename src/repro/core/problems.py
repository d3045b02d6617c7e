"""Graph problem specifications and validity checkers.

A :class:`ProblemSpec` declares which entities of the graph carry outputs
(nodes, edges, or both) and how to check a complete output assignment for
validity.  The declaration of *which* entities carry outputs matters beyond
validation: the paper's Definition 1 ties the completion time of a node to
the commitment of its own output **and** of the outputs of its incident
edges (and symmetrically for edges), so the averaged-complexity computation
in :mod:`repro.core.trace` consults the problem spec.

The concrete problems of the paper are provided as module-level constants /
factories:

* :data:`MIS` — maximal independent set (node outputs ``True``/``False``).
* :func:`ruling_set` — ``(α, β)``-ruling sets (node outputs).
* :data:`MAXIMAL_MATCHING` — maximal matching (edge outputs ``True``/``False``).
* :func:`coloring` — proper vertex colouring with a bound on the palette.
* :data:`SINKLESS_ORIENTATION` — sinkless orientation (edge outputs give the
  head of the edge; no node may have out-degree 0), for graphs of minimum
  degree ≥ 3 as in Theorem 6.

Every problem is checked in exactly two ways:

* a networkx **reference** validator (``is_maximal_independent_set`` and
  friends) — the executable specification, run by :meth:`ProblemSpec.validate`
  on a networkx graph and used by the tests as the oracle;
* one array **kernel** ``(network, values, committed, alive, strict) ->
  ValidationResult`` vectorised over the network's ``edge_endpoints()`` /
  ``indptr`` arrays.  ``values`` and ``committed`` are per-slot arrays of the
  labelled entity (vertex-indexed for node problems, in ``edge_endpoints()``
  order for edge problems; values of uncommitted slots are ignored) and
  ``alive`` is the vertex survival mask.

:meth:`ProblemSpec.validate_network`, :meth:`~ProblemSpec.validate_surviving`
and :meth:`~ProblemSpec.validate_induced` all run the kernel; they differ
only in the crash set and in ``strict``:

* ``validate_network`` — nothing crashed; both modes coincide.
* ``validate_surviving`` (``strict=False``) — scores executions under
  crash-stop faults with the documented concessions: crashed nodes and
  crash-adjacent edges are excused from committing, constraints bind the
  surviving subgraph, and what a node committed before dying still counts
  where crash-stop semantics say it must (coverage, matchedness,
  domination, orientation heads).
* ``validate_induced`` (``strict=True``) — validity on the survivor-induced
  subgraph alone: crashed commitments are discarded.  It backs the
  self-stabilisation recovery metrics.

Outputs arrive as mappings (vertex / canonical edge → value), as per-slot
sequences with :data:`MISSING` marking absent outputs, or as a value array
plus a ``committed`` mask; they are normalised once, at that boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import networkx as nx
import numpy as np

__all__ = [
    "MISSING",
    "ValidationResult",
    "ProblemSpec",
    "MIS",
    "MAXIMAL_MATCHING",
    "SINKLESS_ORIENTATION",
    "ruling_set",
    "coloring",
    "is_independent_set",
    "is_maximal_independent_set",
    "is_ruling_set",
    "is_matching",
    "is_maximal_matching",
    "is_proper_coloring",
    "is_sinkless_orientation",
]

Edge = Tuple[int, int]


class _Missing:
    """Sentinel type for absent per-slot outputs (single instance, falsy repr)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "<MISSING>"


#: Sentinel marking an absent output in a per-slot value sequence.  Distinct
#: from ``None`` so that an algorithm legitimately committing ``None`` is not
#: mistaken for "never committed".
MISSING = _Missing()


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validating an output assignment."""

    valid: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.valid


#: ``(network, values, committed, alive, strict) -> ValidationResult``.
Kernel = Callable[[Any, Any, np.ndarray, np.ndarray, bool], ValidationResult]

#: Outputs of one entity kind in any accepted input form.
Outputs = Optional[Union[Mapping[Any, Any], Sequence[Any], np.ndarray]]


@dataclass(frozen=True)
class ProblemSpec:
    """Specification of a distributed graph problem.

    Attributes:
        name: human-readable problem name.
        labels_nodes: whether the problem assigns an output to every node.
        labels_edges: whether the problem assigns an output to every edge.
        validator: the networkx reference, a callable
            ``(graph, node_outputs, edge_outputs) -> ValidationResult``
            checking a complete assignment.  ``graph`` is a networkx graph;
            ``node_outputs`` maps vertex → output; ``edge_outputs`` maps
            canonical edge ``(u, v), u < v`` → output.
        params: free-form parameters of the problem instance (e.g. α, β for
            ruling sets, the palette size for colouring).
        kernel: the array kernel ``(network, values, committed, alive,
            strict) -> ValidationResult`` behind :meth:`validate_network`,
            :meth:`validate_surviving` and :meth:`validate_induced`.  It
            receives the labelled entity's slots (a kernel-backed problem
            labels exactly one of nodes and edges), called only once every
            required output is present; under ``strict`` the slots of
            crashed nodes and crash-adjacent edges arrive uncommitted.  When
            ``None`` (custom problems), those methods run :attr:`validator`
            on the survivor-induced networkx graph instead.
    """

    name: str
    labels_nodes: bool
    labels_edges: bool
    validator: Callable[[nx.Graph, Mapping[int, Any], Mapping[Edge, Any]], ValidationResult]
    params: Mapping[str, Any] = field(default_factory=dict)
    kernel: Optional[Kernel] = None

    def validate(
        self,
        graph: "Union[nx.Graph, Any]",
        node_outputs: Optional[Mapping[int, Any]] = None,
        edge_outputs: Optional[Mapping[Edge, Any]] = None,
    ) -> ValidationResult:
        """Check a complete output assignment against this problem.

        ``graph`` may be a :class:`networkx.Graph`, which runs the reference
        validator, or a :class:`repro.local.network.Network`, which
        dispatches to :meth:`validate_network`.
        """
        if not isinstance(graph, nx.Graph):
            return self.validate_network(graph, node_outputs, edge_outputs)
        # An explicit MISSING value in a mapping is equivalent to the key
        # being absent (the sentinel means "never committed"); stripping the
        # entries here keeps this reference path in verdict agreement with
        # the kernel path, whose slot arrays cannot tell the two apart.
        node_outputs = {
            v: value for v, value in (node_outputs or {}).items() if value is not MISSING
        }
        edge_outputs = {
            e: value for e, value in (edge_outputs or {}).items() if value is not MISSING
        }
        if self.labels_nodes:
            missing = [v for v in graph.nodes() if v not in node_outputs]
            if missing:
                return ValidationResult(False, f"missing node outputs for {missing[:5]}")
        if self.labels_edges:
            missing_edges = [
                # repro-lint: allow[REP002] reference path, runs on an nx graph
                e for e in (_canon(u, v) for u, v in graph.edges()) if e not in edge_outputs
            ]
            if missing_edges:
                return ValidationResult(False, f"missing edge outputs for {missing_edges[:5]}")
        return self.validator(graph, node_outputs, edge_outputs)

    def validate_network(
        self,
        network: Any,
        node_outputs: Outputs = None,
        edge_outputs: Outputs = None,
        *,
        node_committed: Optional[Any] = None,
        edge_committed: Optional[Any] = None,
    ) -> ValidationResult:
        """Validate outputs on a :class:`Network` (nothing crashed).

        ``node_outputs`` is a vertex → value mapping or a length-``n``
        sequence (slot ``v`` = output of vertex ``v``); ``edge_outputs`` is
        a canonical-edge → value mapping or a length-``m`` sequence in
        ``edge_endpoints()`` order.  :data:`MISSING` marks absent outputs
        in sequence form; alternatively ``node_committed`` /
        ``edge_committed`` give a bool mask of committed slots (values of
        uncommitted slots are ignored), which is how traces and engines
        pass their state arrays.
        """
        return self._check(
            network, node_outputs, edge_outputs, (), False, node_committed, edge_committed
        )

    def validate_surviving(
        self,
        network: Any,
        node_outputs: Outputs = None,
        edge_outputs: Outputs = None,
        crashed: Sequence[int] = (),
        *,
        node_committed: Optional[Any] = None,
        edge_committed: Optional[Any] = None,
    ) -> ValidationResult:
        """Score outputs on the surviving subgraph after crash-stop faults.

        ``crashed`` lists the dead vertices.  Missing outputs are only
        required of survivors (node problems) and survivor–survivor edges
        (edge problems): a crashed node that never committed — or an edge
        whose endpoint died before the edge was decided — is excused, not a
        failure.  Whatever a crashed node *did* commit before dying stands
        and is visible to the kernel (it can, e.g., cover a surviving MIS
        non-member).  Input forms as in :meth:`validate_network`.
        """
        return self._check(
            network, node_outputs, edge_outputs, crashed, False, node_committed, edge_committed
        )

    def validate_induced(
        self,
        network: Any,
        node_outputs: Outputs = None,
        edge_outputs: Outputs = None,
        crashed: Sequence[int] = (),
        *,
        node_committed: Optional[Any] = None,
        edge_committed: Optional[Any] = None,
    ) -> ValidationResult:
        """Strictly validate outputs on the induced survivor subgraph.

        Unlike :meth:`validate_surviving`, commitments of crashed nodes and
        crash-adjacent edges are discarded and the survivors' outputs must
        stand on their own, exactly as the reference validator judges them
        on ``graph.subgraph(survivors)``.  Self-stabilisation metrics use
        this form — a recovered configuration must be valid *for the
        survivors alone*, or "recovery" would be vacuously credited to
        pre-crash commitments.  Input forms as in :meth:`validate_network`.
        """
        return self._check(
            network, node_outputs, edge_outputs, crashed, True, node_committed, edge_committed
        )

    def _check(
        self,
        network: Any,
        node_outputs: Outputs,
        edge_outputs: Outputs,
        crashed: Sequence[int],
        strict: bool,
        node_committed: Optional[Any],
        edge_committed: Optional[Any],
    ) -> ValidationResult:
        """Normalise the inputs, require the survivors' outputs, run the kernel."""
        alive = _alive_mask(network.n, crashed)
        everyone = bool(alive.all())
        node_values, node_mask, _ = _slot_arrays(network, node_outputs, node_committed, True)
        edge_values, edge_mask, strays = _slot_arrays(
            network, edge_outputs, edge_committed, False
        )
        if self.labels_nodes:
            missing = np.flatnonzero(alive & ~node_mask)
            if missing.size:
                who = "" if everyone else "survivors "
                return ValidationResult(
                    False, f"missing node outputs for {who}{missing[:5].tolist()}"
                )
            if strict:
                node_mask = node_mask & alive
        if self.labels_edges:
            us, vs = network.edge_endpoints()
            live = alive[us] & alive[vs]
            missing = np.flatnonzero(live & ~edge_mask)[:5]
            if missing.size:
                who = "" if everyone else "surviving edges "
                pairs = list(zip(us[missing].tolist(), vs[missing].tolist()))
                return ValidationResult(False, f"missing edge outputs for {who}{pairs}")
            if strict:
                edge_mask = edge_mask & live
        # Stray mapping entries fit no slot; only a fault-free check consults
        # them (crash-mode checks ignore them), and the reference judges them.
        if not everyone:
            strays = []
        if self.kernel is None or strays:
            return self._validate_on_survivor_subnetwork(
                network, (node_values, node_mask), (edge_values, edge_mask), alive, strays
            )
        if self.labels_nodes:
            return self.kernel(network, node_values, node_mask, alive, strict)
        return self.kernel(network, edge_values, edge_mask, alive, strict)

    def _validate_on_survivor_subnetwork(
        self,
        network: Any,
        nodes: Tuple[Any, np.ndarray],
        edges: Tuple[Any, np.ndarray],
        alive: np.ndarray,
        strays: Sequence[Tuple[Any, Any]],
    ) -> ValidationResult:
        """Reference fallback: :attr:`validator` on the survivor-induced graph.

        Backs kernel-less custom problems, and fault-free mapping inputs
        whose stray entries (keys that are not edges) fit no slot.  Commitments
        of crashed nodes and on crash-adjacent edges are discarded.
        ``graph.subgraph`` keeps vertex labels, so output values that name
        vertices (orientation heads) need no relabelling.
        """
        # repro-lint: allow[REP002] the reference validators consume an nx graph
        graph = network.to_networkx()
        if not alive.all():
            graph = graph.subgraph(np.flatnonzero(alive).tolist())
        node_values, node_mask = nodes
        node_map = {v: node_values[v] for v in np.flatnonzero(node_mask & alive).tolist()}
        edge_values, edge_mask = edges
        us, vs = network.edge_endpoints()
        slots = np.flatnonzero(edge_mask & alive[us] & alive[vs])
        edge_map: Dict[Any, Any] = dict(
            zip(
                zip(us[slots].tolist(), vs[slots].tolist()),
                [edge_values[i] for i in slots.tolist()],
            )
        )
        edge_map.update(strays)
        return self.validate(graph, node_map, edge_map)


def _canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------- #
# The input boundary and kernel helpers
# ---------------------------------------------------------------------- #


def _alive_mask(n: int, crashed: Sequence[int]) -> np.ndarray:
    """Vertex survival mask; crashed ids outside ``0..n-1`` are ignored."""
    alive = np.ones(n, dtype=bool)
    dead = np.fromiter(crashed, dtype=np.int64)
    alive[dead[(dead >= 0) & (dead < n)]] = False
    return alive


def _slot_arrays(
    network: Any, outputs: Outputs, committed: Optional[Any], nodes: bool
) -> Tuple[Any, np.ndarray, List[Tuple[Any, Any]]]:
    """The one boundary normaliser: ``(values, committed, strays)`` per side.

    Mappings and :data:`MISSING`-marked sequences become a slot sequence plus
    a committed mask; a value array with a ``committed`` mask passes through.
    Node mapping keys outside ``0..n-1`` are ignored, as the reference path
    ignores them.  Edge mapping keys that are not canonical edges of the
    network come back as ``strays`` (``MISSING`` values are never strays:
    the reference path strips them before it consults the graph).
    """
    count = network.n if nodes else network.m
    strays: List[Tuple[Any, Any]] = []
    if isinstance(outputs, Mapping):
        committed = None
        if nodes:
            get = outputs.get
            outputs = [get(v, MISSING) for v in range(count)]
        else:
            outputs, strays = _edge_mapping_slots(network, outputs)
    if outputs is None:
        values: Any = np.zeros(count, dtype=bool)
        mask = np.zeros(count, dtype=bool)
    else:
        values = outputs
        if len(values) != count:
            kind = "node" if nodes else "edge"
            raise ValueError(f"expected {count} {kind} output slots, got {len(values)}")
        if committed is None:
            mask = np.fromiter(
                (value is not MISSING for value in values), dtype=bool, count=count
            )
    if committed is not None:
        mask = np.asarray(committed, dtype=bool)
    return values, mask, strays


def _edge_mapping_slots(
    network: Any, outputs: Mapping[Any, Any]
) -> Tuple[List[Any], List[Tuple[Any, Any]]]:
    """Edge-slot sequence of a canonical-edge mapping, plus its stray entries.

    Slots resolve through the packed-key edge index, so the tuple edge view
    is never built.
    """
    slots: List[Any] = [MISSING] * network.m
    strays: List[Tuple[Any, Any]] = []
    if outputs:
        n = network.n
        index = network._packed_edge_index()
        for key, value in outputs.items():
            if value is MISSING:
                continue
            u, v = key
            slot = index.get(u * n + v) if 0 <= u < v < n else None
            if slot is None:
                strays.append((key, value))
            else:
                slots[slot] = value
    return slots, strays


def _truthy(values: Any) -> np.ndarray:
    """Per-slot truthiness as a bool array (Python ``bool`` of each value)."""
    if isinstance(values, np.ndarray):
        return values.astype(bool, copy=False)
    return np.fromiter(map(bool, values), dtype=bool, count=len(values))


def _objects(values: Any) -> np.ndarray:
    """Per-slot Python values as an object array; arrays are read via ``tolist``."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return np.fromiter(values, dtype=object, count=len(values))


def _first(mask: np.ndarray) -> int:
    return int(np.argmax(mask))


def _fail(alive: np.ndarray, message: str) -> ValidationResult:
    """A failed verdict whose witness is called *surviving* once anything crashed."""
    return ValidationResult(False, message if alive.all() else f"surviving {message}")


# ---------------------------------------------------------------------- #
# Independent sets, MIS and ruling sets
# ---------------------------------------------------------------------- #


def is_independent_set(graph: nx.Graph, selected: Mapping[int, Any]) -> bool:
    """Whether the nodes with truthy output form an independent set."""
    # repro-lint: allow[REP002] reference validator, runs on an nx graph
    return all(not (selected.get(u) and selected.get(v)) for u, v in graph.edges())


def is_maximal_independent_set(graph: nx.Graph, selected: Mapping[int, Any]) -> ValidationResult:
    """Check that the truthy nodes form a *maximal* independent set."""
    if not is_independent_set(graph, selected):
        return ValidationResult(False, "selected set is not independent")
    for v in graph.nodes():
        if selected.get(v):
            continue
        if not any(selected.get(u) for u in graph.neighbors(v)):
            return ValidationResult(False, f"node {v} is uncovered (not maximal)")
    return ValidationResult(True)


def is_ruling_set(
    graph: nx.Graph, selected: Mapping[int, Any], alpha: int, beta: int
) -> ValidationResult:
    """Check an ``(α, β)``-ruling set.

    Any two selected nodes must be at distance ≥ α and every unselected node
    must have a selected node within distance ≤ β.
    """
    members = [v for v in graph.nodes() if selected.get(v)]
    member_set = set(members)
    if not members and graph.number_of_nodes() > 0:
        return ValidationResult(False, "ruling set is empty")
    # Domination: BFS from all members simultaneously up to depth beta.
    dist: Dict[int, int] = {v: 0 for v in members}
    frontier = list(members)
    depth = 0
    while frontier and depth < beta:
        depth += 1
        new_frontier = []
        for v in frontier:
            for u in graph.neighbors(v):
                if u not in dist:
                    dist[u] = depth
                    new_frontier.append(u)
        frontier = new_frontier
    uncovered = [v for v in graph.nodes() if v not in dist]
    if uncovered:
        return ValidationResult(
            False, f"{len(uncovered)} nodes (e.g. {uncovered[:5]}) have no ruler within distance {beta}"
        )
    # Independence at distance alpha: BFS from each member up to depth alpha-1.
    for s in members:
        seen = {s: 0}
        frontier = [s]
        for d in range(1, alpha):
            nxt = []
            for v in frontier:
                for u in graph.neighbors(v):
                    if u not in seen:
                        seen[u] = d
                        nxt.append(u)
                        if u in member_set and u != s:
                            return ValidationResult(
                                False,
                                f"rulers {s} and {u} are at distance {d} < {alpha}",
                            )
            frontier = nxt
    return ValidationResult(True)


def _mis_kernel(
    network: Any, values: Any, committed: np.ndarray, alive: np.ndarray, strict: bool
) -> ValidationResult:
    """Maximal independent set.

    Independence binds survivor–survivor edges (a survivor may sit next to
    a crashed member it never heard retire).  An unselected survivor is
    covered by *any* selected neighbour: under ``strict=False`` a crashed
    one counts, which is exact for crash-stop faults — a neighbour that
    caused a ``False`` commit had itself committed ``True`` before
    announcing.  Under ``strict`` crashed slots arrive uncommitted and cover
    nobody.
    """
    us, vs = network.edge_endpoints()
    selected = committed & _truthy(values)
    clash = alive[us] & alive[vs] & selected[us] & selected[vs]
    if clash.any():
        i = _first(clash)
        return _fail(
            alive, f"edge ({us[i]}, {vs[i]}) has both endpoints selected (not independent)"
        )
    covered = selected.copy()
    covered[us[selected[vs]]] = True
    covered[vs[selected[us]]] = True
    uncovered = alive & ~covered
    if uncovered.any():
        return _fail(alive, f"node {_first(uncovered)} is uncovered (not maximal)")
    return ValidationResult(True)


def _ruling_set_kernel(
    network: Any,
    values: Any,
    committed: np.ndarray,
    alive: np.ndarray,
    strict: bool,
    *,
    alpha: int,
    beta: int,
) -> ValidationResult:
    """``(α, β)``-ruling set, as breadth-first sweeps over the endpoint arrays.

    * **domination**: every survivor needs a committed ruler within
      distance ≤ β.  Under ``strict=False`` the ruler may have crashed (its
      commitment stands — the survivor retired because of it, the
      concession the MIS kernel makes for coverage), but every *relay* on
      the path must be alive: coverage is a property of the surviving
      configuration, not of paths that died with their relays;
    * **independence**: surviving rulers must be at distance ≥ α measured
      through survivors — paths through a corpse no longer exist.  Each
      ruler grows a territory up to α − 2 hops; territories of two rulers
      meeting across an edge within α − 1 hops in all witness a pair closer
      than α, and every such pair is witnessed along its shortest path.
    """
    n = network.n
    rulers = committed & _truthy(values)
    if not alive.any():
        return ValidationResult(True)
    if not rulers.any():
        return ValidationResult(False, "ruling set is empty")
    us, vs = network.edge_endpoints()
    covered = rulers.copy()
    frontier = rulers
    for _ in range(beta):
        reached = np.zeros(n, dtype=bool)
        reached[vs[frontier[us]]] = True
        reached[us[frontier[vs]]] = True
        frontier = reached & ~covered
        covered |= frontier
        frontier &= alive
        if not frontier.any():
            break
    uncovered = np.flatnonzero(alive & ~covered)
    if uncovered.size:
        return _fail(
            alive,
            f"nodes {uncovered[:5].tolist()} ({uncovered.size} in all) have no "
            f"ruler within distance {beta}",
        )
    live = alive[us] & alive[vs]
    owner = np.where(rulers & alive, np.arange(n), -1)
    hops = np.where(owner >= 0, 0, -1)
    frontier = owner >= 0
    for depth in range(1, alpha - 1):
        grow = live & frontier[us] & (owner[vs] < 0)
        owner[vs[grow]] = owner[us[grow]]
        grow = live & frontier[vs] & (owner[us] < 0)
        owner[us[grow]] = owner[vs[grow]]
        frontier = (owner >= 0) & (hops < 0)
        hops[frontier] = depth
        if not frontier.any():
            break
    span = hops[us] + hops[vs] + 1
    close = live & (owner[us] >= 0) & (owner[vs] >= 0) & (owner[us] != owner[vs])
    close &= span < alpha
    if close.any():
        i = _first(close)
        return _fail(
            alive,
            f"rulers {owner[us[i]]} and {owner[vs[i]]} are within distance "
            f"{span[i]} < {alpha}",
        )
    return ValidationResult(True)


def _mis_validator(
    graph: nx.Graph, node_outputs: Mapping[int, Any], _: Mapping[Edge, Any]
) -> ValidationResult:
    return is_maximal_independent_set(graph, node_outputs)


MIS = ProblemSpec(
    name="maximal-independent-set",
    labels_nodes=True,
    labels_edges=False,
    validator=_mis_validator,
    kernel=_mis_kernel,
)


def ruling_set(alpha: int, beta: int) -> ProblemSpec:
    """Problem spec for ``(α, β)``-ruling sets (node outputs are membership flags)."""
    if alpha < 1 or beta < 1:
        raise ValueError("ruling set parameters must be positive")

    def _validator(
        graph: nx.Graph, node_outputs: Mapping[int, Any], _: Mapping[Edge, Any]
    ) -> ValidationResult:
        return is_ruling_set(graph, node_outputs, alpha, beta)

    return ProblemSpec(
        name=f"({alpha},{beta})-ruling-set",
        labels_nodes=True,
        labels_edges=False,
        validator=_validator,
        params={"alpha": alpha, "beta": beta},
        kernel=partial(_ruling_set_kernel, alpha=alpha, beta=beta),
    )


# ---------------------------------------------------------------------- #
# Matchings
# ---------------------------------------------------------------------- #


def is_matching(graph: nx.Graph, edge_outputs: Mapping[Edge, Any]) -> bool:
    """Whether the truthy edges form a matching (no shared endpoint)."""
    matched_nodes = set()
    for (u, v), value in edge_outputs.items():
        if not value:
            continue
        if u in matched_nodes or v in matched_nodes:
            return False
        matched_nodes.add(u)
        matched_nodes.add(v)
    return True


def is_maximal_matching(graph: nx.Graph, edge_outputs: Mapping[Edge, Any]) -> ValidationResult:
    """Check that the truthy edges form a *maximal* matching of ``graph``."""
    for (u, v), value in edge_outputs.items():
        if value and not graph.has_edge(u, v):
            return ValidationResult(False, f"matched edge ({u}, {v}) is not in the graph")
    if not is_matching(graph, edge_outputs):
        return ValidationResult(False, "selected edges are not a matching")
    matched_nodes = set()
    for (u, v), value in edge_outputs.items():
        if value:
            matched_nodes.add(u)
            matched_nodes.add(v)
    # repro-lint: allow[REP002] reference validator, runs on an nx graph
    for u, v in graph.edges():
        if u not in matched_nodes and v not in matched_nodes:
            return ValidationResult(False, f"edge ({u}, {v}) could be added (not maximal)")
    return ValidationResult(True)


def _matching_kernel(
    network: Any, values: Any, committed: np.ndarray, alive: np.ndarray, strict: bool
) -> ValidationResult:
    """Maximal matching.

    At most one selected edge per node, crashed nodes included: under
    ``strict=False`` a crashed node cannot be matched twice either (its
    surviving partners both believe the match).  An unselected
    survivor–survivor edge needs an endpoint matched by *some* selected
    edge — under ``strict=False`` possibly one towards a crashed node (the
    match happened before the partner died; that does not free the
    surviving endpoint).
    """
    n = network.n
    us, vs = network.edge_endpoints()
    selected = committed & _truthy(values)
    load = np.bincount(us[selected], minlength=n) + np.bincount(vs[selected], minlength=n)
    if (load > 1).any():
        v = _first(load > 1)
        return ValidationResult(
            False, f"selected edges are not a matching (node {v} is matched {load[v]} times)"
        )
    matched = load > 0
    addable = alive[us] & alive[vs] & ~matched[us] & ~matched[vs]
    if addable.any():
        i = _first(addable)
        return _fail(alive, f"edge ({us[i]}, {vs[i]}) could be added (not maximal)")
    return ValidationResult(True)


def _matching_validator(
    graph: nx.Graph, _: Mapping[int, Any], edge_outputs: Mapping[Edge, Any]
) -> ValidationResult:
    return is_maximal_matching(graph, edge_outputs)


MAXIMAL_MATCHING = ProblemSpec(
    name="maximal-matching",
    labels_nodes=False,
    labels_edges=True,
    validator=_matching_validator,
    kernel=_matching_kernel,
)


# ---------------------------------------------------------------------- #
# Colouring
# ---------------------------------------------------------------------- #


def is_proper_coloring(
    graph: nx.Graph, node_outputs: Mapping[int, Any], num_colors: Optional[int] = None
) -> ValidationResult:
    """Check a proper vertex colouring, optionally bounding the palette size."""
    # repro-lint: allow[REP002] reference validator, runs on an nx graph
    for u, v in graph.edges():
        if node_outputs.get(u) == node_outputs.get(v):
            return ValidationResult(False, f"edge ({u}, {v}) is monochromatic")
    if num_colors is not None:
        used = {node_outputs[v] for v in graph.nodes()}
        bad = [c for c in used if not (isinstance(c, int) and 0 <= c < num_colors)]
        if bad:
            return ValidationResult(
                False, f"colours {bad[:5]} are outside the allowed palette [0, {num_colors})"
            )
    return ValidationResult(True)


def _coloring_kernel(
    network: Any,
    values: Any,
    committed: np.ndarray,
    alive: np.ndarray,
    strict: bool,
    *,
    num_colors: Optional[int],
) -> ValidationResult:
    """Proper colouring with palette ``[0, num_colors)``.

    Colours compare with Python ``==``, as in the reference.  Only
    survivor–survivor edges can be monochromatic (a clash against a corpse
    constrains nobody), and the palette binds the colours survivors use;
    a palette colour is a Python ``int`` in range (the reference's
    ``isinstance`` rule).
    """
    us, vs = network.edge_endpoints()
    colours = _objects(values)
    clash = alive[us] & alive[vs] & (colours[us] == colours[vs])
    if clash.any():
        i = _first(clash)
        return _fail(alive, f"edge ({us[i]}, {vs[i]}) is monochromatic")
    if num_colors is not None:
        used = set(colours[alive & committed].tolist())
        bad = [c for c in used if not (isinstance(c, int) and 0 <= c < num_colors)]
        if bad:
            return ValidationResult(
                False, f"colours {bad[:5]} are outside the allowed palette [0, {num_colors})"
            )
    return ValidationResult(True)


def coloring(num_colors: Optional[int] = None, name: Optional[str] = None) -> ProblemSpec:
    """Problem spec for proper vertex colouring with palette ``[0, num_colors)``."""

    def _validator(
        graph: nx.Graph, node_outputs: Mapping[int, Any], _: Mapping[Edge, Any]
    ) -> ValidationResult:
        return is_proper_coloring(graph, node_outputs, num_colors)

    label = name or (f"{num_colors}-coloring" if num_colors is not None else "coloring")
    return ProblemSpec(
        name=label,
        labels_nodes=True,
        labels_edges=False,
        validator=_validator,
        params={"num_colors": num_colors},
        kernel=partial(_coloring_kernel, num_colors=num_colors),
    )


# ---------------------------------------------------------------------- #
# Sinkless orientation
# ---------------------------------------------------------------------- #


def is_sinkless_orientation(
    graph: nx.Graph, edge_outputs: Mapping[Edge, Any], min_degree: int = 3
) -> ValidationResult:
    """Check a sinkless orientation.

    The output of edge ``(u, v)`` (with ``u < v``) is the vertex the edge
    points *towards* (its head).  Every node of degree ≥ ``min_degree`` must
    have at least one outgoing edge.  Nodes of smaller degree are exempt, as
    in the paper the problem is only posed for minimum degree ≥ 3.
    """
    out_degree: Dict[int, int] = {v: 0 for v in graph.nodes()}
    for (u, v), head in edge_outputs.items():
        if not graph.has_edge(u, v):
            return ValidationResult(False, f"oriented edge ({u}, {v}) is not in the graph")
        if head not in (u, v):
            return ValidationResult(
                False, f"edge ({u}, {v}) oriented towards {head}, which is not an endpoint"
            )
        tail = u if head == v else v
        out_degree[tail] += 1
    for v in graph.nodes():
        if graph.degree(v) >= min_degree and out_degree[v] == 0:
            return ValidationResult(False, f"node {v} (degree {graph.degree(v)}) is a sink")
    return ValidationResult(True)


def _sinkless_orientation_kernel(
    network: Any,
    values: Any,
    committed: np.ndarray,
    alive: np.ndarray,
    strict: bool,
    min_degree: int = 3,
) -> ValidationResult:
    """Sinkless orientation: ``values`` are the heads of the edges.

    Every committed head must be an endpoint of its edge, wherever the edge
    sits — a malformed head is a bug, not a casualty.  A survivor of degree
    ≥ ``min_degree`` needs an outgoing edge.  Under ``strict=False`` the
    degree is the **original** one (the paper poses the problem for minimum
    degree ≥ 3; a crash does not re-pose it) and an outgoing edge whose head
    has since crashed still counts: under crash-stop the edge physically
    remains and the tail is no sink along it.  Under ``strict`` both the
    degree and the out-edges are those of the induced survivor subgraph.
    """
    n = network.n
    us, vs = network.edge_endpoints()
    heads = _objects(values)
    towards_v = committed & (heads == vs)
    towards_u = committed & ~towards_v & (heads == us)
    astray = committed & ~towards_v & ~towards_u
    if astray.any():
        i = _first(astray)
        return ValidationResult(
            False,
            f"edge ({us[i]}, {vs[i]}) oriented towards {heads[i]}, which is not an endpoint",
        )
    has_out = np.zeros(n, dtype=bool)
    has_out[us[towards_v]] = True
    has_out[vs[towards_u]] = True
    if strict:
        live = alive[us] & alive[vs]
        degree = np.bincount(us[live], minlength=n) + np.bincount(vs[live], minlength=n)
    else:
        degree = np.diff(np.asarray(network.indptr))
    sinks = alive & (degree >= min_degree) & ~has_out
    if sinks.any():
        v = _first(sinks)
        return _fail(alive, f"node {v} (degree {degree[v]}) is a sink")
    return ValidationResult(True)


def _sinkless_validator(
    graph: nx.Graph, _: Mapping[int, Any], edge_outputs: Mapping[Edge, Any]
) -> ValidationResult:
    return is_sinkless_orientation(graph, edge_outputs)


SINKLESS_ORIENTATION = ProblemSpec(
    name="sinkless-orientation",
    labels_nodes=False,
    labels_edges=True,
    validator=_sinkless_validator,
    kernel=_sinkless_orientation_kernel,
)
