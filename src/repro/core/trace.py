"""Execution traces: per-node and per-edge commit times and outputs.

An :class:`ExecutionTrace` is what the runner returns after simulating an
algorithm.  It records, for every node and every edge, the round at which the
corresponding output was committed, and derives the paper's *completion
times*:

* a node ``v`` has completed its computation as soon as ``v`` **and all its
  incident edges** have committed their outputs;
* an edge ``e = {u, v}`` has completed as soon as ``e`` **and both its
  endpoints** have committed their outputs.

For problems that only label nodes (MIS, colouring, ruling sets) the edge
side of the condition is vacuous, so a node completes when its own label is
fixed and an edge completes when both endpoint labels are fixed — exactly the
reading spelled out in Section 2 of the paper.  Symmetrically for problems
that only label edges (matching, orientations).

Storage.  Commit rounds and outputs live in **flat arrays indexed by vertex
and edge slot** (the :attr:`Network.edges` order): an ``array('q')`` of
commit rounds with ``-1`` marking "never committed" and an aligned value
list.  The runner fills these directly (:meth:`ExecutionTrace.from_arrays`);
the historical dict views (``node_outputs``, ``node_commit_round``,
``edge_outputs``, ``edge_commit_round``) are preserved as lazy properties
for API compatibility, and remain assignable so that hand-built traces (and
the vendored seed pipeline in ``benchmarks/``) can keep constructing traces
dict-first.  Whichever representation a trace was built from is canonical;
the other is derived on first access and cached.  Traces are treated as
immutable once handed out, so the two never diverge.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import ValidationFailed
from repro.core.problems import ProblemSpec, ValidationResult

__all__ = ["ExecutionTrace"]

Edge = Tuple[int, int]


def _new_round_array(length: int) -> array:
    """A length-``length`` int64 array of ``-1`` ("never committed")."""
    return array("q", [-1]) * length


def _slot_outputs(
    values: Optional[Tuple[Any, ...]], rounds: Optional[array], mapping: Any
) -> Tuple[Any, Optional[np.ndarray]]:
    """``(outputs, committed)`` of one side: the slot arrays, or the canonical dict."""
    if values is None:
        return mapping, None
    return values, np.frombuffer(rounds, dtype=np.int64) >= 0


class ExecutionTrace:
    """Result of one execution of a distributed algorithm.

    Attributes:
        network: the :class:`repro.local.network.Network` the algorithm ran on.
        problem: the problem being solved (drives completion-time semantics).
        node_outputs: committed node outputs, vertex → value (lazy dict view).
        node_commit_round: vertex → round of the node-output commit (lazy view).
        edge_outputs: committed edge outputs, canonical edge → value (lazy view).
        edge_commit_round: canonical edge → round of the edge-output commit.
        rounds: number of communication rounds executed.
        completed: whether all required outputs were committed before the
            round limit.
        total_messages: number of point-to-point messages sent.
        max_message_bits: rough upper bound on the largest message size in
            bits (only tracked when the runner is asked to).
        algorithm_name: name of the executed algorithm (for reports).
        fault_events: injected fault events, in execution order — tuples
            ``("crash", round, vertex)``, ``("drop", round, source, target)``
            or ``("delay", round, source, target)`` (empty for fault-free
            runs).  Derived purely from the :class:`~repro.local.faults.
            FaultSchedule`, so both engines record identical lists for the
            rounds they execute.
        crashed: sorted vertices that crashed during the execution.  When
            non-empty, :meth:`validate` scores the outputs on the surviving
            subgraph (:meth:`ProblemSpec.validate_surviving`).
        recovery: per-round :class:`~repro.core.metrics.RecoveryTimeline`
            of a self-stabilising execution (``None`` otherwise).
            :func:`repro.core.metrics.measure` aggregates it into
            time-to-restabilise statistics.  Excluded from trace equality,
            like the other lazily derived extras.
    """

    def __init__(
        self,
        network: Any,
        problem: ProblemSpec,
        node_outputs: Optional[Dict[int, Any]] = None,
        node_commit_round: Optional[Dict[int, int]] = None,
        edge_outputs: Optional[Dict[Edge, Any]] = None,
        edge_commit_round: Optional[Dict[Edge, int]] = None,
        rounds: int = 0,
        completed: bool = True,
        total_messages: int = 0,
        max_message_bits: Optional[int] = None,
        algorithm_name: str = "",
        fault_events: Tuple = (),
        crashed: Tuple[int, ...] = (),
        recovery: Optional[Any] = None,
    ) -> None:
        self.network = network
        self.problem = problem
        self.rounds = rounds
        self.completed = completed
        self.total_messages = total_messages
        self.max_message_bits = max_message_bits
        self.algorithm_name = algorithm_name
        self.fault_events = tuple(fault_events)
        self.crashed = tuple(crashed)
        self.recovery = recovery
        # Dict-canonical storage (legacy construction path).  ``None`` means
        # the corresponding flat arrays below are canonical instead.
        self._node_outputs: Optional[Dict[int, Any]] = (
            node_outputs if node_outputs is not None else {}
        )
        self._node_commit_round: Optional[Dict[int, int]] = (
            node_commit_round if node_commit_round is not None else {}
        )
        self._edge_outputs: Optional[Dict[Edge, Any]] = (
            edge_outputs if edge_outputs is not None else {}
        )
        self._edge_commit_round: Optional[Dict[Edge, int]] = (
            edge_commit_round if edge_commit_round is not None else {}
        )
        # Flat per-slot storage: value lists aligned with int64 round arrays
        # (-1 = never committed).  Canonical when built via `from_arrays`,
        # otherwise derived lazily from the dicts.
        self._node_values: Optional[List[Any]] = None
        self._node_rounds: Optional[array] = None
        self._edge_values: Optional[List[Any]] = None
        self._edge_rounds: Optional[array] = None
        # Lazily computed completion-time vectors.  A trace is immutable once
        # the runner hands it out, and the metrics layer asks for the same
        # vectors several times per trace (averaged, expected, worst-case).
        # The int64 numpy arrays are canonical; the list views derive from
        # them for API compatibility.
        self._node_times: Optional[List[int]] = None
        self._edge_times: Optional[List[int]] = None
        self._node_times_np: Optional[np.ndarray] = None
        self._edge_times_np: Optional[np.ndarray] = None

    @classmethod
    def from_arrays(
        cls,
        network: Any,
        problem: ProblemSpec,
        node_values: List[Any],
        node_rounds: array,
        edge_values: List[Any],
        edge_rounds: array,
        *,
        rounds: int = 0,
        completed: bool = True,
        total_messages: int = 0,
        max_message_bits: Optional[int] = None,
        algorithm_name: str = "",
        fault_events: Tuple = (),
        crashed: Tuple[int, ...] = (),
        recovery: Optional[Any] = None,
    ) -> "ExecutionTrace":
        """Build a trace directly from flat per-slot arrays (the hot path).

        ``node_values``/``node_rounds`` are vertex-indexed (length ``n``),
        ``edge_values``/``edge_rounds`` follow :attr:`Network.edges` order
        (length ``m``); round ``-1`` marks a slot that never committed.
        """
        trace = cls(
            network,
            problem,
            rounds=rounds,
            completed=completed,
            total_messages=total_messages,
            max_message_bits=max_message_bits,
            algorithm_name=algorithm_name,
            fault_events=fault_events,
            crashed=crashed,
            recovery=recovery,
        )
        trace._node_outputs = None
        trace._node_commit_round = None
        trace._edge_outputs = None
        trace._edge_commit_round = None
        # Value slots are stored as tuples: CPython's GC permanently
        # untracks a tuple of atomic values the first time a collection
        # sees it, whereas a list is re-scanned by every gen-2 collection
        # for as long as it lives.  With thousands of traces held by a
        # sweep or a batched run, list-backed slots turn each full
        # collection into a walk of 10⁷+ pointers and dominate the trial
        # loop; tuple-backed slots make held traces GC-inert.  (Round
        # buffers — ``array('q')`` — and numpy arrays are atomic already.)
        trace._node_values = tuple(node_values)
        trace._node_rounds = node_rounds
        trace._edge_values = tuple(edge_values)
        trace._edge_rounds = edge_rounds
        return trace

    # ------------------------------------------------------------------ #
    # Dict views (lazy; canonical when assigned)
    # ------------------------------------------------------------------ #

    @property
    def node_outputs(self) -> Dict[int, Any]:
        if self._node_outputs is None:
            rounds_arr = self._node_rounds
            values = self._node_values
            self._node_outputs = {
                v: values[v] for v in range(len(rounds_arr)) if rounds_arr[v] >= 0
            }
        return self._node_outputs

    @node_outputs.setter
    def node_outputs(self, mapping: Dict[int, Any]) -> None:
        # Assignment flips the node group back to dict-canonical; materialise
        # the sibling dict view first so the arrays can be dropped together
        # (a half-array, half-dict state would corrupt later derivations).
        if self._node_commit_round is None:
            _ = self.node_commit_round
        self._node_outputs = mapping
        self._node_values = None
        self._node_rounds = None
        self._invalidate_times()

    @property
    def node_commit_round(self) -> Dict[int, int]:
        if self._node_commit_round is None:
            rounds_arr = self._node_rounds
            self._node_commit_round = {
                v: rounds_arr[v] for v in range(len(rounds_arr)) if rounds_arr[v] >= 0
            }
        return self._node_commit_round

    @node_commit_round.setter
    def node_commit_round(self, mapping: Dict[int, int]) -> None:
        if self._node_outputs is None:
            _ = self.node_outputs
        self._node_commit_round = mapping
        self._node_rounds = None
        self._node_values = None
        self._invalidate_times()

    @property
    def edge_outputs(self) -> Dict[Edge, Any]:
        if self._edge_outputs is None:
            values = self._edge_values
            self._edge_outputs = {edge: values[i] for i, edge in self._committed_edges()}
        return self._edge_outputs

    @edge_outputs.setter
    def edge_outputs(self, mapping: Dict[Edge, Any]) -> None:
        if self._edge_commit_round is None:
            _ = self.edge_commit_round
        self._edge_outputs = mapping
        self._edge_values = None
        self._edge_rounds = None
        self._invalidate_times()

    @property
    def edge_commit_round(self) -> Dict[Edge, int]:
        if self._edge_commit_round is None:
            rounds_arr = self._edge_rounds
            self._edge_commit_round = {
                edge: rounds_arr[i] for i, edge in self._committed_edges()
            }
        return self._edge_commit_round

    @edge_commit_round.setter
    def edge_commit_round(self, mapping: Dict[Edge, int]) -> None:
        if self._edge_outputs is None:
            _ = self.edge_outputs
        self._edge_commit_round = mapping
        self._edge_rounds = None
        self._edge_values = None
        self._invalidate_times()

    def _committed_edges(self) -> List[Tuple[int, Edge]]:
        """``(slot, canonical edge)`` for every committed edge slot, in slot order.

        Only the committed slots are resolved, through the network's
        ``edge_endpoints()`` arrays: a trace in which no edge committed (any
        node-labelling run) never builds the network's tuple edge view.
        """
        slots = np.flatnonzero(np.frombuffer(self._edge_rounds, dtype=np.int64) >= 0)
        if not slots.size:
            return []
        us, vs = self.network.edge_endpoints()
        edges = zip(np.asarray(us)[slots].tolist(), np.asarray(vs)[slots].tolist())
        return list(zip(slots.tolist(), edges))

    def _invalidate_times(self) -> None:
        self._node_times = None
        self._edge_times = None
        self._node_times_np = None
        self._edge_times_np = None

    # ------------------------------------------------------------------ #
    # Flat array views (lazy; canonical when built via `from_arrays`)
    # ------------------------------------------------------------------ #

    def node_commit_rounds(self) -> array:
        """Per-vertex commit rounds as an int64 array (``-1`` = uncommitted)."""
        if self._node_rounds is None:
            arr = _new_round_array(self.network.n)
            for v, r in self._node_commit_round.items():
                arr[v] = r
            self._node_rounds = arr
        return self._node_rounds

    def edge_commit_rounds(self) -> array:
        """Per-edge-slot commit rounds (``network.edges`` order, ``-1`` = uncommitted)."""
        if self._edge_rounds is None:
            arr = _new_round_array(self.network.m)
            mapping = self._edge_commit_round
            if mapping:
                # repro-lint: allow[REP002] dict-built traces only (hand-built / vendored seed pipeline)
                for i, e in enumerate(self.network.edges):
                    r = mapping.get(e)
                    if r is not None:
                        arr[i] = r
            self._edge_rounds = arr
        return self._edge_rounds

    # ------------------------------------------------------------------ #
    # Completion times (Definition 1 semantics)
    # ------------------------------------------------------------------ #

    def node_completion_time(self, v: int) -> int:
        """Round at which node ``v`` completed its computation."""
        times: List[int] = []
        if self.problem.labels_nodes:
            times.append(self._node_round(v))
        if self.problem.labels_edges:
            edge_rounds = self.edge_commit_rounds()
            rounds = self.rounds
            for i in self.network.incident_edge_indices(v):
                r = edge_rounds[i]
                times.append(r if r >= 0 else rounds)
        if not times:
            return 0
        return max(times)

    def edge_completion_time(self, u: int, v: int) -> int:
        """Round at which edge ``{u, v}`` completed its computation."""
        times: List[int] = []
        if self.problem.labels_edges:
            edge_rounds = self.edge_commit_rounds()
            r = edge_rounds[self.network.edge_index(u, v)]
            times.append(r if r >= 0 else self.rounds)
        if self.problem.labels_nodes:
            times.append(self._node_round(u))
            times.append(self._node_round(v))
        if not times:
            return 0
        return max(times)

    def node_completion_times(self) -> List[int]:
        """Completion times of all nodes, indexed by vertex (cached)."""
        if self._node_times is None:
            self._node_times = self.node_completion_array().tolist()
        return self._node_times

    def edge_completion_times(self) -> List[int]:
        """Completion times of all edges, in the network's edge order (cached)."""
        if self._edge_times is None:
            self._edge_times = self.edge_completion_array().tolist()
        return self._edge_times

    def _node_rounds_np(self) -> np.ndarray:
        """Per-vertex commit rounds (uncommitted charged the full length)."""
        rounds = np.frombuffer(self.node_commit_rounds(), dtype=np.int64)
        return np.where(rounds >= 0, rounds, self.rounds)

    def _edge_rounds_np(self) -> np.ndarray:
        """Per-edge commit rounds in network edge order."""
        rounds = np.frombuffer(self.edge_commit_rounds(), dtype=np.int64)
        return np.where(rounds >= 0, rounds, self.rounds)

    def node_completion_array(self) -> np.ndarray:
        """Vectorised :meth:`node_completion_times`: an int64 numpy array.

        Computed entirely over the trace's flat per-slot round arrays — no
        per-node Python loop — and cached (the array is marked read-only so
        the list view and repeated metric reductions stay consistent).
        """
        if self._node_times_np is None:
            labels_nodes = self.problem.labels_nodes
            labels_edges = self.problem.labels_edges
            n = self.network.n
            if labels_nodes:
                acc = self._node_rounds_np()
            else:
                acc = np.zeros(n, dtype=np.int64)
            if labels_edges:
                edge_times = self._edge_rounds_np()
                us, vs = self.network.edge_endpoints()
                np.maximum.at(acc, us, edge_times)
                np.maximum.at(acc, vs, edge_times)
            acc.setflags(write=False)
            self._node_times_np = acc
        return self._node_times_np

    def edge_completion_array(self) -> np.ndarray:
        """Vectorised :meth:`edge_completion_times`: an int64 numpy array."""
        if self._edge_times_np is None:
            labels_nodes = self.problem.labels_nodes
            labels_edges = self.problem.labels_edges
            m = self.network.m
            if labels_edges:
                acc = self._edge_rounds_np()
            else:
                acc = np.zeros(m, dtype=np.int64)
            if labels_nodes:
                node_rounds = self._node_rounds_np()
                us, vs = self.network.edge_endpoints()
                np.maximum(acc, node_rounds[us], out=acc)
                np.maximum(acc, node_rounds[vs], out=acc)
            acc.setflags(write=False)
            self._edge_times_np = acc
        return self._edge_times_np

    def worst_case_rounds(self) -> int:
        """Maximum completion time over all nodes and edges."""
        return int(
            max(
                np.max(self.node_completion_array(), initial=0),
                np.max(self.edge_completion_array(), initial=0),
            )
        )

    def _node_round(self, v: int) -> int:
        r = self.node_commit_rounds()[v]
        if r < 0:
            # Uncommitted entities are charged the full execution length; this
            # only happens for incomplete executions (round-limit hit).
            return self.rounds
        return r

    def _edge_round(self, e: Edge) -> int:
        r = self.edge_commit_rounds()[self.network.edge_index(*e)]
        if r < 0:
            return self.rounds
        return r

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def validate(self) -> ValidationResult:
        """Check the committed outputs against the problem specification.

        The trace's per-slot value and round arrays go to the problem's
        array kernel as ``(values, committed)`` pairs (dict-built traces
        pass their mappings); the topology is never exported to networkx.
        Executions with crash-stop faults (:attr:`crashed` non-empty) are
        scored on the surviving subgraph
        (:meth:`ProblemSpec.validate_surviving`).
        """
        node_outputs, node_committed = _slot_outputs(
            self._node_values, self._node_rounds, self._node_outputs
        )
        edge_outputs, edge_committed = _slot_outputs(
            self._edge_values, self._edge_rounds, self._edge_outputs
        )
        return self.problem.validate_surviving(
            self.network,
            node_outputs,
            edge_outputs,
            self.crashed,
            node_committed=node_committed,
            edge_committed=edge_committed,
        )

    def require_valid(self) -> "ExecutionTrace":
        """Raise :class:`ValidationFailed` unless the outputs are valid.

        ``ValidationFailed`` subclasses ``AssertionError``, preserving the
        historical contract of this method.
        """
        result = self.validate()
        if not result:
            raise ValidationFailed(
                f"{self.algorithm_name or 'algorithm'} produced an invalid "
                f"{self.problem.name} solution: {result.reason}"
            )
        return self

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #

    def selected_nodes(self) -> List[int]:
        """Vertices whose committed output is truthy (e.g. MIS members)."""
        if self._node_values is not None:
            rounds_arr = self._node_rounds
            values = self._node_values
            return [v for v in range(len(values)) if rounds_arr[v] >= 0 and values[v]]
        return [v for v, value in self._node_outputs.items() if value]

    def selected_edges(self) -> List[Edge]:
        """Edges whose committed output is truthy (e.g. matching edges)."""
        if self._edge_values is not None:
            values = self._edge_values
            return [edge for i, edge in self._committed_edges() if values[i]]
        return [e for e, value in self._edge_outputs.items() if value]

    def summary(self) -> Dict[str, Any]:
        """Small dictionary of headline numbers for quick inspection."""
        node_times = self.node_completion_times()
        edge_times = self.edge_completion_times()
        return {
            "algorithm": self.algorithm_name,
            "problem": self.problem.name,
            "n": self.network.n,
            "m": self.network.m,
            "rounds": self.rounds,
            "completed": self.completed,
            "node_averaged": sum(node_times) / len(node_times) if node_times else 0.0,
            "edge_averaged": sum(edge_times) / len(edge_times) if edge_times else 0.0,
            "worst_case": self.worst_case_rounds(),
            "total_messages": self.total_messages,
        }

    def __eq__(self, other: object) -> bool:
        # Field-based equality over the same fields the former dataclass
        # compared (the lazy completion-time caches were compare=False), so
        # dict-built and array-built traces of the same execution are equal.
        if not isinstance(other, ExecutionTrace):
            return NotImplemented
        return (
            self.network == other.network
            and self.problem == other.problem
            and self.rounds == other.rounds
            and self.completed == other.completed
            and self.total_messages == other.total_messages
            and self.max_message_bits == other.max_message_bits
            and self.algorithm_name == other.algorithm_name
            and self.node_outputs == other.node_outputs
            and self.node_commit_round == other.node_commit_round
            and self.edge_outputs == other.edge_outputs
            and self.edge_commit_round == other.edge_commit_round
        )

    __hash__ = None  # mutable value type, like the former eq=True dataclass

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ExecutionTrace(algorithm={self.algorithm_name!r}, "
            f"problem={self.problem.name!r}, n={self.network.n}, "
            f"m={self.network.m}, rounds={self.rounds}, completed={self.completed})"
        )
