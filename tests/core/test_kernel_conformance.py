"""Generated conformance tests for the per-problem validation kernels.

Every problem's array kernel must reach the verdict of its networkx
reference validator: ``validate_network`` against the reference on the whole
graph, ``validate_induced`` against the reference on
``graph.subgraph(survivors)`` with the crashed nodes' commitments dropped.
Hypothesis draws the graph (built on either ``Network`` construction path),
the crash set and the outputs — valid, corrupted or partially missing — for
all five problems, and every check is run on the three input forms (mapping,
``MISSING``-marked sequence, ``(values, committed)`` arrays), which must
agree with each other as well, for ``validate_surviving`` too.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.matching.randomized import RandomizedMaximalMatching
from repro.core import problems
from repro.core.experiment import Experiment
from repro.core.problems import MISSING
from repro.graphs.generators import fast_gnp_edges
from repro.local.network import Network

PROBLEMS = {
    "mis": problems.MIS,
    "ruling-2-2": problems.ruling_set(2, 2),
    "ruling-3-2": problems.ruling_set(3, 2),
    "matching": problems.MAXIMAL_MATCHING,
    "coloring": problems.coloring(),
    "coloring-4": problems.coloring(4),
    "sinkless": problems.SINKLESS_ORIENTATION,
}


def _distance_greedy(graph: nx.Graph, order, alpha: int) -> set:
    """Greedy rulers pairwise ≥ α apart (a maximal one dominates within α−1)."""
    rulers: set = set()
    for v in order:
        near = nx.single_source_shortest_path_length(graph, v, cutoff=alpha - 1)
        if not rulers.intersection(near):
            rulers.add(v)
    return rulers


def _solve(key: str, graph: nx.Graph, rng: random.Random):
    """Valid outputs on ``graph``: ``(node_outputs, edge_outputs)`` mappings."""
    order = list(graph.nodes())
    rng.shuffle(order)
    edges = sorted((min(e), max(e)) for e in graph.edges())
    if key in ("mis", "ruling-2-2"):
        rulers = _distance_greedy(graph, order, 2)
        return {v: v in rulers for v in graph.nodes()}, {}
    if key == "ruling-3-2":
        rulers = _distance_greedy(graph, order, 3)
        return {v: v in rulers for v in graph.nodes()}, {}
    if key == "matching":
        rng.shuffle(edges)
        matched: set = set()
        outputs = {}
        for u, v in edges:
            outputs[(u, v)] = u not in matched and v not in matched
            if outputs[(u, v)]:
                matched.update((u, v))
        return {}, outputs
    if key.startswith("coloring"):
        colours: dict = {}
        for v in order:
            used = {colours.get(u) for u in graph.neighbors(v)}
            colours[v] = next(c for c in itertools.count() if c not in used)
        return colours, {}
    # Sinkless orientation: random heads (valid or not, depending on luck).
    return {}, {(u, v): rng.choice((u, v)) for u, v in edges}


def _corrupt(key: str, value, n: int, rng: random.Random):
    if key.startswith("coloring"):
        return rng.choice([-1, 0, 1, 2, 5, 2.0, "red"])
    if key == "sinkless":
        return rng.randrange(-1, n + 1)
    return not value


@st.composite
def scenarios(draw):
    n = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = sorted(draw(st.sets(st.sampled_from(pairs), max_size=24))) if pairs else []
    crashed = sorted(draw(st.sets(st.integers(0, n - 1), max_size=3))) if n else []
    mode = draw(st.sampled_from(["valid", "corrupted", "missing"]))
    seed = draw(st.integers(0, 2**16))
    return n, edges, crashed, mode, seed


def _outputs(key: str, graph: nx.Graph, crashed, mode: str, seed: int):
    """Outputs solved on the survivors, plus arbitrary commitments of the dead."""
    rng = random.Random(seed)
    survivors = graph.subgraph(v for v in graph.nodes() if v not in crashed)
    node_map, edge_map = _solve(key, survivors, rng)
    whole_nodes, whole_edges = _solve(key, graph, rng)
    for v, value in whole_nodes.items():
        if v not in node_map and rng.random() < 0.7:
            node_map[v] = value
    for e, value in whole_edges.items():
        if e not in edge_map and rng.random() < 0.7:
            edge_map[e] = value
    target = node_map if node_map or not edge_map else edge_map
    keys = sorted(target)
    if mode == "corrupted" and keys:
        for k in rng.sample(keys, rng.randint(1, min(2, len(keys)))):
            target[k] = _corrupt(key, target[k], graph.number_of_nodes(), rng)
    if mode == "missing" and keys:
        for k in rng.sample(keys, rng.randint(1, min(2, len(keys)))):
            del target[k]
    return node_map, edge_map


def _forms(network: Network, node_map: dict, edge_map: dict):
    """The same assignment as mappings, MISSING-marked slots and array pairs."""
    us, vs = network.edge_endpoints()
    slot_edges = list(zip(us.tolist(), vs.tolist()))
    node_slots = [node_map.get(v, MISSING) for v in range(network.n)]
    edge_slots = [edge_map.get(e, MISSING) for e in slot_edges]
    arrays = {
        "node_outputs": [None if x is MISSING else x for x in node_slots],
        "edge_outputs": [None if x is MISSING else x for x in edge_slots],
        "node_committed": np.array([x is not MISSING for x in node_slots], dtype=bool),
        "edge_committed": np.array([x is not MISSING for x in edge_slots], dtype=bool),
    }
    return [
        {"node_outputs": node_map, "edge_outputs": edge_map},
        {"node_outputs": node_slots, "edge_outputs": edge_slots},
        arrays,
    ]


@pytest.mark.parametrize("array_built", [False, True], ids=["tuple-net", "array-net"])
@pytest.mark.parametrize("key", sorted(PROBLEMS))
@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
def test_kernels_agree_with_the_reference(key, array_built, scenario):
    n, edges, crashed, mode, seed = scenario
    spec = PROBLEMS[key]
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    if array_built:
        network = Network.from_endpoint_arrays(
            n, [u for u, _ in edges], [v for _, v in edges]
        )
    else:
        network = Network.from_edge_list(n, edges)
    node_map, edge_map = _outputs(key, graph, crashed, mode, seed)
    forms = _forms(network, node_map, edge_map)

    whole = bool(spec.validate(graph, node_map, edge_map))
    assert [bool(spec.validate_network(network, **f)) for f in forms] == [whole] * 3

    alive = [v for v in range(n) if v not in crashed]
    induced = bool(
        spec.validate(
            graph.subgraph(alive),
            {v: x for v, x in node_map.items() if v not in crashed},
            {e: x for e, x in edge_map.items() if not set(e) & set(crashed)},
        )
    )
    got = [bool(spec.validate_induced(network, crashed=crashed, **f)) for f in forms]
    assert got == [induced] * 3, (node_map, edge_map)

    surviving = [bool(spec.validate_surviving(network, crashed=crashed, **f)) for f in forms]
    assert len(set(surviving)) == 1


class TestInducedSemantics:
    def test_mis_accepts_a_valid_survivor_configuration(self):
        # Path 0-1-2-3 with node 1 crashed: survivors 0,2,3; selecting {0, 3}
        # leaves 2 covered by 3 and independent.
        network = Network.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        values = np.array([True, True, False, True])  # crashed node's value ignored
        committed = np.ones(4, dtype=bool)
        result = problems.MIS.validate_induced(
            network, values, None, [1], node_committed=committed
        )
        assert bool(result)

    def test_mis_rejects_uncovered_survivors(self):
        network = Network.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        values = np.array([False, False, False, False])
        committed = np.ones(4, dtype=bool)
        result = problems.MIS.validate_induced(
            network, values, None, [1], node_committed=committed
        )
        assert not bool(result)
        assert "uncovered" in result.reason

    def test_mis_rejects_missing_survivor_outputs(self):
        network = Network.from_edges(3, [(0, 1), (1, 2)])
        values = np.zeros(3, dtype=bool)
        committed = np.array([True, True, False])
        result = problems.MIS.validate_induced(
            network, values, None, [0], node_committed=committed
        )
        assert not bool(result)
        assert "missing node outputs" in result.reason

    def test_matching_rejects_addable_edges(self):
        # Triangle with no crash on the relevant edge: nothing selected but
        # the surviving edge (1, 2) could be added.
        network = Network.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        values = np.zeros(3, dtype=bool)
        committed = np.ones(3, dtype=bool)
        result = problems.MAXIMAL_MATCHING.validate_induced(
            network, None, values, [0], edge_committed=committed
        )
        assert not bool(result)
        assert "added" in result.reason

    def test_matching_rejects_non_matchings(self):
        network = Network.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        values = np.ones(3, dtype=bool)
        committed = np.ones(3, dtype=bool)
        result = problems.MAXIMAL_MATCHING.validate_induced(
            network, None, values, [], edge_committed=committed
        )
        assert not bool(result)
        assert "matching" in result.reason

    def test_sinkless_orientation_keeps_heads_after_a_crash(self):
        """Heads name vertices; the induced check must not relabel them away.

        K5 with edge ``(u, v)`` oriented towards ``v`` iff ``(v - u) % 5`` is
        1 or 2: every vertex has out-degree 2, and after vertex 0 crashes
        every survivor keeps an out-edge inside the induced K4 (induced
        degree 3, so no exemption applies).
        """
        network = Network.from_edge_list(5, list(itertools.combinations(range(5), 2)))
        heads = {(u, v): v if (v - u) % 5 in (1, 2) else u for u, v in network.edges}
        spec = problems.SINKLESS_ORIENTATION
        assert spec.validate_induced(network, None, heads, crashed=[0])
        assert spec.validate_surviving(network, None, heads, crashed=[0])

    def test_sinkless_orientation_exemption_uses_the_induced_degree(self):
        # Star K_{1,3} plus nothing else: with leaf 1 crashed the centre's
        # induced degree is 2 < 3, so it is exempt on the induced subgraph
        # although its original degree (3) binds the lenient check.
        network = Network.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        inward = {(0, 1): 0, (0, 2): 0, (0, 3): 0}
        spec = problems.SINKLESS_ORIENTATION
        assert spec.validate_induced(network, None, inward, crashed=[1])
        assert not spec.validate_surviving(network, None, inward, crashed=[1])


def test_matching_validation_never_builds_the_tuple_edge_view():
    run = Experiment(
        problem=problems.MAXIMAL_MATCHING,
        algorithm=RandomizedMaximalMatching,
        graphs=fast_gnp_edges(2000, 10 / 1999, seed=3, as_arrays=True),
        trials=3,
        engine="auto",
    ).run().run
    assert all(run.verdicts)
    assert run.network._edges_cache is None
