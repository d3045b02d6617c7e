# lint-fixture: src/repro/local/engine.py
"""Bad REP002 fixture: tuple-edge materialisation on a hot-path module."""


def per_edge_python(network, arrays):
    graph = network.to_networkx()  # expect[REP002]
    n, edges = arrays.as_edge_list()  # expect[REP002]
    pairs = arrays.as_pairs()  # expect[REP002]
    edge_view = list(network.edges())  # expect[REP002]
    total = 0
    for u, v in network.edges():  # expect[REP002]
        total += u + v
    weights = [u for u, _ in network.edges()]  # expect[REP002]
    return graph, n, edges, pairs, edge_view, total, weights


def per_edge_over_the_tuple_view(network, values):
    slots = tuple(network.edges)  # expect[REP002]
    for u, v in network.edges:  # expect[REP002]
        values[u] += v
    for i, (u, v) in enumerate(network.edges):  # expect[REP002]
        values[i] = u
    heads = {e: values[e[1]] for e in network.edges}  # expect[REP002]
    return slots, heads, any(v for _, (u, v) in enumerate(network.edges()))  # expect[REP002]
