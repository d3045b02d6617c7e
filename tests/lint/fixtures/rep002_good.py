# lint-fixture: src/repro/local/engine.py
"""Good REP002 fixture: array-native edge access stays silent."""


def vectorised(network, np):
    us, vs = network.edge_endpoints()
    degrees = np.bincount(us, minlength=network.n)
    for block in (us, vs):  # per-array loop, not per-edge
        degrees = degrees + block.size
    return degrees


def per_vertex_and_per_slot_loops(network, values):
    # Iterating vertices, or zipping the endpoint arrays of a few slots,
    # is not a scan of the tuple edge view.
    for i, v in enumerate(network.vertices):
        values[i] = v
    us, vs = network.edge_endpoints()
    return [(u, v) for u, v in zip(us[:5].tolist(), vs[:5].tolist())]


def cold_module_can_materialise(network):
    # The same calls are legal outside the hot-path module set; this file
    # only stays silent because the calls below are allow-listed.
    # repro-lint: allow[REP002] exercising the escape hatch in tests
    return list(network.edges())


def the_escape_hatch_covers_the_attribute_form_too(network):
    # repro-lint: allow[REP002] exercising the escape hatch in tests
    return [u for u, _ in network.edges]
