# lint-as: src/repro/routing/loads.py
"""REP503 fixture: per-arc quantities keyed by arc name beside the index's vectors."""

import numpy as np


def loads_by_name(topology, routing, demands):
    loads = {key: 0.0 for key in topology.arc_keys()}  # expect: REP503
    for pair, demand in demands.items():
        for arc in routing.path(*pair).arc_keys():
            loads[arc] += demand
    return loads


def as_dicts(topology, vector):
    index = topology.index()
    named = dict(zip(index.arc_keys, vector.tolist(), strict=True))  # expect: REP503
    zeros = dict.fromkeys(topology.arc_keys(), 0.0)  # expect: REP503
    return named, zeros


def on_the_index(topology, paths, volumes):
    index = topology.index()
    loads = np.zeros(index.num_arcs)
    for path, volume in zip(paths, volumes, strict=True):
        loads[index.compile_path(path).arc_indices] += volume
    hops = [len(path.arc_keys()) for path in paths]
    by_pair = {path.nodes: count for path, count in zip(paths, hops, strict=True)}
    return loads, by_pair
