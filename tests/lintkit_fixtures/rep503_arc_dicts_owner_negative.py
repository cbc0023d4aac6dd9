# lint-as: src/repro/simulator/reference.py
"""REP503 fixture: the simulator's dict oracle keeps its name-keyed loads."""


def reference_loads(network, flows):
    loads = {key: 0.0 for key in network.topology.arc_keys()}
    for flow in flows:
        for arc in flow.path.arc_keys():
            loads[arc] += flow.rate_bps
    return loads
