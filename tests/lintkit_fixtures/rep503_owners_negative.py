# lint-as: src/repro/topology/generators.py
"""REP503 fixture: the random-topology generators import networkx where they use it."""


def ring(size):
    import networkx as nx

    return nx.cycle_graph(size)
