# lint-as: src/repro/topology/generators.py
"""REP503 fixture: the random-topology generators own the networkx import."""

import networkx as nx


def ring(size):
    return nx.cycle_graph(size)
