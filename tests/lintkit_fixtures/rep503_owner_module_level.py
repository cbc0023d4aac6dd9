# lint-as: src/repro/topology/generators.py
"""REP503 fixture: the owner of networkx imports it at module level, so every
importer of the generators pays for it."""

import networkx as nx  # expect: REP503
from networkx.generators import random_graphs  # expect: REP503


def ring(size):
    return nx.cycle_graph(size)


def sparse(size, seed):
    return random_graphs.gnp_random_graph(size, 0.1, seed=seed)
