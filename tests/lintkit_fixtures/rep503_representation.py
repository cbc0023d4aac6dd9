# lint-as: src/repro/routing/graphs.py
"""REP503 fixture: a second graph and a second solver front end beside the index."""

import networkx as nx  # expect: REP503
import networkx.algorithms.shortest_paths  # expect: REP503
import numpy as np
import scipy.optimize  # expect: REP503
from networkx import shortest_simple_paths  # expect: REP503
from scipy import optimize  # expect: REP503
from scipy import sparse
from scipy.optimize import milp  # expect: REP503

from ..topology.search import shortest_simple_paths as on_the_index


def paths(topology, origin, destination):
    index = topology.index()
    return on_the_index(index, index.node_of(origin), index.node_of(destination), [1.0])


def reference(topology, origin, destination):
    import networkx  # expect: REP503

    return networkx.shortest_path(topology.to_networkx(), origin, destination)
