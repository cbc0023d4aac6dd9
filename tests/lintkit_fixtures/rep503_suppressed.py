# lint-as: src/repro/analysis/layout.py
"""REP503 fixture: a drawing helper that needs networkx's layout, said so."""

# repro: allow[REP503] spring layout for a figure, no path search
import networkx as nx  # expect-suppressed: REP503


def positions(graph):
    return nx.spring_layout(graph, seed=1)
