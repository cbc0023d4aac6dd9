"""Shortest-path searches over :class:`~repro.topology.index.TopologyIndex`.

Line-for-line ports of the networkx 3.6.1 routines the library used to call:
:func:`single_source_dijkstra` (``_dijkstra_multisource``, one source),
:func:`bidirectional_dijkstra`, :func:`shortest_simple_paths` (Yen, spurs by
``simple_paths._bidirectional_dijkstra``) and :func:`all_shortest_paths` (BFS
levels, then ``_build_paths_from_predecessors``).  Nodes and arcs are
integers, a weight is a list indexed by arc, an arc or node that is off is a
flag.  The answers equal networkx's, order included: neighbours are visited
in arc-insertion order (the order networkx held them in; a subgraph keeps its
parent's relative order, so a masked search equals the copy's), heap ties are
broken by a push counter, a predecessor changes only on a strict improvement
and costs are summed in networkx's order.  ``tests/test_search.py`` keeps
networkx as the reference.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..obs import metrics
from .index import TopologyIndex

NodePath = Tuple[int, ...]
_Preds = Tuple[Dict[int, int], Dict[int, int]]

_SEARCHES = metrics.counter(
    "repro_path_searches_total", "Shortest-path searches run over the topology index, by kind"
)
_SPUR = _SEARCHES.labels(kind="spur")
_PAIR = _SEARCHES.labels(kind="pair")
_SINGLE_SOURCE = _SEARCHES.labels(kind="single_source")
_BFS = _SEARCHES.labels(kind="bfs")


def single_source_dijkstra(
    index: TopologyIndex, source: int, weights: Sequence[float], arc_on: Optional[Sequence[bool]]
) -> List[int]:
    """The predecessor of every node on its shortest path from *source*
    (``-1`` for the source and for unreached nodes), over the arcs *arc_on*
    leaves on (``None``: all)."""
    _SINGLE_SOURCE.inc()
    adjacency = index.out_adjacency
    pred = [-1] * len(adjacency)
    dist: Dict[int, float] = {}
    seen: Dict[int, float] = {source: 0.0}
    counter = count(1)
    fringe: List[Tuple[float, int, int]] = [(0.0, 0, source)]
    while fringe:
        dist_v, _, v = heappop(fringe)
        if v in dist:
            continue
        dist[v] = dist_v
        for arc, u in adjacency[v]:
            if arc_on is not None and not arc_on[arc]:
                continue
            vu_dist = dist_v + weights[arc]
            if u in dist:
                continue
            if u not in seen or vu_dist < seen[u]:
                seen[u] = vu_dist
                heappush(fringe, (vu_dist, next(counter), u))
                pred[u] = v
    return pred


def walk_back(pred: Sequence[int], source: int, target: int) -> Optional[List[int]]:
    """The path *source* → *target* a predecessor list holds (``None``: unreached)."""
    if target != source and pred[target] < 0:
        return None
    path = [target]
    while pred[path[-1]] >= 0:
        path.append(pred[path[-1]])
    path.reverse()
    return path


def bidirectional_dijkstra(
    index: TopologyIndex, source: int, target: int, weights: Sequence[float]
) -> Optional[List[int]]:
    """The shortest path *source* → *target* under *weights* (``None``:
    unreachable)."""
    _PAIR.inc()
    node_off, arc_off = [False] * len(index.node_names), [False] * index.num_arcs
    found = _bidirectional(index, source, target, weights, node_off, arc_off)
    return None if found is None else _joined(found[1], found[2])


def _bidirectional(
    index: TopologyIndex,
    source: int,
    target: int,
    weights: Sequence[float],
    node_off: Sequence[bool],
    arc_off: Sequence[bool],
) -> Optional[Tuple[float, _Preds, int, List[int]]]:
    """A bidirectional Dijkstra hiding the flagged nodes and arcs: the length,
    both directions' predecessors and the meeting node as it ends (networkx's
    ``bidirectional_dijkstra`` joins its path from these), and the path as it
    was when the length was found (``_bidirectional_dijkstra``'s path)."""
    if node_off[source] or node_off[target]:
        return None
    if source == target:
        return 0.0, ({source: -1}, {target: -1}), source, [source]
    neighbours = (index.out_adjacency, index.in_adjacency)
    dists: Tuple[Dict[int, float], Dict[int, float]] = ({}, {})
    preds: _Preds = ({source: -1}, {target: -1})
    seen: Tuple[Dict[int, float], Dict[int, float]] = ({source: 0.0}, {target: 0.0})
    counter = count()
    fringe: Tuple[List[Tuple[float, int, int]], List[Tuple[float, int, int]]] = (
        [(0.0, next(counter), source)],
        [(0.0, next(counter), target)],
    )
    final_dist, meet, final_path = 0.0, -1, [source]  # meet < 0: no path met yet
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        done = dists[direction]
        if v in done:
            continue
        done[v] = dist
        if v in dists[1 - direction]:
            return final_dist, preds, meet, final_path
        seen_here, seen_there, pred = seen[direction], seen[1 - direction], preds[direction]
        for arc, w in neighbours[direction][v]:
            if arc_off[arc] or node_off[w]:
                continue
            vw_length = dist + weights[arc]
            if w in done:
                continue
            if w not in seen_here or vw_length < seen_here[w]:
                seen_here[w] = vw_length
                heappush(fringe[direction], (vw_length, next(counter), w))
                pred[w] = v
                if w in seen_there:
                    total = seen[0][w] + seen[1][w]
                    if meet < 0 or final_dist > total:
                        final_dist, meet = total, w
                        final_path = _joined(preds, w)
    return None


def _joined(preds: _Preds, meet: int) -> List[int]:
    """The forward chain to *meet*, then the backward chain from it."""
    forward, backward = preds
    path = [meet]
    while forward[path[-1]] >= 0:
        path.append(forward[path[-1]])
    path.reverse()
    node = backward[meet]
    while node >= 0:
        path.append(node)
        node = backward[node]
    return path


def shortest_simple_paths(
    index: TopologyIndex, source: int, target: int, weights: Sequence[float]
) -> Iterator[NodePath]:
    """Every simple path *source* → *target*, shortest first, by Yen's
    algorithm (nothing at all when *target* is unreachable).  Resumable: each
    path costs the spur searches from the prefixes of the one before."""
    arc_of = [{dst: arc for arc, dst in out} for out in index.out_adjacency]
    node_off = [False] * len(index.node_names)
    arc_off = [False] * index.num_arcs
    found: List[NodePath] = []
    candidates: List[Tuple[float, int, NodePath]] = []
    queued: Set[NodePath] = set()
    pushes = count()

    def push(cost: float, path: NodePath) -> None:
        if path not in queued:
            heappush(candidates, (cost, next(pushes), path))
            queued.add(path)

    _SPUR.inc()
    first = _bidirectional(index, source, target, weights, node_off, arc_off)
    if first is not None:
        push(first[0], tuple(first[3]))
    while candidates:
        _, _, path = heappop(candidates)
        queued.remove(path)
        yield path
        found.append(path)
        root_length = 0.0
        hidden: List[int] = []
        for i in range(1, len(path)):
            root = path[:i]
            if i > 1:
                root_length += weights[arc_of[path[i - 2]][path[i - 1]]]
            for other in found:
                if other[:i] == root:
                    arc = arc_of[other[i - 1]][other[i]]
                    arc_off[arc] = True
                    hidden.append(arc)
            spur = _bidirectional(index, root[-1], target, weights, node_off, arc_off)
            if spur is not None:
                push(root_length + spur[0], root[:-1] + tuple(spur[3]))
            node_off[root[-1]] = True
        _SPUR.inc(len(path) - 1)
        for node in path[:-1]:
            node_off[node] = False
        for arc in hidden:
            arc_off[arc] = False


def all_shortest_paths(index: TopologyIndex, source: int, target: int) -> List[List[int]]:
    """Every minimum-hop path *source* → *target* (empty: unreachable), in
    the order networkx's depth-first walk of the BFS predecessor lists
    yields them."""
    _BFS.inc()
    adjacency = index.out_adjacency
    level = 0
    next_level = [source]
    seen = {source: level}
    pred: Dict[int, List[int]] = {source: []}
    while next_level:
        level += 1
        this_level, next_level = next_level, []
        for v in this_level:
            for _, w in adjacency[v]:
                if w not in seen:
                    pred[w] = [v]
                    seen[w] = level
                    next_level.append(w)
                elif seen[w] == level:
                    pred[w].append(v)

    def ending_at(node: int) -> List[List[int]]:
        if node == source:
            return [[source]]
        return [path + [node] for before in pred[node] for path in ending_at(before)]

    return ending_at(target) if target in pred else []
