"""Graph triangulation -- step two of the compilation pipeline.

Message passing requires a *chordal* (triangulated) graph: every cycle
of length > 3 must have a chord.  Triangulation quality drives inference
cost -- the state space of the largest clique is the exponential term --
so the elimination order matters.  Two standard greedy heuristics are
provided:

- ``min_fill``: eliminate the node adding the fewest fill-in edges
  (usually the best tables-size results; the default).
- ``min_degree`` (a.k.a. min-neighbors): eliminate the lowest-degree
  node; cheaper to compute, often slightly worse.

Both are weighted variants: ties break on the smallest resulting clique
*state space* given per-node cardinalities, then lexicographically, so
results are deterministic.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.errors import CliqueBudgetExceeded


def _fill_in_edges(adjacency: Dict[str, Set[str]], node: str) -> List[Tuple[str, str]]:
    """Fill-ins created by eliminating ``node`` from the working graph."""
    neighbors = sorted(adjacency[node])
    fills = []
    for i in range(len(neighbors)):
        for j in range(i + 1, len(neighbors)):
            u, v = neighbors[i], neighbors[j]
            if v not in adjacency[u]:
                fills.append((u, v))
    return fills


def _fill_in_count(adjacency: Dict[str, Set[str]], node: str) -> int:
    """Number of fill-ins for eliminating ``node`` (set-intersection fast path)."""
    neighbors = adjacency[node]
    degree = len(neighbors)
    # Each existing edge inside the neighborhood is counted twice.
    present = sum(len(adjacency[u] & neighbors) for u in neighbors)
    return degree * (degree - 1) // 2 - present // 2


def _clique_weight(
    adjacency: Dict[str, Set[str]], node: str, cardinality: Callable[[str], int]
) -> float:
    """Log state-space of the clique formed by eliminating ``node``."""
    weight = math.log(cardinality(node))
    for neighbor in adjacency[node]:
        weight += math.log(cardinality(neighbor))
    return weight


def find_elimination_order(
    graph: nx.Graph,
    heuristic: str = "min_fill",
    cardinalities: Optional[Dict[str, int]] = None,
    max_clique_states: Optional[int] = None,
) -> List[str]:
    """Greedy elimination order for ``graph``.

    Parameters
    ----------
    graph:
        Undirected graph (typically a moral graph).
    heuristic:
        ``"min_fill"`` or ``"min_degree"``.
    cardinalities:
        Optional per-node state counts used for tie-breaking by clique
        state space (all nodes default to 2).
    max_clique_states:
        If given, raise :class:`~repro.errors.CliqueBudgetExceeded` at
        the first elimination clique over this many states: exactly
        when the largest maximal clique is, since every maximal clique
        is an elimination clique.  Orders that fit are unchanged.
    """
    if heuristic not in ("min_fill", "min_degree"):
        raise ValueError(f"unknown heuristic {heuristic!r}")
    cards = cardinalities or {}

    def card(node: str) -> int:
        return cards.get(node, 2)

    adjacency: Dict[str, Set[str]] = {n: set(graph.neighbors(n)) for n in graph.nodes}
    uniform_cards = len({card(n) for n in adjacency}) <= 1

    def metric(node: str):
        if heuristic == "min_fill":
            primary = _fill_in_count(adjacency, node)
        else:
            primary = len(adjacency[node])
        if uniform_cards:
            # All state counts equal: clique weight reduces to its size.
            secondary = float(len(adjacency[node]))
        else:
            secondary = _clique_weight(adjacency, node, card)
        return (primary, secondary, node)

    # Cache per-node keys; after each elimination only nodes within two
    # hops of the eliminated node can change, so only they are rescored.
    keys: Dict[str, tuple] = {n: metric(n) for n in adjacency}
    order: List[str] = []
    while adjacency:
        best = None
        best_key = None
        for node, key in keys.items():
            if best_key is None or key < best_key:
                best, best_key = node, key
        neighborhood = set(adjacency[best])
        if max_clique_states is not None:
            states = card(best)
            for neighbor in neighborhood:
                states *= card(neighbor)
            if states > max_clique_states:
                raise CliqueBudgetExceeded(
                    f"eliminating {best!r} forms a clique of {states} "
                    f"entries (budget {max_clique_states})"
                )
        for u, v in _fill_in_edges(adjacency, best):
            adjacency[u].add(v)
            adjacency[v].add(u)
        for neighbor in neighborhood:
            adjacency[neighbor].discard(best)
        del adjacency[best]
        del keys[best]
        order.append(best)
        dirty = set(neighborhood)
        for neighbor in neighborhood:
            dirty.update(adjacency[neighbor])
        dirty &= set(keys)
        for node in dirty:
            keys[node] = metric(node)
    return order


def triangulate(
    graph: nx.Graph,
    order: Optional[Sequence[str]] = None,
    heuristic: str = "min_fill",
    cardinalities: Optional[Dict[str, int]] = None,
) -> Tuple[nx.Graph, List[str], List[Tuple[str, str]]]:
    """Triangulate ``graph`` along an elimination order.

    Returns ``(chordal_graph, order, fill_in_edges)``.  The input graph
    is not modified.
    """
    if order is None:
        order = find_elimination_order(graph, heuristic, cardinalities)
    else:
        order = list(order)
        if set(order) != set(graph.nodes) or len(order) != graph.number_of_nodes():
            raise ValueError("order must be a permutation of the graph nodes")

    chordal = graph.copy()
    adjacency: Dict[str, Set[str]] = {n: set(chordal.neighbors(n)) for n in chordal.nodes}
    fills: List[Tuple[str, str]] = []
    for node in order:
        for u, v in _fill_in_edges(adjacency, node):
            adjacency[u].add(v)
            adjacency[v].add(u)
            chordal.add_edge(u, v)
            fills.append((u, v))
        for neighbor in adjacency[node]:
            adjacency[neighbor].discard(node)
        del adjacency[node]
    return chordal, list(order), fills


def elimination_cliques(
    graph: nx.Graph, order: Sequence[str]
) -> List[frozenset]:
    """Maximal cliques of a graph chordalized along ``order``.

    Walks the elimination order collecting each node's eliminated
    neighborhood clique, then drops non-maximal ones.  ``graph`` must
    already be chordal with respect to ``order`` (i.e. the output of
    :func:`triangulate`), in which case the result is exactly the set of
    maximal cliques.
    """
    adjacency: Dict[str, Set[str]] = {n: set(graph.neighbors(n)) for n in graph.nodes}
    raw: List[frozenset] = []
    for node in order:
        clique = frozenset(adjacency[node] | {node})
        raw.append(clique)
        for neighbor in adjacency[node]:
            adjacency[neighbor].discard(node)
        del adjacency[node]
    # Keep only maximal cliques (dedupe subsets).
    raw.sort(key=len, reverse=True)
    maximal: List[frozenset] = []
    for clique in raw:
        if not any(clique < kept or clique == kept for kept in maximal):
            maximal.append(clique)
    return maximal


def is_chordal(graph: nx.Graph) -> bool:
    """True if every cycle of length > 3 has a chord."""
    return nx.is_chordal(graph)


def max_clique_state_space(
    cliques: Iterable[frozenset], cardinalities: Dict[str, int]
) -> int:
    """Largest clique table size under the given cardinalities."""
    largest = 1
    for clique in cliques:
        size = 1
        for node in clique:
            size *= cardinalities.get(node, 2)
        largest = max(largest, size)
    return largest
