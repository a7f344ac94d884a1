"""Cut discovery and segment-DAG construction.

The partitioning pipeline is pure structure -- no probabilities touch
it -- and lives here as free functions over a :class:`Circuit`:

1. :func:`cone_clustered_order` linearizes the gate-output lines in DFS
   post-order from the outputs, so contiguous chunks follow output
   *cones* (narrow vertical slices) instead of full-width level bands;
2. the chunks (fixed gate count for junction-tree segments,
   :func:`partition_by_inputs` for enumeration segments) expand with
   :func:`expand_with_lookback` levels of duplicated upstream logic;
3. each compiled segment registers with a :class:`SegmentRegistry`,
   which resolves boundary *providers* (who publishes a line) for the
   spanning-forest construction in :func:`boundary_forest`;
4. the finished registry freezes into a :class:`SegmentGraph` -- the
   explicit segment DAG (nodes and line ownership) that propagation and
   iterative refinement walk in registration order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.netlist import Circuit
from repro.core.states import N_STATES

__all__ = [
    "SegmentGraph",
    "SegmentNode",
    "SegmentRegistry",
    "boundary_forest",
    "cone_clustered_order",
    "cone_overlap",
    "expand_with_lookback",
    "partition_by_inputs",
    "provider_has_joint",
    "truncated_cone",
]


# ----------------------------------------------------------------------
# Linearization and chunking
# ----------------------------------------------------------------------


def cone_clustered_order(circuit: Circuit) -> List[str]:
    """Gate-output lines in DFS post-order from the primary outputs.

    Post-order is a valid topological order (a gate's sources always
    precede it) whose contiguous ranges follow output *cones* --
    narrow vertical slices of the circuit -- rather than full-width
    level bands.  Chunking this order keeps per-segment moral-graph
    treewidth near the cone width instead of the circuit width,
    which is what makes large shallow circuits compile.
    """
    visited: set = set()
    order: List[str] = []
    roots = list(circuit.outputs) + circuit.internal_lines
    for root in roots:
        if root in visited:
            continue
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            gate = circuit.driver(node)
            if gate is None:
                continue  # primary inputs are not chunked
            stack.append((node, True))
            for src in gate.inputs:
                if src not in visited:
                    stack.append((src, False))
    return order


def expand_with_lookback(circuit: Circuit, chunk: Sequence[str], lookback: int) -> set:
    """Chunk lines plus ``lookback`` levels of duplicated upstream gates."""
    expanded = set(chunk)
    frontier = set(chunk)
    for _ in range(lookback):
        next_frontier = set()
        for line in frontier:
            gate = circuit.driver(line)
            if gate is None:
                continue
            for src in gate.inputs:
                if src not in expanded and circuit.driver(src) is not None:
                    next_frontier.add(src)
        expanded |= next_frontier
        frontier = next_frontier
    return expanded


def partition_by_inputs(
    circuit: Circuit, order: List[str], enum_input_states: int
) -> List[List[str]]:
    """Greedy cone-order partition bounded by external-input count.

    Enumeration cost is ``4^inputs`` regardless of segment size, so
    segments grow until adding the next gate would push the external
    input set past the budget.
    """
    max_inputs = int(np.log(enum_input_states) / np.log(N_STATES))
    chunks: List[List[str]] = []
    current: List[str] = []
    produced: set = set()
    external: set = set()
    for line in order:
        gate = circuit.driver(line)
        new_external = {s for s in gate.inputs if s not in produced}
        if current and len(external | new_external) > max_inputs:
            chunks.append(current)
            current = []
            produced = set()
            external = set()
            new_external = set(gate.inputs)
        current.append(line)
        produced.add(line)
        external |= new_external
    if current:
        chunks.append(current)
    return chunks


# ----------------------------------------------------------------------
# Structural correlation proxies
# ----------------------------------------------------------------------


def truncated_cone(
    circuit: Circuit, line: str, depth: int, cache: Dict[str, frozenset]
) -> frozenset:
    """Fanin cone of ``line`` truncated at ``depth`` levels, memoized."""
    cached = cache.get(line)
    if cached is not None:
        return cached
    cone = {line}
    frontier = {line}
    for _ in range(depth):
        next_frontier = set()
        for ln in frontier:
            gate = circuit.driver(ln)
            if gate is not None:
                next_frontier.update(
                    src for src in gate.inputs if src not in cone
                )
        cone |= next_frontier
        frontier = next_frontier
    result = frozenset(cone)
    cache[line] = result
    return result


def cone_overlap(
    circuit: Circuit,
    a: str,
    b: str,
    cache: Dict[str, frozenset],
    depth: int = 8,
) -> int:
    """Size of the shared truncated fanin cone -- a cheap structural
    proxy for the correlation strength of two lines."""
    return len(
        truncated_cone(circuit, a, depth, cache)
        & truncated_cone(circuit, b, depth, cache)
    )


def provider_has_joint(provider_estimator, a: str, b: str) -> bool:
    """Can the provider supply the joint of two of its lines?"""
    from repro.core.enumeration import EnumerationSegment

    if isinstance(provider_estimator, EnumerationSegment):
        return True  # enumeration can join any pair it retained
    cliques = provider_estimator.junction_tree.cliques
    pair = {a, b}
    return any(pair <= clique for clique in cliques)


def boundary_forest(
    circuit: Circuit,
    inputs: Sequence[str],
    registry: "SegmentRegistry",
    cone_cache: Dict[str, frozenset],
) -> Dict[str, str]:
    """Spanning forest over segment inputs whose pairwise joints are
    available upstream, weighted by shared-fanin-cone size.

    Only *same-provider* pairs qualify: the joint of two lines owned by
    different segments does not exist anywhere upstream.  The iterative
    refinement mode grafts cross-provider *glue* edges onto this forest
    (see :mod:`repro.core.segments.refine`).
    """
    import itertools

    import networkx as nx

    by_provider: Dict[int, List[str]] = {}
    providers: Dict[int, object] = {}
    for line in inputs:
        provider = registry.provider_of(line)
        if provider is not None:
            by_provider.setdefault(id(provider), []).append(line)
            providers[id(provider)] = provider

    graph = nx.Graph()
    for key, lines in by_provider.items():
        if len(lines) < 2:
            continue
        provider_estimator = providers[key]
        for a, b in itertools.combinations(lines, 2):
            if provider_has_joint(provider_estimator, a, b):
                weight = cone_overlap(circuit, a, b, cone_cache)
                if weight > 0:
                    graph.add_edge(a, b, weight=weight)

    parent_of: Dict[str, str] = {}
    forest = nx.Graph()
    forest.add_edges_from(nx.maximum_spanning_edges(graph, data=False))
    for component in nx.connected_components(forest):
        # A fixed root keeps the forest's orientation independent of
        # set iteration order (hash seed).
        root = min(component)
        for parent, child in nx.bfs_edges(forest, root):
            parent_of[child] = parent
    return parent_of


# ----------------------------------------------------------------------
# The segment graph
# ----------------------------------------------------------------------


@dataclass
class SegmentNode:
    """One compiled segment: its subcircuit, estimator, and cut data.

    ``owned`` is the set of lines this segment publishes (duplicated
    lookback gates are excluded); ``parent_of`` is the boundary forest
    over the segment's *input* lines, and ``glue_children`` marks the
    subset of forest children whose edge crosses providers -- their
    conditionals come from a glue estimator during refinement instead
    of an upstream joint.  ``boundary_pairs`` lists the ``(parent,
    child)`` pairs of *other* segments' forests whose joint this
    segment publishes next to its marginals (set by
    :class:`SegmentGraph`).
    """

    segment: Circuit
    estimator: object
    owned: set
    parent_of: Dict[str, str]
    glue_children: frozenset = frozenset()
    #: child -> gate-output lines of its glue cone (compile-time plan;
    #: the cone's enumeration estimator is built once at finalize)
    glue_plans: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    boundary_pairs: List[Tuple[str, str]] = field(default_factory=list)


class SegmentRegistry:
    """Staging area for compiled segments.

    Registration order is the (deterministic) compile order, which is
    topological: a segment registers only after every segment that
    provides its inputs.
    """

    __slots__ = ("records", "_provider")

    def __init__(self):
        #: :class:`SegmentNode` entries in registration order
        self.records: List[SegmentNode] = []
        self._provider: Dict[str, object] = {}

    def provider_of(self, line: str):
        """The estimator that publishes ``line``, or None."""
        return self._provider.get(line)

    def add(
        self,
        segment: Circuit,
        estimator,
        owned: set,
        parent_of: Dict[str, str],
        glue_children: frozenset = frozenset(),
        glue_plans: Optional[Dict[str, Tuple[str, ...]]] = None,
    ) -> None:
        self.records.append(
            SegmentNode(
                segment, estimator, owned, parent_of, glue_children,
                glue_plans or {},
            )
        )
        for line in owned:
            self._provider[line] = estimator


class SegmentGraph:
    """The explicit segment DAG: nodes and line ownership.

    Edges run from the owner of a boundary line to every segment that
    consumes it.  Propagation and the refinement loop walk the nodes in
    registration order, a topological order of this DAG by construction:
    every input line owned by another segment is owned by a lower index.
    Every non-glue forest edge ``parent -> child`` is recorded in the
    ``boundary_pairs`` of the segment owning ``child`` (which owns
    ``parent`` too: live forest edges join same-provider lines).
    """

    def __init__(self, nodes: List[SegmentNode]):
        self.nodes = nodes
        self.owner: Dict[str, int] = {}
        for index, node in enumerate(nodes):
            for line in node.owned:
                self.owner[line] = index
        for node in nodes:
            for child, parent in node.parent_of.items():
                if child in node.glue_children:
                    continue
                pairs = nodes[self.owner[child]].boundary_pairs
                if (parent, child) not in pairs:
                    pairs.append((parent, child))

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __getitem__(self, index: int) -> SegmentNode:
        return self.nodes[index]
