"""Iterative boundary refinement across the segment graph.

The spanning-forest boundary model (:mod:`.boundary`) can only carry a
pairwise joint when some single upstream segment knows it -- two
boundary lines owned by *different* segments always cross the cut
independently, and that is exactly the error source the paper reports
for its segmented benchmarks.

Refinement closes that gap with *glue estimators*.  At compile time
(``refine > 0``) the boundary forest of every segment is augmented with
cross-provider edges (:func:`augment_boundary_forest`); each such edge
gets a small **glue cone** -- the union of the two lines' truncated
fanin cones -- compiled once into an exact support-enumeration segment
(:class:`~repro.core.enumeration.EnumerationSegment`).  At estimate
time, after the ordinary forward pass, the refinement loop:

1. reads every glue cone's pair joint against the *current* published
   marginals (its frontier lines carry the latest ``known`` values) in
   one stacked enumeration call per edge, calibrates all edges' 4x4
   joints to the published marginals in one batched iterative
   proportional fitting call over the ``(E * K, 4, 4)`` stack, and
   turns the stack into ``P(child | parent)`` boundary conditionals in
   one call;
2. re-propagates every segment whose boundary factors or boundary
   input marginals changed (each one full pass over that segment's
   compiled tree: only input CPDs change, so nothing recompiles),
   cascading dirtiness down the segment DAG;
3. repeats until the maximum boundary-belief delta drops below
   ``refine_tol`` or the ``refine`` iteration budget is reached.

Dirtiness and the stop test are kept per scenario row, so row ``k`` of
a K-scenario run is bitwise equal to a one-scenario run of scenario
``k``.

A fixed point exists because the circuit DAG is feed-forward: glue
frontier marginals converge as their owners converge, so deltas
attenuate monotonically in practice (oscillation is possible only
through the marginal-calibration feedback, and is bounded by the
``refine`` budget; see DESIGN.md section 14).  Per-iteration progress is
observable through the ``segmented.refine`` /
``segmented.refine.iteration`` spans and the ``seg.refine.iterations``
/ ``seg.refine.delta`` gauges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.netlist import Circuit
from repro.core.inputs import InputStack
from repro.core.states import N_STATES
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer

from repro.core.segments.boundary import (
    FixedMarginalInputs,
    SegmentInputs,
    boundary_conditional,
    check_marginals,
)
from repro.core.segments.partition import (
    SegmentRegistry,
    cone_overlap,
    provider_has_joint,
)

__all__ = [
    "BoundaryRefiner",
    "GlueEdge",
    "augment_boundary_forest",
    "calibrate_joint",
    "plan_glue_cone",
]

#: Input budget of one glue cone: ``4^GLUE_MAX_INPUTS`` support rows.
GLUE_MAX_INPUTS = 7
#: Support budget of one glue cone's enumeration (``4 ** 7`` rows);
#: glue edges whose cone cannot fit are dropped from the forest.
GLUE_STATES = N_STATES ** GLUE_MAX_INPUTS
#: Gate budget of one glue cone (enumeration cost is rows x gates).
GLUE_MAX_GATES = 192
#: Backward-expansion depth limit when growing a glue cone.
GLUE_MAX_DEPTH = 10
#: Cap on glue edges grafted onto one segment's boundary forest.
GLUE_EDGE_LIMIT = 16


def plan_glue_cone(
    circuit: Circuit,
    parent: str,
    child: str,
    max_inputs: int = GLUE_MAX_INPUTS,
    max_gates: int = GLUE_MAX_GATES,
    max_depth: int = GLUE_MAX_DEPTH,
) -> Optional[Tuple[str, ...]]:
    """Gate-output lines of the glue cone for a boundary pair, or None.

    Starting from the two lines' driving gates, whole backward levels
    are folded in while the cone's *input* count stays within
    ``max_inputs`` (enumeration cost is ``4^inputs``) and its gate
    count within ``max_gates``.  The deeper the cone, the more shared
    ancestry -- hence cross-cut correlation -- it recovers exactly.
    """

    def frontier_of(lines: set) -> set:
        sources = set()
        for line in lines:
            for src in circuit.driver(line).inputs:
                if src not in lines:
                    sources.add(src)
        return sources

    lines = {parent, child}
    frontier = frontier_of(lines)
    if len(frontier) > max_inputs:
        return None
    for _ in range(max_depth):
        expandable = {ln for ln in frontier if circuit.driver(ln) is not None}
        if not expandable:
            break
        candidate = lines | expandable
        if len(candidate) > max_gates:
            break
        new_frontier = frontier_of(candidate)
        if len(new_frontier) > max_inputs:
            break
        lines = candidate
        frontier = new_frontier
    return tuple(sorted(lines))


def augment_boundary_forest(
    circuit: Circuit,
    inputs: Sequence[str],
    registry: SegmentRegistry,
    cone_cache: Dict[str, frozenset],
) -> Tuple[Dict[str, str], frozenset, Dict[str, Tuple[str, ...]]]:
    """Boundary forest with cross-provider glue edges grafted on.

    The *live* spanning forest -- same-provider pairs whose joint a
    single upstream segment can answer -- is built first, exactly as in
    :func:`~repro.core.segments.partition.boundary_forest`, and every
    live edge is kept: a live joint is strictly better information than
    a glue approximation, and preserving the live forest means the base
    pass (before any refinement iteration) matches the ``refine=0``
    scheme.  Glue edges are then grafted *between* live components
    (Kruskal order: largest cone overlap first), each carrying a
    feasible glue-cone plan; a glue edge therefore connects exactly the
    pairs that previously crossed the cut independently.  Returns
    ``(parent_of, glue_children, glue_plans)``; with no feasible glue
    candidates this degrades to the plain same-provider forest.
    """
    import networkx as nx

    provided: List[str] = []
    provider_of_line: Dict[str, object] = {}
    for line in inputs:
        provider = registry.provider_of(line)
        if provider is not None:
            provided.append(line)
            provider_of_line[line] = provider

    live = nx.Graph()
    for a, b in itertools.combinations(provided, 2):
        if provider_of_line[a] is not provider_of_line[b]:
            continue
        if not provider_has_joint(provider_of_line[a], a, b):
            continue
        weight = cone_overlap(circuit, a, b, cone_cache)
        if weight > 0:
            live.add_edge(a, b, weight=weight)

    forest = nx.Graph()
    forest.add_nodes_from(provided)
    forest.add_edges_from(nx.maximum_spanning_edges(live, data=False))

    candidates: List[Tuple[int, str, str]] = []
    for a, b in itertools.combinations(provided, 2):
        if live.has_edge(a, b):
            continue
        weight = cone_overlap(circuit, a, b, cone_cache)
        if weight > 0:
            candidates.append((weight, a, b))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))

    component: Dict[str, int] = {}
    for idx, members in enumerate(nx.connected_components(forest)):
        for line in members:
            component[line] = idx
    glue_pairs: Dict[frozenset, Tuple[str, ...]] = {}
    budget = GLUE_EDGE_LIMIT
    for weight, a, b in candidates:
        if budget <= 0:
            break
        if component[a] == component[b]:
            continue
        plan = plan_glue_cone(circuit, a, b)
        if plan is None:
            continue
        forest.add_edge(a, b)
        merged, absorbed = component[a], component[b]
        for line, idx in component.items():
            if idx == absorbed:
                component[line] = merged
        glue_pairs[frozenset((a, b))] = plan
        budget -= 1

    parent_of: Dict[str, str] = {}
    glue_children: set = set()
    glue_plans: Dict[str, Tuple[str, ...]] = {}
    for members in nx.connected_components(forest):
        # A fixed root keeps the forest's orientation -- and with it the
        # estimate -- independent of set iteration order (hash seed).
        root = min(members)
        for parent, child in nx.bfs_edges(forest, root):
            parent_of[child] = parent
            plan = glue_pairs.get(frozenset((parent, child)))
            if plan is not None:
                glue_children.add(child)
                glue_plans[child] = plan
    return parent_of, frozenset(glue_children), glue_plans


def calibrate_joint(
    joints: np.ndarray,
    row_marginals: np.ndarray,
    col_marginals: np.ndarray,
    iters: int = 32,
    tol: float = 1e-12,
) -> np.ndarray:
    """IPF-calibrate an ``(N, 4, 4)`` stack of joints to the published
    ``(N, 4)`` row and column marginals.

    A glue cone's joint carries the *correlation structure* of the
    pair, but its marginals reflect the cone's truncated view of the
    circuit; the published marginals from full segment propagation are
    strictly better.  Iterative proportional fitting keeps the cone's
    odds ratios while matching both marginals.  A tiny independent
    floor ensures states the marginals support are reachable.  Each
    joint stops at the first sweep after which its row sums are within
    ``tol`` of its row marginal (or after ``iters`` sweeps), so its
    arithmetic does not depend on the other joints of the stack.
    """
    row_marginals = np.asarray(row_marginals, dtype=np.float64)
    col_marginals = np.asarray(col_marginals, dtype=np.float64)
    fitted = np.asarray(joints, dtype=np.float64) + 1e-12 * (
        np.maximum(row_marginals, 1e-9)[:, :, None]
        * np.maximum(col_marginals, 1e-9)[:, None, :]
    )
    fitted /= fitted.reshape(len(fitted), -1).sum(axis=1)[:, None, None]
    active = np.arange(len(fitted))
    for _ in range(iters):
        part, row, col = fitted[active], row_marginals[active], col_marginals[active]
        rows = part.sum(axis=2)
        part *= np.where(rows > 0, row / np.maximum(rows, 1e-300), 1.0)[:, :, None]
        cols = part.sum(axis=1)
        part *= np.where(cols > 0, col / np.maximum(cols, 1e-300), 1.0)[:, None, :]
        fitted[active] = part
        active = active[~(np.abs(part.sum(axis=2) - row).max(axis=1) <= tol)]
        if not active.size:
            break
    return fitted


@dataclass
class GlueEdge:
    """One cross-provider boundary-forest edge and its glue estimator."""

    index: int  # consumer segment whose forest carries the edge
    parent: str
    child: str
    estimator: object  # EnumerationSegment over the glue cone
    primary: Tuple[str, ...]  # cone inputs that are circuit primaries
    internal: Tuple[str, ...]  # cone inputs published by segments

    def pair_joints(
        self, known: Dict[str, np.ndarray], stack: InputStack
    ) -> np.ndarray:
        """The ``(K, 4, 4)`` stack of raw glue-cone pair joints.

        One stacked enumeration call reads the pair joint for all K
        scenarios over the cone's input tables -- ``stack``'s for its
        primary inputs, then the published ``known`` marginals of the
        rest (validated by the caller).
        """
        pair = (self.parent, self.child)
        tables, parents = stack.tables(self.primary)
        tables.update((ln, known[ln]) for ln in self.internal)
        _, joints, _ = self.estimator.estimate_many_stacked(
            tables, (), [pair], parents, len(stack)
        )
        return joints[pair]


class BoundaryRefiner:
    """Every glue edge of a segmentation, in consumer-segment order.

    Built once at compile time (``refine > 0``); serialized with the
    estimator, so loaded artifacts refine without recompiling.
    """

    def __init__(self, edges: List[GlueEdge]):
        self.edges = edges

    def __len__(self) -> int:
        return len(self.edges)

    @staticmethod
    def build(estimator) -> "BoundaryRefiner":
        """Compile the glue cones planned during partitioning."""
        from repro.core.enumeration import EnumerationSegment

        circuit = estimator.circuit
        edges: List[GlueEdge] = []
        for index, node in enumerate(estimator.graph.nodes):
            for child in sorted(node.glue_children):
                parent = node.parent_of[child]
                plan = node.glue_plans[child]
                sources = {
                    src
                    for line in plan
                    for src in circuit.driver(line).inputs
                }
                cone = circuit.subcircuit(
                    sorted(set(plan) | sources, key=estimator._position.__getitem__),
                    name=f"{circuit.name}.glue{index}.{child}",
                )
                primary = tuple(
                    ln for ln in cone.inputs if circuit.driver(ln) is None
                )
                internal = tuple(
                    ln for ln in cone.inputs if circuit.driver(ln) is not None
                )
                uniform = {ln: np.full(N_STATES, 0.25) for ln in internal}
                glue_est = EnumerationSegment(
                    cone,
                    SegmentInputs(
                        estimator.input_model, primary, FixedMarginalInputs(uniform)
                    ),
                    max_input_states=GLUE_STATES,
                    keep_lines={parent, child},
                )
                edges.append(
                    GlueEdge(index, parent, child, glue_est, primary, internal)
                )
        return BoundaryRefiner(edges)

# ----------------------------------------------------------------------
# The refinement loop
# ----------------------------------------------------------------------


def run_refinement(
    estimator,
    known: Dict[str, np.ndarray],
    joints: Dict[Tuple[str, str], np.ndarray],
    stack: InputStack,
) -> Tuple[np.ndarray, np.ndarray]:
    """Refine ``known`` and ``joints`` in place; returns the ``(K,)``
    arrays ``(iterations, last_delta)`` of each scenario.

    ``known`` maps each line to a ``(K, 4)`` stack over the K scenarios
    of ``stack`` and ``joints`` each published boundary pair to a
    ``(K, 4, 4)`` stack, exactly as the forward pass left them.  Every
    scenario keeps its own loop state: a segment's row is re-propagated
    only when that row is dirty, and a row stops iterating once its own
    delta is within ``refine_tol``, so row ``k`` ends exactly where a
    one-scenario run of scenario ``k`` would.
    """
    rows = len(stack)
    iterations = np.zeros(rows, dtype=np.int64)
    deltas = np.zeros(rows)
    refiner: Optional[BoundaryRefiner] = estimator._refiner
    budget = estimator.refine
    if refiner is None or not refiner.edges or budget <= 0:
        return iterations, deltas
    tracer = get_tracer()
    metrics = get_metrics()
    tol = estimator.refine_tol
    #: belief changes below this neither cascade nor count as progress
    prune = max(tol * 1e-2, 1e-13)
    prev_tables: Dict[Tuple[int, str], np.ndarray] = {}
    active = np.ones(rows, dtype=bool)
    with tracer.span(
        "segmented.refine",
        circuit=estimator.circuit.name,
        glue_edges=len(refiner.edges),
        refine=budget,
        backend="segmented",
    ) as span:
        for iteration in range(budget):
            with tracer.span(
                "segmented.refine.iteration", iteration=iteration
            ) as it_span:
                glue_tables, delta_glue, dirty = _evaluate_glue(
                    refiner, known, stack, prev_tables, prune, active
                )
                delta_lines = _repropagate(
                    estimator, known, joints, stack, dirty, glue_tables, prune
                )
                delta = np.maximum(delta_glue, delta_lines)
                iterations[active] += 1
                deltas[active] = delta[active]
                worst = float(delta[active].max())
                it_span.annotate(delta=worst, dirty_segments=len(dirty))
                if metrics.enabled:
                    metrics.gauge("seg.refine.delta").set(worst)
                active &= ~(delta <= tol)
                if not active.any():
                    break
        span.annotate(iterations=int(iterations.max()), delta=float(deltas.max()))
    if metrics.enabled:
        metrics.gauge("seg.refine.iterations").set(int(iterations.max()))
    return iterations, deltas


def _evaluate_glue(
    refiner: BoundaryRefiner, known, stack, prev_tables, prune, active
):
    """Evaluate every glue cone; return (tables by consumer, ``(K,)``
    max table delta, dirty consumer index -> ``(K,)`` row mask).

    Every edge's raw ``(K, 4, 4)`` joints are calibrated in one
    :func:`calibrate_joint` call over the ``(E * K, 4, 4)`` stack and
    turned into conditionals by one :func:`boundary_conditional` call.
    Only ``active`` rows can be dirty.
    """
    edges = refiner.edges
    check_marginals({ln: known[ln] for edge in edges for ln in edge.internal})
    raw = np.concatenate([edge.pair_joints(known, stack) for edge in edges])
    parents = np.concatenate([known[edge.parent] for edge in edges])
    children = np.concatenate([known[edge.child] for edge in edges])
    tables = boundary_conditional(calibrate_joint(raw, parents, children), children)
    glue_tables: Dict[int, Dict[str, np.ndarray]] = {}
    rows = len(stack)
    delta_glue = np.zeros(rows)
    dirty: Dict[int, np.ndarray] = {}
    for position, edge in enumerate(edges):
        table = tables[position * rows:(position + 1) * rows]
        key = (edge.index, edge.child)
        prev = prev_tables.get(key)
        if prev is None:
            # The base pass baked the independent placeholder: the
            # child's prior tiled over parent states.
            child_prior = np.asarray(known[edge.child], dtype=np.float64)
            prev = np.repeat(child_prior[:, None, :], N_STATES, axis=1)
        table_delta = np.abs(table - prev).max(axis=(1, 2))
        delta_glue = np.maximum(delta_glue, table_delta)
        prev_tables[key] = table
        glue_tables.setdefault(edge.index, {})[edge.child] = table
        moved = active & (table_delta > prune)
        if moved.any():
            dirty[edge.index] = dirty.get(edge.index, False) | moved
    return glue_tables, delta_glue, dirty


def _repropagate(estimator, known, joints, stack, dirty, glue_tables, prune):
    """One topological sweep re-propagating dirty segments; returns the
    ``(K,)`` max published-belief delta.  Dirtiness cascades per row: a
    segment's row is dirty when its glue tables changed in that row or
    any of its boundary inputs moved more than the prune threshold
    there.  A segment with any dirty row propagates every row, and
    only its dirty rows are written back."""
    changed: Dict[str, np.ndarray] = {}
    delta_lines = np.zeros(len(stack))
    for index in range(len(estimator.graph)):
        rows = dirty.get(index)
        for line in estimator.graph[index].segment.inputs:
            if line in changed:
                rows = changed[line] if rows is None else rows | changed[line]
        if rows is None:
            continue
        marginals, published = estimator._propagate_segment_batch(
            index, known, joints, stack, glue_tables=glue_tables.get(index)
        )
        for pair, joint in published.items():
            joints[pair] = np.where(rows[:, None, None], joint, joints[pair])
        for line, value in marginals.items():
            value = np.where(rows[:, None], value, known[line])
            line_delta = np.abs(value - known[line]).max(axis=1)
            known[line] = value
            moved = line_delta > prune
            if moved.any():
                changed[line] = moved
            delta_lines = np.maximum(delta_lines, line_delta)
    return delta_lines
