"""Multiple-BN estimation of large circuits (paper Section 6).

Circuits whose single junction tree would blow the clique budget are cut
into *segments* along the topological order.  Each segment becomes its
own LIDAG/junction tree; the 4-state marginals of the lines crossing a
segment boundary are computed in the upstream segment and handed to the
downstream segment as independent input priors.

This is exactly the paper's "preliminary segmentation scheme":
single-segment circuits are exact, while multi-segment circuits lose the
*joint* correlation of boundary lines (only their marginals cross the
cut), which is the error source the paper reports for its larger
benchmarks.  Two recovery mechanisms narrow that gap:

- ``boundary="tree"`` (default) hands a spanning forest of pairwise
  boundary joints across each cut (:mod:`.boundary`);
- ``refine > 0`` additionally iterates the whole segment graph to a
  fixed point, passing glue-cone joints across cuts no single upstream
  segment covers (:mod:`.refine`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bayesian.propagation import PropagationCounters, check_memory_budget
from repro.circuits.netlist import Circuit
from repro.core.backend.base import Method
from repro.errors import CliqueBudgetExceeded, MemoryBudgetExceeded
from repro.core.estimator import (
    SwitchingActivityEstimator,
    SwitchingEstimate,
    result_row_bytes,
)
from repro.core.inputs import IndependentInputs, InputModel, InputStack, as_input_stack
from repro.core.states import N_STATES
from repro.errors import SegmentBoundaryError
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer

from repro.core.segments.boundary import (
    FixedMarginalInputs,
    SegmentInputs,
    TreeBoundaryInputs,
    boundary_conditional,
    check_marginals,
)
from repro.core.segments.partition import (
    SegmentGraph,
    SegmentRegistry,
    boundary_forest,
    cone_clustered_order,
    expand_with_lookback,
    partition_by_inputs,
)
from repro.core.segments.refine import (
    BoundaryRefiner,
    augment_boundary_forest,
    run_refinement,
)

__all__ = ["SegmentedEstimator"]


class SegmentedEstimator:
    """Switching-activity estimation with multiple Bayesian networks.

    Parameters
    ----------
    circuit:
        The circuit to analyse.
    input_model:
        Primary-input statistics.  Note: across segment boundaries only
        marginals (or, in ``boundary="tree"`` mode, a spanning forest of
        pairwise joints) propagate, so spatial input correlation is
        preserved exactly only within a single segment.
    max_gates_per_segment:
        Initial segment granularity; segments whose junction tree would
        exceed ``max_clique_states`` are split in half recursively.
    max_clique_states:
        Per-segment clique table budget.
    lookback:
        Levels of upstream logic duplicated into each segment.  The
        duplicated cone re-creates reconvergent correlations close to
        the cut, shrinking the boundary-independence error at the cost
        of larger segments.  0 reproduces the naive scheme.
    boundary:
        ``"independent"`` hands only marginals across cuts (the paper's
        preliminary scheme); ``"tree"`` additionally carries a spanning
        forest of pairwise boundary joints (the paper's future-work
        segmentation, our default).
    enum_input_states:
        When a segment's junction tree would blow the clique budget but
        the segment has few *inputs*, fall back to exact support
        enumeration (:class:`~repro.core.enumeration.EnumerationSegment`)
        instead of splitting it -- deterministic CPTs make the segment's
        joint support only ``4^inputs`` large no matter the treewidth.
        This is the budget on that support size; 0 disables the fallback.
    backend:
        ``"auto"`` (default): junction trees with the enumeration
        fallback.  ``"jt"``: junction trees only (the paper's setup).
        ``"enum"``: every segment is enumerated; the partition greedily
        grows segments along the cone order until the *input-count*
        budget, which typically yields far fewer, larger, exact
        segments on high-treewidth circuits.
    refine:
        Iterative boundary-refinement budget.  ``0`` (default) keeps
        the one-pass scheme bit-for-bit.  ``N >= 1`` augments each
        boundary forest with cross-provider *glue* edges at compile
        time and, at estimate time, re-propagates dirty segments up to
        ``N`` times, re-deriving glue joints from the latest beliefs
        each round (see :mod:`repro.core.segments.refine`).  Requires
        ``boundary="tree"``.
    refine_tol:
        Convergence threshold: refinement stops once the largest
        boundary-belief change of an iteration drops below this.
    """

    def __init__(
        self,
        circuit: Circuit,
        input_model: Optional[InputModel] = None,
        max_gates_per_segment: int = 60,
        max_clique_states: int = 4 ** 9,
        heuristic: str = "min_fill",
        lookback: int = 3,
        boundary: str = "tree",
        enum_input_states: int = 4 ** 9,
        backend: str = "auto",
        kernel: str = "auto",
        refine: int = 0,
        refine_tol: float = 1e-5,
    ):
        if max_gates_per_segment < 1:
            raise ValueError("max_gates_per_segment must be >= 1")
        if kernel not in ("auto", "dense", "sparse"):
            raise ValueError(f"unknown kernel mode {kernel!r}")
        if lookback < 0:
            raise ValueError("lookback must be >= 0")
        if boundary not in ("independent", "tree"):
            raise SegmentBoundaryError(f"unknown boundary mode {boundary!r}")
        if backend not in ("auto", "jt", "enum"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "enum" and not enum_input_states:
            raise ValueError("backend='enum' requires enum_input_states > 0")
        if refine < 0:
            raise ValueError("refine must be >= 0")
        if refine and boundary != "tree":
            raise SegmentBoundaryError(
                f"refine requires boundary='tree', not {boundary!r}"
            )
        if refine_tol <= 0:
            raise ValueError("refine_tol must be > 0")
        self.circuit = circuit
        self.input_model = input_model if input_model is not None else IndependentInputs(0.5)
        self.max_gates_per_segment = max_gates_per_segment
        self.max_clique_states = max_clique_states
        self.heuristic = heuristic
        self.lookback = lookback
        self.boundary = boundary
        self.enum_input_states = enum_input_states
        self.backend = backend
        self.kernel = kernel
        self.refine = refine
        self.refine_tol = refine_tol
        #: the compiled segment DAG (None before :meth:`compile`)
        self.graph: Optional[SegmentGraph] = None
        self._refiner: Optional[BoundaryRefiner] = None
        self.compile_seconds = 0.0

    # ------------------------------------------------------------------

    def compile(self) -> "SegmentedEstimator":
        """Partition the circuit and compile one junction tree per segment."""
        if self.graph is not None:
            return self
        with get_tracer().span(
            "segmented.compile",
            circuit=self.circuit.name,
            backend="segmented",
        ) as span:
            internal = cone_clustered_order(self.circuit)
            self._position = {
                ln: i for i, ln in enumerate(self.circuit.topological_order())
            }
            self._cone_cache: Dict[str, frozenset] = {}
            registry = SegmentRegistry()
            if self.backend == "enum":
                chunks = partition_by_inputs(
                    self.circuit, internal, self.enum_input_states
                )
                for index, chunk in enumerate(chunks):
                    self._compile_enum_chunk(chunk, f"{index}", registry)
            else:
                step = self.max_gates_per_segment
                for index, start in enumerate(range(0, len(internal), step)):
                    self._compile_chunk(
                        internal[start : start + step], f"{index}",
                        self.lookback, registry,
                    )
            self.graph = SegmentGraph(registry.records)
            if self.refine:
                self._refiner = BoundaryRefiner.build(self)
                span.annotate(glue_edges=len(self._refiner))
            span.annotate(segments=len(self.graph))
            metrics = get_metrics()
            if metrics.enabled:
                metrics.gauge("segmented.segments").set(len(self.graph))
        self.compile_seconds = span.duration
        return self

    def _compile_enum_chunk(
        self, chunk: List[str], label: str, registry: SegmentRegistry
    ) -> None:
        """Build an enumeration segment for a chunk.

        Like the junction-tree path, upstream logic is duplicated into
        the segment (``lookback`` levels) to regenerate reconvergent
        correlation near the cut; the lookback shrinks until the
        expanded segment's input count fits the enumeration budget (the
        unexpanded chunk always fits by construction).
        """
        from repro.core.enumeration import EnumerationSegment, SegmentTooWide

        owned = set(chunk)
        for lookback in range(self.lookback, -1, -1):
            expanded = expand_with_lookback(self.circuit, chunk, lookback)
            sources = {
                src for line in expanded for src in self.circuit.driver(line).inputs
            }
            lines = sorted(expanded | sources, key=self._position.__getitem__)
            segment = self.circuit.subcircuit(
                lines, name=f"{self.circuit.name}.seg{label}"
            )
            placeholder, parent_of, glue_children, glue_plans = (
                self._placeholder_inputs(segment, registry)
            )
            try:
                estimator = EnumerationSegment(
                    segment,
                    placeholder,
                    max_input_states=self.enum_input_states,
                    keep_lines=owned,
                )
            except SegmentTooWide:
                continue
            registry.add(
                segment, estimator, owned, parent_of, glue_children, glue_plans
            )
            return
        raise AssertionError("unexpanded enum chunk must fit its own budget")

    def _split_segment_inputs(
        self, segment: Circuit
    ) -> Tuple[List[str], List[str]]:
        """A segment's input lines, split into (primary, boundary).

        Primary lines are primary inputs of the full circuit and keep
        the user model's statistics (including correlation CPDs among
        them); boundary lines are driven by upstream segments and carry
        refreshed upstream marginals/conditionals.
        """
        primary = [
            name for name in segment.inputs if self.circuit.driver(name) is None
        ]
        primary_set = set(primary)
        boundary = [name for name in segment.inputs if name not in primary_set]
        return primary, boundary

    def _placeholder_inputs(
        self, segment: Circuit, registry: SegmentRegistry
    ) -> Tuple[InputModel, Dict[str, str], frozenset, Dict[str, Tuple[str, ...]]]:
        """Compile-time input model of a segment.

        The *structure* (which input-to-input CPD edges exist) is baked
        into the segment's LIDAG here; numbers are refreshed at every
        :meth:`_propagate_segment_batch`.  Primary inputs take their
        CPDs from the user model, boundary lines start uniform.  With
        ``refine > 0`` the boundary forest additionally carries glue
        edges (returned as ``glue_children`` plus their cone plans).
        """
        primary, boundary_lines = self._split_segment_inputs(segment)
        uniform = {name: np.full(N_STATES, 0.25) for name in boundary_lines}
        glue_children: frozenset = frozenset()
        glue_plans: Dict[str, Tuple[str, ...]] = {}
        if self.boundary == "tree":
            if self.refine:
                parent_of, glue_children, glue_plans = augment_boundary_forest(
                    self.circuit,
                    segment.inputs,
                    registry,
                    self._cone_cache,
                )
            else:
                parent_of = boundary_forest(
                    self.circuit, segment.inputs, registry, self._cone_cache
                )
            inner: InputModel = TreeBoundaryInputs(uniform, parent_of)
        else:
            parent_of = {}
            inner = FixedMarginalInputs(uniform)
        return (
            SegmentInputs(self.input_model, primary, inner),
            parent_of,
            glue_children,
            glue_plans,
        )

    def _compile_chunk(
        self, chunk: List[str], label: str, lookback: int, registry: SegmentRegistry
    ) -> None:
        """Compile a chunk of gate-output lines, splitting on budget misses.

        A miss is a clique over the clique budget or a scenario row over
        the memory budget.  The row counts the segment's engine and the
        reads of every line but its duplicated lookback gates, which no
        one reads.  On a clique miss the chunk is halved first
        (quarter-cost retriangulations, lookback accuracy kept); lookback
        is shed only once the chunk is too small to split usefully.  A
        memory miss sheds lookback first: duplicated gates cost memory
        in every segment that copies them, and halving adds copies.
        Finalized segments register in topological order so downstream
        chunks can see their owners and junction trees.
        """
        owned = set(chunk)
        expanded = expand_with_lookback(self.circuit, chunk, lookback)
        sources = {
            src
            for line in expanded
            for src in self.circuit.driver(line).inputs
        }
        lines = sorted(expanded | sources, key=self._position.__getitem__)
        segment = self.circuit.subcircuit(lines, name=f"{self.circuit.name}.seg{label}")
        placeholder, parent_of, glue_children, glue_plans = (
            self._placeholder_inputs(segment, registry)
        )
        estimator = SwitchingActivityEstimator(
            segment,
            input_model=placeholder,
            heuristic=self.heuristic,
            max_clique_states=self.max_clique_states,
            kernel=self.kernel,
        )
        try:
            estimator.compile()
            inputs = set(segment.inputs)
            read = [line for line in segment.lines if line in owned or line in inputs]
            check_memory_budget(
                segment.name,
                sum(estimator.row_footprint(read)) + result_row_bytes(segment),
            )
        except (CliqueBudgetExceeded, MemoryBudgetExceeded) as miss:
            # High treewidth but few inputs: exploit CPT determinism via
            # exact support enumeration rather than lossy splitting.
            if self.enum_input_states:
                from repro.core.enumeration import EnumerationSegment, SegmentTooWide

                try:
                    enum_estimator = EnumerationSegment(
                        segment,
                        placeholder,
                        max_input_states=self.enum_input_states,
                        keep_lines=owned,
                    )
                    registry.add(
                        segment, enum_estimator, owned, parent_of,
                        glue_children, glue_plans,
                    )
                    return
                except SegmentTooWide:
                    pass
            if lookback > 0 and isinstance(miss, MemoryBudgetExceeded):
                self._compile_chunk(chunk, label, 0, registry)
                return
            if len(chunk) > 8:
                mid = len(chunk) // 2
                self._compile_chunk(chunk[:mid], label + "a", lookback, registry)
                self._compile_chunk(chunk[mid:], label + "b", lookback, registry)
                return
            if lookback > 0:
                self._compile_chunk(chunk, label, lookback - 1, registry)
                return
            if len(chunk) == 1:
                raise
            mid = len(chunk) // 2
            self._compile_chunk(chunk[:mid], label + "a", 0, registry)
            self._compile_chunk(chunk[mid:], label + "b", 0, registry)
            return
        registry.add(segment, estimator, owned, parent_of, glue_children, glue_plans)

    def __getstate__(self):
        # The cone cache is a compile-time accelerator that can hold
        # megabytes of frozensets; compiled artifacts never need it.
        state = self.__dict__.copy()
        state.pop("_cone_cache", None)
        return state

    # ------------------------------------------------------------------

    def update_inputs(self, input_model: InputModel) -> None:
        """Swap primary-input statistics without recompiling.

        Segment junction trees are reused as-is; the new statistics
        enter through the boundary refresh at the next :meth:`estimate`
        (only marginals -- and, in tree mode, pairwise joints -- cross
        segment cuts, so input correlation models degrade exactly as
        the paper's segmentation scheme describes).
        """
        self.compile()
        self.input_model = input_model

    def estimate(self) -> SwitchingEstimate:
        """Propagate marginals segment by segment in topological order.

        A single query is a one-scenario batch: the result is row 0 of
        :meth:`estimate_many` on ``[self.input_model]``, boundary
        refinement (``refine > 0``) included.
        """
        return self.estimate_many([self.input_model])[0]

    def estimate_many(self, input_models) -> List[SwitchingEstimate]:
        """Estimate K input-statistics scenarios in one batched sweep.

        The K models become ``(K, ...)`` input stacks once
        (:class:`~repro.core.inputs.InputStack`; ``input_models`` may
        already be one).  Each segment answers all K scenarios in one
        stacked call (``estimate_many_stacked``) over its input tables:
        its primary inputs' stacked CPD tables, then its boundary
        lines' published ``(K, 4)`` marginals and, along its boundary
        forest, ``(K, 4, 4)`` conditionals.  A junction-tree segment
        answers in a single vectorized pass, an enumeration segment by
        weighting its precomputed support once per scenario.  Each
        publishes the ``(K, 4)`` marginals of the lines it owns and the
        ``(K, 4, 4)`` joints of the boundary pairs downstream forests
        read from it (``SegmentNode.boundary_pairs``).  Both flow
        between segments in segment order, which is topological: every
        input a segment reads is published by a lower-index segment.
        With ``refine > 0`` the forward pass is followed by the
        boundary-refinement loop (:mod:`repro.core.segments.refine`).
        Result ``k`` is bitwise-identical to an independent
        :meth:`estimate` with scenario ``k``'s model, whatever either
        estimator propagated before.  ``self.input_model`` is not
        modified.

        Duplicates collapse per segment: a junction-tree segment
        propagates one row per distinct set of input tables it
        receives, so repeated scenarios -- and every scenario, in a
        segment outside a sweep's change cone -- share a row.
        """
        stack = as_input_stack(input_models, self.circuit.inputs)
        if stack is None:
            return []
        self.compile()
        k = len(stack)
        tracer = get_tracer()
        with tracer.span(
            "segmented.propagate_many",
            circuit=self.circuit.name,
            segments=len(self.graph),
            scenarios=k,
            backend="segmented",
        ) as span:
            known: Dict[str, np.ndarray] = {
                name: stack.marginal(name) for name in self.circuit.inputs
            }
            joints: Dict[Tuple[str, str], np.ndarray] = {}
            for index in range(len(self.graph)):
                marginals, published = self._propagate_segment_batch(
                    index, known, joints, stack
                )
                known.update(marginals)
                joints.update(published)
            iterations, deltas = run_refinement(self, known, joints, stack)
        per_scenario = span.duration / k
        method = (
            Method.SEGMENTED.value
            if len(self.graph) > 1
            else Method.SINGLE_BN.value
        )
        return [
            SwitchingEstimate(
                distributions={line: known[line][j] for line in known},
                compile_seconds=self.compile_seconds,
                propagate_seconds=per_scenario,
                method=method,
                segments=len(self.graph),
                refine_iterations=int(iterations[j]),
                refine_delta=float(deltas[j]),
            )
            for j in range(k)
        ]

    def _propagate_segment_batch(
        self,
        index: int,
        known: Dict[str, np.ndarray],
        joints: Dict[Tuple[str, str], np.ndarray],
        stack: InputStack,
        glue_tables: Optional[Dict[str, np.ndarray]] = None,
    ) -> Tuple[Dict[str, np.ndarray], Dict[Tuple[str, str], np.ndarray]]:
        """Stack one segment's input tables for K scenarios, propagate
        it, and return what it publishes: the ``(K, 4)`` stacks of the
        lines it owns and the ``(K, 4, 4)`` joints of its
        ``boundary_pairs``.

        Primary inputs take ``stack``'s tables; boundary lines take
        their ``known`` (published) marginals, or, where the boundary
        forest gives them a parent, ``P(child | parent)`` from the
        published joint of that pair (``joints``, keyed ``(parent,
        child)``).  Both are only read; the caller merges the return
        values.  ``glue_tables`` maps glue children to ``(K, 4, 4)``
        conditional stacks during refinement; in the base pass a glue
        child's conditional is its marginal, repeated over parent
        states.
        """
        node = self.graph[index]
        segment = node.segment
        with get_tracer().span(
            "segment.propagate_many",
            segment=segment.name,
            scenarios=len(stack),
        ):
            primary, boundary_lines = self._split_segment_inputs(segment)
            tables, parents = stack.tables(primary)
            check_marginals({name: known[name] for name in boundary_lines})
            present = set(boundary_lines)
            for name in boundary_lines:
                parent = node.parent_of.get(name)
                if parent is None or parent not in present:
                    tables[name] = known[name]
                    continue
                if name not in node.glue_children:
                    table = boundary_conditional(joints[(parent, name)], known[name])
                elif glue_tables is not None and name in glue_tables:
                    table = glue_tables[name]
                else:
                    table = np.repeat(known[name][:, None, :], N_STATES, axis=1)
                tables[name] = table
                parents[name] = (parent,)
            published = self._published(node)
            stacks, pair_joints, _ = node.estimator.estimate_many_stacked(
                tables, published, node.boundary_pairs, parents, len(stack)
            )
            return {line: stacks[line] for line in published}, pair_joints

    @staticmethod
    def _published(node) -> List[str]:
        """The lines a segment publishes: only the owned ones, since
        duplicated lookback gates exist solely to rebuild local
        correlation."""
        return [line for line in node.segment.internal_lines if line in node.owned]

    # ------------------------------------------------------------------

    @property
    def num_segments(self) -> int:
        self.compile()
        return len(self.graph)

    def propagation_counters(self) -> PropagationCounters:
        """Engine work counters summed over every junction-tree segment.

        Enumeration segments do no message passing and contribute
        nothing; before :meth:`compile` the totals are all zero.
        """
        totals = PropagationCounters()
        for node in self.graph.nodes if self.graph is not None else []:
            if isinstance(node.estimator, SwitchingActivityEstimator):
                totals.add(node.estimator.propagation_counters())
        return totals

    def factor_bytes(self) -> int:
        """Preallocated propagation-buffer bytes summed over segments."""
        if self.graph is None:
            return 0
        return sum(
            node.estimator.factor_bytes()
            for node in self.graph.nodes
            if isinstance(node.estimator, SwitchingActivityEstimator)
        )

    def row_bytes(self) -> int:
        """Bytes one scenario row of :meth:`estimate_many` needs.

        Segments propagate one after another and every junction-tree
        segment keeps its engine between passes, so a row holds the
        resident bytes of all of them plus the transient of the largest
        (:meth:`SwitchingActivityEstimator.row_footprint`, over the
        lines and pairs each publishes), the published ``(4, 4)``
        boundary joints and the result row.  Enumeration segments loop
        scenario by scenario and add no per-row buffers.
        """
        self.compile()
        resident = transient = pairs = 0
        for node in self.graph.nodes:
            pairs += len(node.boundary_pairs)
            if isinstance(node.estimator, SwitchingActivityEstimator):
                held, passing = node.estimator.row_footprint(
                    self._published(node), node.boundary_pairs
                )
                resident += held
                transient = max(transient, passing)
        joints = 8 * N_STATES * N_STATES * pairs
        return resident + transient + joints + result_row_bytes(self.circuit)

    def support_stats(self) -> Dict[str, object]:
        """Support-analysis summary aggregated over junction-tree segments.

        Enumeration segments have no clique tables and contribute
        nothing; density is feasible/total over the aggregate.
        """
        self.compile()
        totals = {"cliques": 0, "sparse_cliques": 0, "total_states": 0,
                  "feasible_states": 0}
        for node in self.graph.nodes:
            if not isinstance(node.estimator, SwitchingActivityEstimator):
                continue
            stats = node.estimator.support_stats()
            for key in totals:
                totals[key] += stats[key]
        total = totals["total_states"]
        return {
            "kernel": self.kernel,
            **totals,
            "support_density": (
                totals["feasible_states"] / total if total else 1.0
            ),
        }

    def segment_stats(self) -> List[Dict[str, float]]:
        """Junction-tree statistics per segment (for reports/ablations)."""
        from repro.core.enumeration import EnumerationSegment

        self.compile()
        stats = []
        for node in self.graph.nodes:
            if isinstance(node.estimator, EnumerationSegment):
                entry = dict(node.estimator.stats())
                entry["backend"] = "enumeration"
            else:
                entry = dict(node.estimator.junction_tree.stats())
                entry["backend"] = "junction-tree"
            entry["gates"] = node.segment.num_gates
            entry["owned_gates"] = len(node.owned)
            entry["name"] = node.segment.name
            entry["glue_edges"] = len(node.glue_children)
            stats.append(entry)
        return stats
