"""Junction tree construction and Hugin-style message passing.

This is the compilation + propagation machinery of the paper's Section 5:

1. moralize the Bayesian network's DAG,
2. triangulate the moral graph (greedy elimination order),
3. extract maximal cliques and connect them into a junction tree (a
   maximum-weight spanning tree over separator sizes, which for chordal
   graphs guarantees the running intersection property),
4. assign each CPD to a containing clique and form clique potentials,
5. calibrate by two-phase message passing (collect toward a root, then
   distribute), after which every clique potential is the exact joint
   marginal of its scope times the probability of the evidence.

The *compile once, propagate per input-statistics* split the paper
advertises maps to :meth:`JunctionTree.from_network` (steps 1-3, slow)
versus :meth:`JunctionTree.update_cpds_batch` +
:meth:`JunctionTree.marginals_batch` (steps 4-5, fast).  Steps 4-5 run
on one :class:`~repro.bayesian.propagation.PropagationEngine` per tree;
the single-query surface (:meth:`~JunctionTree.update_cpds`,
:meth:`~JunctionTree.calibrate`, :meth:`~JunctionTree.marginal`, ...)
is a one-row view over the same install.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import networkx as nx
import numpy as np

from repro.bayesian.cpd import TabularCPD
from repro.bayesian.factor import Factor, plan_product
from repro.bayesian.moral import moral_graph
from repro.bayesian.network import BayesianNetwork
from repro.bayesian.propagation import (
    PropagationCounters,
    PropagationEngine,
    PropagationSchedule,
)
from repro.bayesian.triangulate import (
    elimination_cliques,
    find_elimination_order,
    triangulate,
)

# CliqueBudgetExceeded's canonical home is the import-light ``errors``
# module; the budgeted elimination walk raises it, and this module
# re-exports it for callers of ``from_network``.
from repro.errors import CliqueBudgetExceeded
from repro.errors import ZeroBeliefError
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer

__all__ = ["CliqueBudgetExceeded", "JunctionTree", "JunctionTreeError"]

#: synthetic variable name for the leading batch axis of stacked
#: per-scenario factors; NUL guarantees no collision with circuit lines.
_BATCH_AXIS = "\x00batch"


def group_scenarios(
    keys: Sequence[Hashable],
) -> Tuple[List[int], List[int]]:
    """Collapse equal keys to first-occurrence representatives.

    Returns ``(reps, scatter)``: ``reps[r]`` is the index of the ``r``-th
    unique scenario (in first-appearance order) and ``scatter[j]`` is the
    representative row serving scenario ``j`` -- so a result computed per
    representative fans back out as ``results[scatter[j]]``.
    """
    positions: Dict[Hashable, int] = {}
    reps: List[int] = []
    scatter: List[int] = []
    for index, key in enumerate(keys):
        position = positions.get(key)
        if position is None:
            position = positions[key] = len(reps)
            reps.append(index)
        scatter.append(position)
    return reps, scatter


class JunctionTreeError(RuntimeError):
    """Raised for structural or calibration failures."""


class JunctionTree:
    """A calibrated junction tree over a Bayesian network.

    Do not call the constructor directly; use :meth:`from_network`.
    """

    def __init__(
        self,
        bn: BayesianNetwork,
        cliques: List[frozenset],
        tree: nx.Graph,
        elimination_order: List[str],
        fill_ins: List[Tuple[str, str]],
        kernel: str = "auto",
    ):
        if kernel not in ("auto", "dense", "sparse"):
            raise ValueError(f"unknown kernel mode {kernel!r}")
        self._bn = bn
        self.cliques = cliques
        self.tree = tree
        self.elimination_order = elimination_order
        self.fill_ins = fill_ins
        self._cardinalities = {n: bn.cardinality(n) for n in bn.nodes}

        #: index of one clique containing each variable (for marginals)
        self._home_clique: Dict[str, int] = {}
        for idx, clique in enumerate(cliques):
            for var in clique:
                self._home_clique.setdefault(var, idx)

        #: clique index each CPD is assigned to
        self._cpd_assignment: Dict[str, int] = {}
        #: reverse map: clique index -> nodes whose CPD lives there
        self._cpd_members: List[List[str]] = [[] for _ in cliques]
        for node in bn.nodes:
            family = set(bn.parents(node)) | {node}
            for idx, clique in enumerate(cliques):
                if family <= clique:
                    self._cpd_assignment[node] = idx
                    self._cpd_members[idx].append(node)
                    break
            else:
                raise JunctionTreeError(
                    f"no clique contains the family of {node!r}; "
                    "triangulation is inconsistent with the moral graph"
                )

        self._evidence: Dict[str, int] = {}
        #: per-clique product of the network's assigned CPD factors (no
        #: evidence), canonical axis order; ``None`` marks a clique whose
        #: CPDs changed, rebuilt when next installed
        self._cpd_products: List[Optional[Factor]] = [
            self._clique_cpd_product(idx) for idx in range(len(cliques))
        ]
        #: message-kernel mode handed to the schedule ("auto" | "dense"
        #: | "sparse"; see :class:`PropagationSchedule`)
        self._kernel = kernel
        #: per-node (variables, 0/1 support) recorded when deterministic
        #: CPD masks feed a compiled schedule; the soundness guard in
        #: update_cpds checks replacement CPDs against these.
        self._mask_supports: Dict[str, Tuple[Tuple[str, ...], np.ndarray]] = {}
        #: nodes whose CPDs once violated their recorded support; they
        #: never contribute masks again (treated as free tables).
        self._mask_exclude: Set[str] = set()
        #: immutable message schedule (built at compile time)
        self._schedule: Optional[PropagationSchedule] = None
        #: the one propagation engine; built by the first install and
        #: rebuilt when the installed row count changes
        self._engine: Optional[PropagationEngine] = None
        #: cliques whose network potential (CPDs, evidence) changed
        #: since the last install
        self._stale: Set[int] = set()
        #: cliques holding per-scenario stacks in the engine
        self._stacked: Set[int] = set()
        #: scenario -> engine row map of the installed batch (None when
        #: every scenario has its own row)
        self._batch_scatter: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_network(
        cls,
        bn: BayesianNetwork,
        heuristic: str = "min_fill",
        max_clique_states: Optional[int] = None,
        kernel: str = "auto",
    ) -> "JunctionTree":
        """Compile a Bayesian network into a junction tree.

        Parameters
        ----------
        bn:
            The network; must validate.
        heuristic:
            Elimination-order heuristic (``"min_fill"`` or
            ``"min_degree"``).
        max_clique_states:
            If given, raise :class:`CliqueBudgetExceeded` as soon as the
            elimination walk forms a clique of more entries, before any
            table is materialized and without finishing the walk.
        kernel:
            Message-kernel mode for the compiled schedule: ``"auto"``
            (default) packs cliques whose deterministic-CPD support is
            sparse enough to win, ``"dense"`` keeps the PR-1 dense
            reductions everywhere, ``"sparse"`` forces packed kernels
            on every clique with any infeasible entry.
        """
        from repro.bayesian.triangulate import max_clique_state_space

        tracer = get_tracer()
        with tracer.span("compile.junction_tree", network=bn.name):
            bn.validate()
            with tracer.span("compile.moralize"):
                moral = moral_graph(bn)
            cards = {n: bn.cardinality(n) for n in bn.nodes}
            with tracer.span("compile.triangulate", heuristic=heuristic) as sp:
                order = find_elimination_order(
                    moral, heuristic, cards, max_clique_states
                )
                chordal, order, fills = triangulate(moral, order=order)
                sp.annotate(fill_ins=len(fills))
            with tracer.span("compile.cliques") as sp:
                cliques = elimination_cliques(chordal, order)
                worst = max_clique_state_space(cliques, cards)
                sp.annotate(cliques=len(cliques), max_clique_states=worst)
            # Gauges describe trees that actually get built; rejected
            # walks stop inside the triangulate span.
            registry = get_metrics()
            if registry.enabled:
                total = 0
                histogram = registry.histogram("compile.clique_states")
                for clique in cliques:
                    size = 1
                    for node in clique:
                        size *= cards.get(node, 2)
                    histogram.observe(size)
                    total += size
                registry.counter("compile.fill_ins").inc(len(fills))
                registry.gauge("jt.max_clique_states").set_max(worst)
                registry.gauge("jt.total_states").add(total)
            with tracer.span("compile.spanning_tree"):
                tree = cls._build_tree(cliques)
            with tracer.span("compile.potentials"):
                jt = cls(bn, cliques, tree, order, fills, kernel=kernel)
            # Build the message schedule (and its support analysis)
            # eagerly: it is part of the compile-once artifact, so
            # pickled models and compile-cache hits skip both.
            jt._ensure_schedule()
            return jt

    @staticmethod
    def _build_tree(cliques: List[frozenset]) -> nx.Graph:
        """Maximum-weight spanning tree over pairwise separator sizes."""
        candidate = nx.Graph()
        candidate.add_nodes_from(range(len(cliques)))
        for i in range(len(cliques)):
            for j in range(i + 1, len(cliques)):
                weight = len(cliques[i] & cliques[j])
                if weight > 0:
                    candidate.add_edge(i, j, weight=weight)
        tree = nx.Graph()
        tree.add_nodes_from(range(len(cliques)))
        # Maximum spanning forest; empty-separator components stay apart.
        for u, v, data in nx.maximum_spanning_edges(candidate, data=True):
            tree.add_edge(u, v, weight=data["weight"])
        return tree

    def _clique_cpd_product(self, idx: int) -> Factor:
        """Product of the CPD factors assigned to clique ``idx``, over
        the clique's full scope in canonical (sorted) axis order."""
        order = tuple(sorted(self.cliques[idx]))
        return Factor._unsafe(order, self._clique_cpd_product_batch(idx, {}, 1)[0])

    def _clique_cpd_product_batch(
        self, idx: int, overrides: Mapping[str, Sequence[TabularCPD]], k: int
    ) -> np.ndarray:
        """Batched clique-``idx`` CPD product: a ``(K, *clique_shape)``
        stack whose slice ``k`` is the clique's CPD product with
        scenario ``k``'s CPDs swapped in.

        Every slice is bitwise-identical to a one-scenario fold because
        the fold order is planned with a *per-scenario* size key (a
        stacked factor counts as its unbatched size), so the batched
        fold multiplies the same factors in the same order as any single
        scenario's fold, and every multiply is elementwise over
        broadcast views.
        """
        order = tuple(sorted(self.cliques[idx]))
        shape = tuple(self._cardinalities[v] for v in order)
        base = Factor.uniform(order, shape)
        factors: List[Factor] = [base]
        for node in self._cpd_members[idx]:
            cpds = overrides.get(node)
            if cpds is None:
                factors.append(self._bn.cpd(node).to_factor())
            else:
                first = cpds[0].to_factor()
                stacked = np.stack(
                    [c.to_factor().permute(first.variables).values for c in cpds]
                )
                factors.append(
                    Factor._unsafe((_BATCH_AXIS,) + first.variables, stacked)
                )

        def per_scenario_size(factor: Factor) -> int:
            return factor.size // k if _BATCH_AXIS in factor else factor.size

        keep = plan_product(factors, size_key=per_scenario_size)
        result = keep[0]
        for factor in keep[1:]:
            result = result.product(factor)
        if _BATCH_AXIS in result:
            return result.permute((_BATCH_AXIS,) + order).values
        # Every scenario's table is identical (all overrides were
        # identities); broadcast the shared table over the batch axis.
        return np.broadcast_to(result.permute(order).values, (k,) + shape)

    def _evidence_mask(self, idx: int) -> Optional[np.ndarray]:
        """0/1 indicator of the evidence homed at clique ``idx``, shaped
        to broadcast over its canonical table (None without evidence)."""
        order = sorted(self.cliques[idx])
        mask = None
        for var, state in self._evidence.items():
            if self._home_clique[var] != idx:
                continue
            shape = [1] * len(order)
            shape[order.index(var)] = self._cardinalities[var]
            indicator = np.zeros(shape)
            indicator.reshape(-1)[state] = 1.0
            mask = indicator if mask is None else mask * indicator
        return mask

    def _clique_potential(self, idx: int) -> Factor:
        """The network's potential for clique ``idx``: its CPD product
        times the evidence indicators of variables homed there."""
        product = self._cpd_products[idx]
        if product is None:
            product = self._cpd_products[idx] = self._clique_cpd_product(idx)
        mask = self._evidence_mask(idx)
        if mask is None:
            return product
        return Factor._unsafe(product.variables, product.values * mask)

    def _install(
        self,
        stacks: Mapping[int, np.ndarray],
        rows: int,
        scatter: Optional[np.ndarray] = None,
    ) -> PropagationEngine:
        """The one install path into the one engine.

        Cliques in ``stacks`` get their ``(rows, *clique_shape)``
        per-scenario tables, every other clique the network's own
        potential broadcast over the rows; evidence indicators multiply
        into both.  The engine is rebuilt when ``rows`` differs from the
        installed count; otherwise only cliques whose potential may have
        changed are re-set (the others keep their installed tables).
        Either way the next propagation is a full pass.
        """
        schedule = self._ensure_schedule()
        engine = self._engine
        if engine is None or engine.batch_size != rows:
            # Release the old buffers before allocating the new ones.
            self._engine = engine = None
            engine = self._engine = PropagationEngine(schedule, batch_size=rows)
            touched: Iterable[int] = range(len(self.cliques))
        else:
            touched = self._stale | self._stacked | set(stacks)
        for idx in touched:
            stack = stacks.get(idx)
            if stack is None:
                engine.set_potential(idx, self._clique_potential(idx))
                continue
            mask = self._evidence_mask(idx)
            engine.set_potential_batch(idx, stack if mask is None else stack * mask)
        self._stale = set()
        self._stacked = set(stacks)
        self._batch_scatter = scatter
        return engine

    # ------------------------------------------------------------------
    # Evidence & CPD updates
    # ------------------------------------------------------------------

    def set_evidence(self, evidence: Mapping[str, int]) -> None:
        """Fix observed states; takes effect at the next install."""
        for var, state in evidence.items():
            if var not in self._cardinalities:
                raise KeyError(f"unknown variable {var!r}")
            if not 0 <= state < self._cardinalities[var]:
                raise ValueError(f"state {state} out of range for {var!r}")
        self._evidence.update(evidence)
        self._stale |= {self._home_clique[var] for var in evidence}

    def clear_evidence(self) -> None:
        self._stale |= {self._home_clique[var] for var in self._evidence}
        self._evidence = {}

    def _check_cpds(self, cpds: Sequence[TabularCPD]) -> None:
        """Replacement CPDs must keep their node's parents and cardinality."""
        for cpd in cpds:
            if cpd.variable not in self._cpd_assignment:
                raise KeyError(f"unknown node {cpd.variable!r}")
            old = self._bn.cpd(cpd.variable)
            if tuple(cpd.parents) != tuple(old.parents):
                raise ValueError(
                    f"new CPD for {cpd.variable!r} changes parents "
                    f"{old.parents} -> {cpd.parents}; recompile instead"
                )
            if cpd.cardinality != old.cardinality:
                raise ValueError(f"new CPD for {cpd.variable!r} changes cardinality")

    def update_cpds(self, cpds: Iterable[TabularCPD]) -> None:
        """Swap in new CPDs (same structure) without recompiling.

        This is the paper's fast re-propagation path: changing the input
        statistics of a compiled circuit only replaces root CPDs.  The
        network keeps the new CPDs; the next :meth:`calibrate` installs
        them as one row and re-propagates.
        """
        cpds = list(cpds)
        self._check_cpds(cpds)
        for cpd in cpds:
            self._bn._cpds[cpd.variable] = cpd
        affected = {self._cpd_assignment[c.variable] for c in cpds}
        for idx in affected:
            self._cpd_products[idx] = None
        self._stale |= affected
        if self._mask_supports and self._supports_violated(cpds):
            # A replacement CPD put mass outside the support its old
            # deterministic table promised (e.g. a gate CPD swapped for
            # a noisy one).  The packed kernels compiled against the old
            # masks would silently drop that mass, so drop the compiled
            # state; the next install re-analyzes without the offending
            # node's mask.
            self._invalidate_compiled()

    # ------------------------------------------------------------------
    # Batched multi-scenario propagation
    # ------------------------------------------------------------------

    def update_cpds_batch(
        self, cpd_sets: Sequence[Iterable[TabularCPD]]
    ) -> int:
        """Install K scenarios' CPDs for one batched propagation pass.

        ``cpd_sets[k]`` plays the role of :meth:`update_cpds`'s argument
        for scenario ``k``; every scenario must update the same
        variables (with unchanged parents and cardinality).  Unlike
        :meth:`update_cpds` this does not mutate the underlying network:
        scenarios live only in the engine (only the updated cliques'
        potentials differ per scenario).  Returns K.  Query results with
        :meth:`marginals_batch` / :meth:`joint_marginal_batch`.

        Scenarios whose CPD tables are bytewise equal share one engine
        row: the engine is sized to the U unique sets and the query
        methods gather rows back to K.  A row depends only on its own
        installed tables, so every duplicate gets exactly the row it
        would have computed alone.
        """
        sets = [list(s) for s in cpd_sets]
        if not sets:
            raise ValueError("need at least one CPD set")
        k = len(sets)
        variables = [cpd.variable for cpd in sets[0]]
        # Deep-validate scenario 0 against the network, then hold the
        # other K-1 scenarios to scenario 0's structure (cheap tuple and
        # shape compares instead of K network lookups per variable).
        self._check_cpds(sets[0])
        for cpds in sets[1:]:
            if [cpd.variable for cpd in cpds] != variables:
                raise ValueError(
                    "every scenario must update the same variables in the "
                    "same order"
                )
            for cpd, ref in zip(cpds, sets[0]):
                if cpd.parents != ref.parents:
                    raise ValueError(
                        f"new CPD for {cpd.variable!r} changes parents "
                        f"{ref.parents} -> {cpd.parents}; recompile instead"
                    )
                if cpd.factor.values.shape != ref.factor.values.shape:
                    raise ValueError(
                        f"new CPD for {cpd.variable!r} changes cardinality"
                    )

        # Variables, parents and shapes now match across scenarios, so
        # equal table bytes mean equal installed potentials.
        reps, scatter = group_scenarios(
            [tuple(cpd.factor.values.tobytes() for cpd in cpds) for cpds in sets]
        )
        u = len(reps)
        by_var: Dict[str, List[TabularCPD]] = {
            v: [sets[r][i] for r in reps] for i, v in enumerate(variables)
        }

        if self._mask_supports and self._supports_violated(
            [cpd for cpds_for_var in by_var.values() for cpd in cpds_for_var]
        ):
            self._invalidate_compiled()

        stacks = {}
        for idx in sorted({self._cpd_assignment[v] for v in variables}):
            overrides = {
                node: by_var[node]
                for node in self._cpd_members[idx]
                if node in by_var
            }
            stacks[idx] = self._clique_cpd_product_batch(idx, overrides, u)
        self._install(
            stacks, u, None if u == k else np.asarray(scatter, dtype=np.intp)
        )
        return k

    def marginals_batch(
        self, variables: Sequence[str], skip_zero: bool = False
    ) -> Dict[str, np.ndarray]:
        """Posterior marginals of the installed scenario batch.

        Returns ``{var: (K, card) array}``; row ``k`` is scenario
        ``k``'s marginal, bitwise-identical to what a one-scenario
        install would produce (see :mod:`repro.bayesian.propagation`).
        Requires a prior :meth:`update_cpds_batch`.  ``skip_zero=True``
        NaN-fills rows of zero-mass scenarios instead of raising,
        isolating them from their batch-mates.
        """
        engine = self._require_engine()
        engine.propagate()
        try:
            rows = engine.marginals(variables, skip_zero=skip_zero)
        except ZeroBeliefError as err:
            self._scatter_zero_error(err)
            raise
        scatter = self._batch_scatter
        if scatter is None:
            return rows
        return {var: values[scatter] for var, values in rows.items()}

    def joint_marginal_batch(self, variables: Sequence[str]) -> np.ndarray:
        """Batched joint posterior of variables sharing a clique: a
        ``(K, card_1, ..., card_m)`` array in the order of
        ``variables``.  See :meth:`joint_marginal`."""
        engine = self._require_engine()
        engine.propagate()
        wanted = set(variables)
        for idx, clique in enumerate(self.cliques):
            if wanted <= clique:
                try:
                    rows = engine.joint_marginal(idx, list(variables))
                except ZeroBeliefError as err:
                    self._scatter_zero_error(err)
                    raise
                scatter = self._batch_scatter
                return rows if scatter is None else rows[scatter]
        raise JunctionTreeError(f"no clique jointly contains {sorted(wanted)}")

    def _scatter_zero_error(self, err: ZeroBeliefError) -> None:
        """Rename an engine-row zero-belief error's ``batch_indices``
        to every scenario served by the failing rows."""
        if self._batch_scatter is not None:
            err.rescatter(self._batch_scatter)

    def _require_engine(self) -> PropagationEngine:
        if self._engine is None:
            raise JunctionTreeError(
                "no scenario batch installed; call update_cpds_batch first"
            )
        return self._engine

    def _ensure_schedule(self) -> PropagationSchedule:
        """Build (once) the immutable message schedule.  Non-dense
        kernel modes run the support analysis here, so it is paid once
        per compile and serializes with the tree (cache hits skip it
        entirely)."""
        if self._schedule is None:
            with get_tracer().span(
                "compile.schedule",
                cliques=len(self.cliques),
                kernel=self._kernel,
            ):
                masks = (
                    self._deterministic_masks()
                    if self._kernel != "dense"
                    else None
                )
                self._schedule = PropagationSchedule(
                    self.cliques,
                    self.tree.edges,
                    self._cardinalities,
                    clique_masks=masks,
                    kernel=self._kernel,
                )
            self._publish_support_gauges()
        return self._schedule

    def _deterministic_masks(self) -> List[Optional[np.ndarray]]:
        """Per-clique 0/1 feasibility masks from deterministic gate CPDs.

        Each non-root deterministic CPD (a 0/1 indicator table) ANDs its
        support into the clique it is assigned to; every other CPD --
        including root/input priors, whose tables *change* between
        queries and may only look deterministic at p in {0, 1} --
        contributes nothing, keeping the masks sound under every input
        model.  Records each contributing node's support so
        :meth:`update_cpds` can detect replacements that break it.
        """
        masks: List[Optional[np.ndarray]] = [None] * len(self.cliques)
        self._mask_supports = {}
        for node, idx in self._cpd_assignment.items():
            if node in self._mask_exclude:
                continue
            cpd = self._bn.cpd(node)
            if not cpd.parents or not cpd.is_deterministic():
                continue
            factor = cpd.to_factor()
            support = factor.values != 0
            self._mask_supports[node] = (factor.variables, support)
            order = tuple(sorted(self.cliques[idx]))
            position = {v: i for i, v in enumerate(order)}
            axes = np.array([position[v] for v in factor.variables])
            # Permute the support's axes into clique-canonical order,
            # then pad singleton axes for the clique variables the CPD
            # does not mention so it broadcasts against the clique table.
            arranged = support.transpose(np.argsort(axes))
            shape = [1] * len(order)
            for pos, size in zip(np.sort(axes), arranged.shape):
                shape[pos] = size
            expanded = arranged.reshape(shape)
            masks[idx] = expanded if masks[idx] is None else masks[idx] & expanded
        for idx, mask in enumerate(masks):
            if mask is not None:
                shape = tuple(
                    self._cardinalities[v] for v in sorted(self.cliques[idx])
                )
                masks[idx] = np.ascontiguousarray(np.broadcast_to(mask, shape))
        return masks

    def _supports_violated(self, cpds: Iterable[TabularCPD]) -> bool:
        """Check replacement CPDs against their recorded mask supports.

        Violating nodes are added to ``_mask_exclude`` so a rebuilt
        schedule never trusts them again.  Returns True if any new CPD
        has mass outside its recorded support.
        """
        violated = False
        for cpd in cpds:
            recorded = self._mask_supports.get(cpd.variable)
            if recorded is None:
                continue
            variables, support = recorded
            values = cpd.to_factor().permute(variables).values
            if ((values != 0) & ~support).any():
                self._mask_exclude.add(cpd.variable)
                violated = True
        return violated

    def _invalidate_compiled(self) -> None:
        """Drop the compiled schedule and engine (support masks went
        stale); the next install re-analyzes and propagates in full."""
        self._schedule = None
        self._engine = None
        self._mask_supports = {}

    def _publish_support_gauges(self) -> None:
        """Export the schedule's support analysis to the metrics registry."""
        registry = get_metrics()
        if not registry.enabled:
            return
        schedule = self._schedule
        total = sum(schedule.sizes)
        feasible = sum(schedule.support_nnz)
        registry.gauge("jt.feasible_states").add(feasible)
        registry.gauge("jt.support_density").set_max(
            feasible / total if total else 1.0
        )
        registry.gauge("jt.sparse_cliques").add(int(sum(schedule.sparse)))

    def support_stats(self) -> Dict[str, object]:
        """Support-analysis summary: kernel mode, feasible states, density.

        Rebuilds the schedule if a support violation dropped it.
        """
        schedule = self._ensure_schedule()
        total = sum(schedule.sizes)
        feasible = sum(schedule.support_nnz)
        return {
            "kernel": schedule.kernel,
            "cliques": schedule.n_cliques,
            "sparse_cliques": int(sum(schedule.sparse)),
            "total_states": int(total),
            "feasible_states": int(feasible),
            "support_density": feasible / total if total else 1.0,
        }

    def __getstate__(self):
        # The engine is a propagation cache sized to the last install;
        # rebuilding it is cheap and keeps artifacts K-independent (a
        # loaded tree's first query is a full pass, like a fresh one's).
        state = dict(self.__dict__)
        state.update(_engine=None, _stale=set(), _stacked=set(), _batch_scatter=None)
        return state

    # ------------------------------------------------------------------
    # Single-query view: one row over the network's own CPDs
    # ------------------------------------------------------------------

    def calibrate(self) -> None:
        """Install the network's CPDs and evidence as one row and run
        collect + distribute over every tree component.

        The pass is a full one, so the beliefs depend only on the
        installed CPDs and evidence; a calibrated tree with no pending
        changes is a no-op.  An installed scenario batch is replaced.
        """
        self._install({}, 1).propagate()

    def marginal(self, variable: str) -> np.ndarray:
        """Posterior marginal ``P(variable | evidence)`` as a vector."""
        return self.marginals([variable])[variable]

    def marginals(self, variables: Sequence[str]) -> Dict[str, np.ndarray]:
        """Posterior marginals of many variables in one sweep.

        Variables sharing a home clique are extracted together (one
        reduction per clique, then one small reduction per variable).
        Equivalent to ``{v: jt.marginal(v) for v in variables}`` but
        substantially faster for full-circuit reads.
        """
        self.calibrate()
        rows = self._engine.marginals(variables)
        return {var: values[0] for var, values in rows.items()}

    def joint_marginal(self, variables: Sequence[str]) -> Factor:
        """Joint posterior of variables that share a clique.

        Raises :class:`JunctionTreeError` if no clique contains all of
        them (an arbitrary joint would require out-of-clique inference;
        use :func:`repro.bayesian.elimination.variable_elimination`).
        """
        self.calibrate()
        return Factor._unsafe(
            tuple(variables), self.joint_marginal_batch(variables)[0]
        )

    def probability_of_evidence(self) -> float:
        """P(evidence); 1.0 when no evidence is set.

        With multiple tree components the per-component masses multiply.
        """
        self.calibrate()
        prob = 1.0
        for root in self._schedule.roots:
            prob *= float(self._engine.belief(root)[0].sum())
        return prob

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def check_running_intersection(self) -> bool:
        """Verify the junction-tree property.

        For every variable, the cliques containing it must induce a
        connected subtree.
        """
        for variable in self._cardinalities:
            containing = [i for i, c in enumerate(self.cliques) if variable in c]
            if len(containing) <= 1:
                continue
            sub = self.tree.subgraph(containing)
            if not nx.is_connected(sub):
                return False
        return True

    def check_calibration(self, atol: float = 1e-9) -> bool:
        """Verify neighbouring cliques agree on their separators."""
        self.calibrate()
        schedule = self._schedule

        def onto_separator(idx: int, sep_vars) -> np.ndarray:
            drop = tuple(
                1 + i for i, v in enumerate(schedule.orders[idx]) if v not in sep_vars
            )
            return self._engine.belief(idx).sum(axis=drop)

        for u, v in self.tree.edges:
            sep_vars = schedule.messages[(u, v)].sep_vars
            if not np.allclose(
                onto_separator(u, sep_vars), onto_separator(v, sep_vars), atol=atol
            ):
                return False
        return True

    def propagation_counters(self) -> PropagationCounters:
        """Cumulative work counters of the engine (the live object;
        zeros before the first install).  A rebuilt engine -- new row
        count -- starts from zero."""
        if self._engine is None:
            return PropagationCounters()
        return self._engine.counters

    def row_footprint(self, variables: Iterable[str]) -> Tuple[int, int]:
        """Bytes one scenario row needs when :meth:`update_cpds_batch`
        swaps the CPDs of ``variables``, as ``(resident, transient)``.

        *Resident* bytes stay allocated between passes: the engine's
        buffers (:attr:`PropagationSchedule.row_bytes`) and the
        per-scenario potentials of the cliques those CPDs live in.
        *Transient* bytes live only during the install: the dense
        ``(rows, *clique_shape)`` table each such clique's CPD product
        builds, plus one more of the largest (the fold's previous
        product, or the copy a packed clique gathers from).
        """
        schedule = self._ensure_schedule()
        stacked = {self._cpd_assignment[v] for v in variables}
        if not stacked:
            return schedule.row_bytes, 0
        packed = schedule.sparse_cliques
        psi = sum(
            packed[i].nnz if i in packed else schedule.sizes[i] for i in stacked
        )
        dense = [schedule.sizes[i] for i in stacked]
        return schedule.row_bytes + 8 * psi, 8 * (sum(dense) + max(dense))

    def engine_factor_bytes(self) -> int:
        """Bytes held by the engine's preallocated belief/message/scratch
        buffers (0 before the first install); ``K x`` the one-row
        footprint for a K-row install."""
        return self._engine.factor_bytes if self._engine is not None else 0

    def _clique_sizes(self) -> List[int]:
        return [
            int(np.prod([self._cardinalities[v] for v in clique]))
            for clique in self.cliques
        ]

    def max_clique_size(self) -> int:
        """State-space size of the largest clique table."""
        return max(self._clique_sizes(), default=0)

    def stats(self) -> Dict[str, float]:
        """Structure statistics for reports."""
        return {
            "cliques": len(self.cliques),
            "max_clique_vars": max((len(c) for c in self.cliques), default=0),
            "max_clique_states": self.max_clique_size(),
            "fill_ins": len(self.fill_ins),
            "total_table_entries": sum(self._clique_sizes()),
        }

    def __repr__(self) -> str:
        return (
            f"JunctionTree(cliques={len(self.cliques)}, "
            f"max_clique={max((len(c) for c in self.cliques), default=0)})"
        )
