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
versus :meth:`JunctionTree.update_tables_batch` +
:meth:`JunctionTree.marginals_batch` (steps 4-5, fast).  Step 4 runs
on compiled *install plans* (:class:`_InstallPlan`): per clique and set
of swapped CPDs, the product of the clique's fixed 0/1 gate tables in
the engine's storage layout plus one gather index per swapped table, so
an install is a few gathers and multiplies over ``(K, n)`` arrays.
Steps 4-5 run on one
:class:`~repro.bayesian.propagation.PropagationEngine` per tree;
the single-query surface (:meth:`~JunctionTree.update_cpds`,
:meth:`~JunctionTree.calibrate`, :meth:`~JunctionTree.marginal`, ...)
is a one-row view over the same install of the network's own CPDs, for
general networks; the circuit estimators read rows of the stacked
install instead.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
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
from repro.bayesian.factor import Factor
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


#: Copies of a ``(K, m)`` install stack :func:`unique_rows` holds at its
#: peak: the concatenated rows, and ``np.unique``'s flattened keys, its
#: sorted keys and its merge-sort buffer (``tracemalloc``: 4.1 copies on
#: pcler8's one tree, 4.0-4.1 on c432s's segments, K=64) ...
UNIQUE_COPIES = 4
#: ... and entries per row of the row-index arrays it holds alongside
#: (sort order, first occurrences, inverse, ranks, masks).
UNIQUE_INDEX_ENTRIES = 12


def unique_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse bytewise-equal rows of a ``(K, m)`` array.

    Returns ``(reps, scatter)``: ``reps[r]`` is the index of the
    ``r``-th distinct row (in first-appearance order) and
    ``scatter[j]`` is the representative row serving row ``j`` -- so a
    result computed per representative fans back out as
    ``results[scatter]``.  Rows compare by their bytes, so ``-0.0`` and
    ``0.0`` differ and equal NaN payloads match.
    """
    rows = np.ascontiguousarray(rows)
    k = rows.shape[0]
    if rows.ndim != 2 or rows.shape[1] == 0 or k <= 1:
        return np.zeros(min(k, 1), dtype=np.intp), np.zeros(k, dtype=np.intp)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.reshape(-1)]


class _InstallPlan:
    """How one clique's potential is formed, in its storage layout.

    The storage layout is the engine's: the packed entries of a packed
    clique (:attr:`~repro.bayesian.propagation._SparseClique.flat_idx`),
    the flattened canonical table otherwise; ``size`` entries either
    way.  ``steps`` are the clique's CPD tables that are not 0/1, in the
    order a one-scenario factor fold multiplies them (per-scenario
    table size, then member order): ``(var, index)`` for a swapped
    table, where ``index`` gathers each entry's cell from the flattened
    ``(K, *table)`` stack, or ``(None, values)`` for a fixed table
    already gathered.  ``mask`` is the product of the fixed 0/1 tables
    (``None`` when the clique has none).  A factor with 0/1 entries
    multiplies exactly wherever it sits in a fold, so multiplying it
    last leaves every entry bitwise what the fold computes.
    """

    __slots__ = ("steps", "mask", "size")

    def __init__(self, steps, mask: Optional[np.ndarray], size: int):
        self.steps: List[Tuple[Optional[str], np.ndarray]] = steps
        self.mask = mask
        self.size = size

    @property
    def scratch_size(self) -> int:
        """Entries per row of gather scratch :meth:`fill` needs: a
        swapped table after the first step is gathered there first."""
        later = any(var is not None for var, _ in self.steps[1:])
        return self.size if later else 0

    def fill(
        self,
        out: np.ndarray,
        tables: Mapping[str, np.ndarray],
        scratch: Optional[np.ndarray] = None,
    ) -> None:
        """Write the potential into ``out``: ``(K, size)`` per-scenario
        rows from ``tables`` (``{var: (K, *table)}``), or ``(size,)``
        when no table is swapped.  ``scratch`` is a flat buffer of at
        least ``K * scratch_size`` entries, needed when
        :attr:`scratch_size` is nonzero."""
        rows = out.shape[:-1]
        if self.scratch_size:
            scratch = scratch[: out.size].reshape(out.shape)
        first = True
        for var, data in self.steps:
            if var is None:
                if first:
                    np.copyto(out, data)
                else:
                    np.multiply(out, data, out=out)
            else:
                stack = tables[var].reshape(rows + (-1,))
                # mode="clip": the indices are valid by construction, and
                # "raise" would buffer the output in a temporary.
                target = out if first else scratch
                np.take(stack, data, axis=-1, out=target, mode="clip")
                if not first:
                    np.multiply(out, scratch, out=out)
            first = False
        if first:
            out.fill(1.0)
        if self.mask is not None:
            np.multiply(out, self.mask, out=out)


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
        #: per-clique network potential (its CPD product, no evidence)
        #: in the schedule's storage layout; ``None`` marks a clique
        #: whose CPDs changed, rebuilt when next installed.  Built with
        #: the schedule, whose layout it follows.
        self._potentials: List[Optional[np.ndarray]] = []
        #: compiled install plans keyed by (clique, swapped variables);
        #: built on first use and pickled with the tree
        self._plans: Dict[Tuple[int, FrozenSet[str]], _InstallPlan] = {}
        #: the one propagation engine; built by the first install and
        #: rebuilt when the installed row count changes
        self._engine: Optional[PropagationEngine] = None
        #: cliques whose network potential (CPDs, evidence) changed
        #: since the last install
        self._stale: Set[int] = set()
        #: cliques holding per-scenario rows in the engine
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

    def _table_index(
        self, idx: int, variables: Sequence[str], shape: Tuple[int, ...]
    ) -> np.ndarray:
        """Flat cell of a ``variables``-ordered table of ``shape`` read
        by each storage entry of clique ``idx`` (see
        :class:`_InstallPlan`)."""
        schedule = self._schedule
        order = schedule.orders[idx]
        index = np.zeros(schedule.shapes[idx], dtype=np.intp)
        stride = 1
        for var, card in zip(reversed(variables), reversed(shape)):
            axes = [1] * len(order)
            axes[order.index(var)] = card
            index += (np.arange(card, dtype=np.intp) * stride).reshape(axes)
            stride *= card
        flat = index.reshape(-1)
        sp = schedule.sparse_cliques.get(idx)
        # Packing keeps only the *final* (calibrated) support.  A
        # potential may carry mass outside it -- entries the message
        # products annihilate -- and dropping that mass is exact: such
        # entries only ever feed separator indices whose support is
        # empty, which in turn only touch other out-of-support entries.
        # Soundness against *changed* deterministic CPDs is enforced by
        # the support checks of update_cpds / update_tables_batch.
        return flat if sp is None else flat[sp.flat_idx]

    def _install_plan(self, idx: int, swapped: FrozenSet[str]) -> _InstallPlan:
        """The (cached) plan forming clique ``idx``'s potential with the
        CPDs of ``swapped`` taken from per-scenario stacks."""
        key = (idx, swapped)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        schedule = self._ensure_schedule()
        cpds = [self._bn.cpd(node) for node in self._cpd_members[idx]]
        # A one-scenario fold orders its factors by table size, ties in
        # member order (sorted() is stable).
        cpds.sort(key=lambda cpd: cpd.factor.values.size)
        steps: List[Tuple[Optional[str], np.ndarray]] = []
        mask = None
        for cpd in cpds:
            factor = cpd.factor
            index = self._table_index(idx, factor.variables, factor.values.shape)
            if cpd.variable in swapped:
                steps.append((cpd.variable, index))
                continue
            values = factor.values.reshape(-1)[index]
            if cpd.is_deterministic():
                mask = values if mask is None else mask * values
            else:
                steps.append((None, values))
        plan = _InstallPlan(steps, mask, schedule.work_sizes[idx])
        if swapped:
            self._plans[key] = plan
        return plan

    def _plans_for(self, variables: Iterable[str]) -> Dict[int, _InstallPlan]:
        """The install plan of every clique holding a CPD of
        ``variables``, keyed by clique."""
        swapped: Dict[int, List[str]] = {}
        for var in variables:
            swapped.setdefault(self._cpd_assignment[var], []).append(var)
        return {
            idx: self._install_plan(idx, frozenset(names))
            for idx, names in swapped.items()
        }

    def _evidence_vector(self, idx: int) -> Optional[np.ndarray]:
        """0/1 indicator of the evidence homed at clique ``idx``, in its
        storage layout (None without evidence there)."""
        hit = None
        for var, state in self._evidence.items():
            if self._home_clique[var] != idx:
                continue
            card = (self._cardinalities[var],)
            match = self._table_index(idx, (var,), card) == state
            hit = match if hit is None else hit & match
        return None if hit is None else hit.astype(np.float64)

    def _network_potential(self, idx: int) -> np.ndarray:
        """Clique ``idx``'s CPD product in storage layout (cached)."""
        values = self._potentials[idx]
        if values is None:
            values = np.empty(self._schedule.work_sizes[idx])
            self._install_plan(idx, frozenset()).fill(values, {})
            self._potentials[idx] = values
        return values

    def _clique_potential(self, idx: int) -> np.ndarray:
        """The network's potential for clique ``idx`` in storage layout:
        its CPD product times the evidence indicators homed there."""
        self._ensure_schedule()
        values = self._network_potential(idx)
        evidence = self._evidence_vector(idx)
        return values if evidence is None else values * evidence

    def _install(
        self,
        tables: Mapping[str, np.ndarray],
        rows: int,
        scatter: Optional[np.ndarray] = None,
    ) -> PropagationEngine:
        """The one install path into the one engine.

        Cliques holding a CPD of ``tables`` (``{var: (rows, *table)}``)
        get per-scenario rows, written by their install plan straight
        into the engine's buffers; every other clique gets the network's
        own potential, shared by the rows.  Evidence indicators multiply
        into both.  The engine is rebuilt when ``rows`` differs from the
        installed count; otherwise only cliques whose potential may have
        changed are re-set (the others keep their installed tables).
        Either way the next propagation is a full pass.
        """
        schedule = self._ensure_schedule()
        plans = self._plans_for(tables)
        engine = self._engine
        if engine is None or engine.batch_size != rows:
            # Release the old buffers before allocating the new ones.
            self._engine = engine = None
            engine = self._engine = PropagationEngine(schedule, batch_size=rows)
            touched: Iterable[int] = range(len(self.cliques))
        else:
            touched = self._stale | self._stacked | set(plans)
        scratch = np.empty(
            rows * max((plan.scratch_size for plan in plans.values()), default=0)
        )
        for idx in touched:
            plan = plans.get(idx)
            if plan is None:
                engine.set_potential(idx, self._clique_potential(idx))
                continue
            psi = engine.potential_rows(idx)
            plan.fill(psi, tables, scratch)
            evidence = self._evidence_vector(idx)
            if evidence is not None:
                np.multiply(psi, evidence, out=psi)
        self._stale = set()
        self._stacked = set(plans)
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
        replaced = {cpd.variable for cpd in cpds}
        affected = {self._cpd_assignment[var] for var in replaced}
        if self._potentials:
            for idx in affected:
                self._potentials[idx] = None
        # A plan reads the network's tables of the members it does not
        # swap; plans that swap every replaced member stay valid.
        self._plans = {
            (idx, swapped): plan
            for (idx, swapped), plan in self._plans.items()
            if replaced.intersection(self._cpd_members[idx]) <= swapped
        }
        self._stale |= affected
        if self._mask_supports and self._supports_violated(
            {cpd.variable: cpd.factor.values for cpd in cpds}
        ):
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

    def update_tables_batch(
        self,
        tables: Mapping[str, np.ndarray],
        rows: int,
        parents: Optional[Mapping[str, Sequence[str]]] = None,
    ) -> int:
        """Install ``rows`` scenarios for one batched propagation pass.

        ``tables[var]`` is a ``(rows, *table)`` stack of ``var``'s CPD
        tables, each laid out like the network's CPD (parent axes, then
        ``var``); every other CPD stays the network's.  ``parents``, if
        given, names each stacked variable's parents (absent: none) and
        must match the compiled network.  Unlike :meth:`update_cpds`
        this does not mutate the network: scenarios live only in the
        engine.  Returns ``rows``.  Query results with
        :meth:`marginals_batch` / :meth:`joint_marginal_batch`.

        Scenarios whose stacked rows are bytewise equal share one engine
        row: the engine is sized to the U distinct rows and the query
        methods gather rows back to ``rows``.  A row depends only on its
        own installed tables, so every duplicate gets exactly the row it
        would have computed alone.
        """
        if rows < 1:
            raise ValueError("need at least one scenario")
        tables = {
            var: np.asarray(stack, dtype=np.float64) for var, stack in tables.items()
        }
        for var, stack in tables.items():
            if var not in self._cpd_assignment:
                raise KeyError(f"unknown node {var!r}")
            cpd = self._bn.cpd(var)
            if parents is not None:
                given = tuple(parents.get(var, ()))
                if given != cpd.parents:
                    raise ValueError(
                        f"new CPD for {var!r} changes parents "
                        f"{cpd.parents} -> {given}; recompile instead"
                    )
            if stack.shape != (rows,) + cpd.factor.values.shape:
                raise ValueError(
                    f"new CPD stack for {var!r} has shape {stack.shape}, expected "
                    f"{(rows,) + cpd.factor.values.shape} (changes cardinality?)"
                )
        unique, scatter = rows, None
        if rows > 1 and not tables:
            # Nothing is swapped: every scenario is the network's own.
            unique, scatter = 1, np.zeros(rows, dtype=np.intp)
        elif rows > 1:
            reps, scatter = unique_rows(
                np.concatenate([t.reshape(rows, -1) for t in tables.values()], axis=1)
            )
            unique = reps.size
            if unique < rows:
                tables = {var: t[reps] for var, t in tables.items()}
            else:
                scatter = None
        if self._mask_supports and self._supports_violated(tables):
            self._invalidate_compiled()
        self._install(tables, unique, scatter)
        return rows

    def marginals_batch(
        self, variables: Sequence[str], skip_zero: bool = False
    ) -> Dict[str, np.ndarray]:
        """Posterior marginals of the installed scenario batch.

        Returns ``{var: (K, card) array}``; row ``k`` is scenario
        ``k``'s marginal, bitwise-identical to what a one-scenario
        install would produce (see :mod:`repro.bayesian.propagation`).
        Requires a prior :meth:`update_tables_batch`.  ``skip_zero=True``
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
                "no scenario batch installed; call update_tables_batch first"
            )
        return self._engine


    def _ensure_schedule(self) -> PropagationSchedule:
        """Build (once) the immutable message schedule and the network
        potentials in its storage layout.  Non-dense kernel modes run
        the support analysis here, so it is paid once per compile and
        serializes with the tree (cache hits skip it entirely)."""
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
            with get_tracer().span("compile.potentials", cliques=len(self.cliques)):
                self._potentials = [None] * len(self.cliques)
                for idx in range(len(self.cliques)):
                    self._network_potential(idx)
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

    def _supports_violated(self, tables: Mapping[str, np.ndarray]) -> bool:
        """Check replacement tables against their recorded mask supports.

        ``tables[var]`` holds one CPD table of ``var`` or a stack of them
        (leading axes), laid out like the network's CPD.  Violating
        nodes are added to ``_mask_exclude`` so a rebuilt schedule never
        trusts them again.  Returns True if any table has mass outside
        its recorded support.
        """
        violated = False
        for var, values in tables.items():
            recorded = self._mask_supports.get(var)
            if recorded is None:
                continue
            if ((values != 0) & ~recorded[1]).any():
                self._mask_exclude.add(var)
                violated = True
        return violated

    def _invalidate_compiled(self) -> None:
        """Drop the compiled schedule, the potentials and plans laid out
        for it, and the engine (support masks went stale); the next
        install re-analyzes and propagates in full."""
        self._schedule = None
        self._potentials = []
        self._plans = {}
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
        engine = self._engine
        for u, v in self.tree.edges:
            sep_vars = self._schedule.messages[(u, v)].sep_vars
            if not np.allclose(
                engine.joint_marginal(u, sep_vars, normalize=False),
                engine.joint_marginal(v, sep_vars, normalize=False),
                atol=atol,
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

    def row_footprint(
        self,
        variables: Iterable[str],
        lines: Iterable[str],
        pairs: Iterable[Tuple[str, str]] = (),
    ) -> Tuple[int, int]:
        """Bytes one scenario row needs when :meth:`update_tables_batch`
        swaps the CPDs of ``variables`` and the marginals of ``lines``
        and the joints of ``pairs`` are read, as ``(resident,
        transient)``.

        *Resident* bytes stay allocated between passes: the engine's
        buffers (:attr:`PropagationSchedule.row_bytes`) and the
        per-scenario potentials of the cliques those CPDs live in.
        *Transient* bytes live during one step of the call, and the
        steps run one after another, so the largest counts: the
        install (the stacked tables, their duplicate-collapse copies --
        :func:`unique_rows` holds :data:`UNIQUE_COPIES` of them and
        :data:`UNIQUE_INDEX_ENTRIES` of row indices -- and the gather
        scratch of the largest plan that needs one, see
        :class:`_InstallPlan`), the marginal sweep (one row sum per line
        and a packed read's segment sums; the results themselves are
        counted with the caller's result rows) or one pair joint
        (:meth:`PropagationSchedule.read_entries`).  A pass allocates
        nothing per row: every message and ratio lives in the engine.
        """
        schedule = self._ensure_schedule()
        variables = list(variables)
        entries = sum(self._bn.cpd(var).factor.values.size for var in variables)
        plans = self._plans_for(variables).values()
        psi = sum(plan.size for plan in plans)
        install = (
            (1 + UNIQUE_COPIES) * entries
            + UNIQUE_INDEX_ENTRIES
            + max((plan.scratch_size for plan in plans), default=0)
        )
        cards = []
        for line in lines:
            idx, axis = schedule.variable_axis[line]
            schedule.read_plan(idx, (axis,))  # compiled with the model, not in a call
            cards.append(schedule.shapes[idx][axis])
        steps = [install, len(cards) + max(cards, default=0)]
        for pair in pairs:
            for idx, clique in enumerate(self.cliques):
                if set(pair) <= clique:
                    order = schedule.orders[idx]
                    keep = tuple(i for i, v in enumerate(order) if v in pair)
                    steps.append(schedule.read_entries(idx, keep))
                    break
        return schedule.row_bytes + 8 * psi, 8 * max(steps)

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
