"""Compiled propagation schedules and in-place Hugin kernels.

The paper's headline split is *compile once, re-propagate in
milliseconds*: junction-tree construction (moralization, triangulation,
spanning tree) is paid once per circuit, while every new set of input
statistics only re-runs message passing.  This module makes the second
half of that bargain real:

- :class:`PropagationSchedule` is computed once per junction tree.  It
  fixes the collect/distribute message order, canonicalizes every
  clique's variable order, and precomputes, per directed message, the
  reduction kernel and broadcast shape that a Factor-based
  implementation would re-derive on every single message.

- :class:`PropagationEngine` owns preallocated clique belief buffers
  and separator message buffers and runs the Hugin update with in-place
  numpy kernels: planned reductions marginalize into the separator
  buffers, ``np.multiply(..., out=)`` absorbs ratios, and the 0/0 = 0
  division mask is applied with ``np.divide(..., where=)`` on
  separator-sized arrays only (never on clique tables).

- **One buffer layout**: every belief and message buffer carries a
  leading scenario axis of length ``K`` (``batch_size``), and one
  collect/distribute pass propagates K independent input-statistics
  scenarios.  A single query is simply ``K = 1``.  Clique potentials
  may be shared across the rows (gate CPDs -- a plain
  ``(*clique_shape)`` array broadcast over the scenario axis) or
  per-scenario (:meth:`~PropagationEngine.set_potential_batch` with a
  ``(K, *clique_shape)`` stack).

- **Every propagation is a full pass**: :meth:`PropagationEngine.propagate`
  runs one complete collect + distribute whenever any potential was set
  since the last pass, and is a no-op otherwise.  The calibrated
  beliefs are therefore a pure function of the installed potentials --
  never of which scenarios the engine propagated before.

The message algebra is the classic Hugin scheme: during collect, each
clique's *partial* belief ``psi * prod(child messages)`` is built
bottom-up and its separator marginal becomes the upward message; during
distribute, the downward message is ``marg(parent belief) / upward
message`` (a separator-sized division), absorbed into the child belief
in place.  After both passes every belief equals the exact joint
marginal of its clique's scope times the probability of evidence.

Every kernel is elementwise or a reduction over non-scenario axes, so
row ``k`` of a K-row propagation goes through exactly the same
arithmetic, in the same order, as a one-row propagation over scenario
``k``'s potentials -- the results agree *bitwise*, not just to
tolerance.

- **Determinism-aware sparse kernels**: gate CPDs are 0/1 indicator
  tables, so most entries of a wide clique potential are *structurally*
  impossible under every input model.  Given per-clique feasibility
  masks (:class:`PropagationSchedule` ``clique_masks``), the schedule
  runs one boolean collect/distribute pass to compute each clique's and
  separator's exact feasible support, then compiles *packed* kernels
  for cliques below a density threshold: beliefs live in ``(K, nnz)``
  buffers, messages absorb through precomputed gather indices, and
  separator marginals use a grouped ``np.add.reduceat`` over index
  arrays instead of a dense reduction.  Separator buffers stay dense (they
  are small), so sparse and dense cliques mix freely in one tree.  The
  packed kernels keep the row-parity property above -- every gather is
  elementwise and every ``reduceat`` segment sums left-to-right per
  row -- but sparse results differ from *dense* results in the last
  few ulps (different association order), hence the ``<= 1e-12``
  sparse-vs-dense verification bar.  :meth:`PropagationEngine.belief`
  scatters a packed belief to a dense table on demand.
"""

from __future__ import annotations

import functools
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bayesian.factor import Factor
from repro.errors import (
    ConcurrentPropagationError,
    MemoryBudgetExceeded,
    ZeroBeliefError,
)
from repro.obs.metrics import get_metrics

__all__ = ["PropagationCounters", "PropagationSchedule", "PropagationEngine"]

#: ``kernel="auto"`` packs a clique whose propagated support density
#: (feasible / total entries) is at most this ...
PACK_DENSITY = 0.25
#: ... and whose table has at least this many entries (tiny tables are
#: faster dense).
PACK_MIN_STATES = 256
#: Bytes one batched pass may hold.  A compiled model records the bytes
#: one scenario row needs (``row_bytes``); ``query_many`` propagates at
#: most ``MEMORY_BUDGET_BYTES // row_bytes`` rows per pass, and a model
#: whose single row does not fit fails to compile with
#: :class:`~repro.errors.MemoryBudgetExceeded`.
MEMORY_BUDGET_BYTES = 256 * 2**20


def check_memory_budget(name: str, row_bytes: int) -> None:
    """Raise :class:`~repro.errors.MemoryBudgetExceeded` when one
    scenario row of ``name`` (``row_bytes``) exceeds
    :data:`MEMORY_BUDGET_BYTES`."""
    if row_bytes > MEMORY_BUDGET_BYTES:
        raise MemoryBudgetExceeded(
            f"{name}: one scenario row needs {row_bytes} bytes "
            f"(memory budget {MEMORY_BUDGET_BYTES})"
        )


def _exclusive(method):
    """Reentrancy tripwire for the buffer-mutating engine entry points.

    The engine's belief/message buffers are preallocated and updated in
    place, so two threads inside one engine silently corrupt each
    other's results.  This guard is *detection, not synchronization*: a
    second thread entering while another holds the guard gets an
    immediate typed :class:`ConcurrentPropagationError` instead of
    blocking (blocking would just serialize the corruption-free case
    while hiding the sharing bug).  Callers that want concurrency give
    each thread its own engine -- see ``repro.serve``'s per-model
    engine pool.  One uncontended ``Lock.acquire`` per *call* (not per
    message), so the single-thread cost is noise.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        if not self._guard.acquire(blocking=False):
            raise ConcurrentPropagationError(
                f"concurrent PropagationEngine.{method.__name__}: another "
                "thread is inside this engine and the preallocated "
                "belief/message buffers are mutated in place; use one "
                "engine per thread (e.g. repro.serve's engine pool)"
            )
        try:
            return method(self, *args, **kwargs)
        finally:
            self._guard.release()

    return wrapper


def _reduction_plan(shape: Tuple[int, ...], keep_axes: Sequence[int]):
    """Compile one sum-reduction ``shape -> keep_axes`` into a kernel plan.

    Adjacent axes with the same fate (kept / summed) are merged into
    single axes -- a pure reshape view on the C-contiguous engine
    buffers -- and the merged pattern picks the cheapest kernel:

    - ``("copy",)``                       nothing summed;
    - ``("dot", d, ones)``                one trailing summed run: a
      BLAS row-dot ``view(-1, d) @ ones``;
    - ``("vecmat", d, r, ones)``          one leading summed run:
      ``ones @ view(-1, d, r)``;
    - ``("sum", mshape, axes, oshape)``   the general interleaved
      case, ``np.add.reduce`` over the merged (coarser) summed axes.

    Every kernel reduces row ``k`` of a ``(K, *shape)`` buffer with
    exactly the same arithmetic for every ``K`` (the leading scenario
    axis is always kept, so it stacks ahead of the leading kept run),
    which is what keeps K-row and one-row propagation bitwise-identical.
    The general case is an axis sum, not ``np.einsum``: einsum's
    iteration order, and so its rounding, changes with the row count
    once a summed run outgrows numpy's buffer (c2670s's ``4^10``
    clique differed in the last ulp between K=1 and K=2).
    Plans are computed once per schedule and shared by every engine.
    """
    keep = set(keep_axes)
    runs: List[List[int]] = []  # [is_kept, merged size]
    for axis, size in enumerate(shape):
        flag = 1 if axis in keep else 0
        if runs and runs[-1][0] == flag:
            runs[-1][1] *= size
        else:
            runs.append([flag, size])
    drops = [i for i, (flag, _) in enumerate(runs) if not flag]
    if not drops:
        return ("copy",)
    if len(drops) == 1 and drops[0] == len(runs) - 1:
        d = runs[-1][1]
        return ("dot", d, np.ones(d))
    if len(drops) == 1 and drops[0] == 0:
        d = runs[0][1]
        r = 1
        for _, size in runs[1:]:
            r *= size
        return ("vecmat", d, r, np.ones(d))
    mshape = tuple(size for _, size in runs)
    axes = tuple(1 + i for i in drops)
    out_shape = tuple(size for flag, size in runs if flag)
    return ("sum", mshape, axes, out_shape)


def _reduce_sum(src: np.ndarray, plan, out: np.ndarray) -> None:
    """Run a :func:`_reduction_plan` kernel: sum ``src`` into ``out``.

    The ``-1`` reshape folds any leading scenario axis into the row
    dimension, so row ``k`` goes through the identical BLAS or axis-sum
    arithmetic whatever the row count.  Both arrays must be
    C-contiguous (all engine buffers are).
    """
    kind = plan[0]
    if kind == "dot":
        np.dot(src.reshape(-1, plan[1]), plan[2], out=out.reshape(-1))
    elif kind == "vecmat":
        np.matmul(
            plan[3], src.reshape(-1, plan[1], plan[2]), out=out.reshape(-1, plan[2])
        )
    elif kind == "sum":
        _, mshape, axes, out_shape = plan
        np.add.reduce(
            src.reshape((-1,) + mshape),
            axis=axes,
            out=out.reshape((-1,) + out_shape),
        )
    else:  # "copy": separator spans the whole clique
        np.copyto(out, src)


def _sep_flat_indices(
    flat_idx: np.ndarray,
    shape: Tuple[int, ...],
    keep_axes: Sequence[int],
    out_shape: Tuple[int, ...],
) -> np.ndarray:
    """Flat index on ``keep_axes`` of each packed clique entry."""
    coords = np.unravel_index(flat_idx, shape)
    return np.ravel_multi_index(tuple(coords[a] for a in keep_axes), out_shape)


def _sparse_reduce_plan(
    flat_idx: np.ndarray,
    shape: Tuple[int, ...],
    keep_axes: Sequence[int],
    out_shape: Tuple[int, ...],
):
    """Compile one packed-entries -> dense-target sum reduction.

    Returns ``(perm, seg_starts, out_index, covers_all)``: gather the
    packed entries with ``perm`` (``None`` when they are already in
    target order), sum each run of equal target indices with
    ``np.add.reduceat`` at ``seg_starts``, and scatter the segment sums
    to ``out_index``; ``covers_all`` means every target entry receives a
    segment, so the zero-fill can be skipped.
    """
    target_idx = _sep_flat_indices(flat_idx, shape, keep_axes, out_shape)
    perm = np.argsort(target_idx, kind="stable")
    if np.array_equal(perm, np.arange(perm.size)):
        perm, sorted_idx = None, target_idx
    else:
        sorted_idx = target_idx[perm]
    out_index, seg_starts = np.unique(sorted_idx, return_index=True)
    covers_all = out_index.size == int(np.prod(out_shape))
    return (perm, seg_starts, out_index, covers_all)


def _sparse_reduce(
    src: np.ndarray, plan, out: np.ndarray, scratch: Optional[np.ndarray] = None
) -> None:
    """Sum a packed ``lead + (nnz,)`` buffer onto a dense target.

    ``plan`` comes from :func:`_sparse_reduce_plan`.  Infeasible target
    entries are zero-filled (they receive no mass by construction).
    Per-segment ``reduceat`` sums are sequential left-to-right per
    row, so row ``k`` goes through the same arithmetic whatever the row
    count -- the engine's row parity survives the sparse path.
    ``scratch`` (a ``lead + (nnz,)`` buffer)
    avoids the gather temporary when a permutation is needed.
    """
    perm, seg_starts, out_index, covers_all = plan
    if perm is not None:
        if scratch is None:
            src = src[..., perm]
        else:
            np.take(src, perm, axis=-1, out=scratch)
            src = scratch
    segments = np.add.reduceat(src, seg_starts, axis=-1)
    flat = out.reshape(src.shape[:-1] + (-1,))
    if covers_all:
        np.copyto(flat, segments)
    else:
        flat.fill(0.0)
        flat[..., out_index] = segments


class _SparseClique:
    """Packed-entry index plans for one sparse clique.

    The packed order is the clique's feasible entries sorted by their
    parent-edge separator index (plain ascending flat order at a root),
    so the hottest reduction -- the upward message -- needs no gather
    permutation.  ``gathers[j]`` maps each packed entry to its flat
    separator index toward neighbor ``j`` (the message-absorb gather);
    ``reduce_plans[j]`` is the outgoing reduce plan toward ``j``.
    """

    __slots__ = ("flat_idx", "nnz", "gathers", "reduce_plans")

    def __init__(self, idx: int, mask: np.ndarray, schedule: "PropagationSchedule"):
        shape = schedule.shapes[idx]
        flat = np.flatnonzero(mask)
        parent = schedule.parent[idx]
        if parent is not None:
            msg = schedule.messages[(idx, parent)]
            sep_idx = _sep_flat_indices(flat, shape, msg.keep_axes, msg.sep_shape)
            flat = flat[np.argsort(sep_idx, kind="stable")]
        self.flat_idx = flat
        self.nnz = int(flat.size)
        self.gathers: Dict[int, np.ndarray] = {}
        self.reduce_plans: Dict[int, tuple] = {}
        neighbors = ([parent] if parent is not None else []) + list(
            schedule.children[idx]
        )
        for j in neighbors:
            msg = schedule.messages[(idx, j)]
            self.gathers[j] = _sep_flat_indices(
                flat, shape, msg.keep_axes, msg.sep_shape
            )
            self.reduce_plans[j] = _sparse_reduce_plan(
                flat, shape, msg.keep_axes, msg.sep_shape
            )


class PropagationCounters:
    """Always-on work counters of one :class:`PropagationEngine`.

    Plain integer adds per message -- negligible next to the reductions they
    count -- so the engine can report its work (and benchmarks can emit
    a breakdown) without the global metrics registry being enabled.
    ``flops`` is the standard table-touch estimate: one unit per entry
    of each clique table marginalized or multiplied, scaled by the
    engine's row count.  ``scenarios_propagated`` counts ``K`` per
    propagation.
    """

    __slots__ = (
        "propagations",
        "messages_collect",
        "messages_distribute",
        "flops",
        "scenarios_propagated",
    )

    _FIELDS = __slots__

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for field in self._FIELDS:
            setattr(self, field, 0)

    @property
    def messages(self) -> int:
        """Total directed messages computed (collect + distribute)."""
        return self.messages_collect + self.messages_distribute

    def as_dict(self) -> Dict[str, int]:
        out = {field: getattr(self, field) for field in self._FIELDS}
        out["messages"] = self.messages
        return out

    def add(self, other: "PropagationCounters") -> None:
        """Accumulate another engine's counters (segment aggregation)."""
        for field in self._FIELDS:
            setattr(self, field, getattr(self, field) + getattr(other, field))


class _Message:
    """Precompiled metadata for one directed message u -> v.

    Holds no buffers: message storage lives on the engine so one
    immutable schedule can be shared by engines of any row count over
    the same tree.
    """

    __slots__ = (
        "source",
        "target",
        "sep_vars",
        "sep_shape",
        "keep_axes",
        "plan",
        "expand_shape",
    )

    def __init__(
        self,
        source: int,
        target: int,
        sep_vars: Tuple[str, ...],
        source_order: Tuple[str, ...],
        target_order: Tuple[str, ...],
        source_shape: Tuple[int, ...],
        sep_shape: Tuple[int, ...],
    ):
        self.source = source
        self.target = target
        self.sep_vars = sep_vars
        self.sep_shape = sep_shape
        #: axes of the source clique kept by the marginalization; both
        #: clique and separator orders are canonical (sorted), so the
        #: kept axes are increasing and the reduction output needs no
        #: transpose.
        self.keep_axes = [source_order.index(v) for v in sep_vars]
        #: compiled reduction kernel (merged axes, BLAS where the
        #: pattern allows); shared by every engine over the schedule.
        self.plan = _reduction_plan(source_shape, self.keep_axes)
        #: reshape that broadcasts a separator table against the target
        #: clique without any transpose (again: canonical orders).
        sep_cards = dict(zip(sep_vars, sep_shape))
        self.expand_shape = tuple(sep_cards.get(v, 1) for v in target_order)


class PropagationSchedule:
    """Fixed message order + axis metadata for one junction tree.

    Parameters
    ----------
    cliques:
        Clique scopes (frozensets of variable names).
    edges:
        Undirected tree edges as ``(u, v)`` clique-index pairs.
    cardinalities:
        State counts per variable.
    clique_masks:
        Optional per-clique 0/1 feasibility masks in the clique's
        canonical (sorted) variable order (``None`` entries mean full
        support).  Typically the AND of the deterministic gate CPDs
        assigned to each clique; non-deterministic CPDs must contribute
        all-ones so the analysis stays sound under *every* input model.
    kernel:
        ``"dense"`` (default) ignores the masks for kernel selection;
        ``"auto"`` packs cliques whose propagated support density is at
        most :data:`PACK_DENSITY` (and whose table has at least
        :data:`PACK_MIN_STATES` entries);
        ``"sparse"`` packs every clique with any infeasible entry.

    The schedule is immutable once built and is shared by every
    :class:`PropagationEngine` over the same tree.  Support analysis
    runs once here, so engines of any row count (and pickled artifacts)
    reuse it.
    """

    def __init__(
        self,
        cliques: Sequence[frozenset],
        edges: Iterable[Tuple[int, int]],
        cardinalities: Dict[str, int],
        clique_masks: Optional[Sequence[Optional[np.ndarray]]] = None,
        kernel: str = "dense",
    ):
        if kernel not in ("auto", "dense", "sparse"):
            raise ValueError(f"unknown kernel mode {kernel!r}")
        self.n_cliques = len(cliques)
        #: canonical (sorted) variable order per clique
        self.orders: List[Tuple[str, ...]] = [tuple(sorted(c)) for c in cliques]
        self.shapes: List[Tuple[int, ...]] = [
            tuple(cardinalities[v] for v in order) for order in self.orders
        ]
        #: table entries per clique (FLOP estimates, memory accounting)
        self.sizes: List[int] = [int(np.prod(s)) if s else 1 for s in self.shapes]

        neighbors: List[List[int]] = [[] for _ in range(self.n_cliques)]
        for u, v in edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        for adj in neighbors:
            adj.sort()  # deterministic DFS regardless of edge insertion order

        #: DFS pre-order (node, parent) pairs, one sublist per tree
        #: component; collect walks it in reverse, distribute forward.
        self.components: List[List[Tuple[int, Optional[int]]]] = []
        #: children of each node under the rooted orientation
        self.children: List[List[int]] = [[] for _ in range(self.n_cliques)]
        self.parent: List[Optional[int]] = [None] * self.n_cliques
        self.roots: List[int] = []
        visited: Set[int] = set()
        for root in range(self.n_cliques):
            if root in visited:
                continue
            self.roots.append(root)
            order: List[Tuple[int, Optional[int]]] = []
            stack: List[Tuple[int, Optional[int]]] = [(root, None)]
            while stack:
                node, parent = stack.pop()
                if node in visited:
                    continue
                visited.add(node)
                order.append((node, parent))
                if parent is not None:
                    self.parent[node] = parent
                    self.children[parent].append(node)
                for neighbor in reversed(neighbors[node]):
                    if neighbor not in visited:
                        stack.append((neighbor, node))
            self.components.append(order)

        #: directed messages keyed by (source, target)
        self.messages: Dict[Tuple[int, int], _Message] = {}
        for component in self.components:
            for node, parent in component:
                if parent is None:
                    continue
                sep_vars = tuple(sorted(cliques[node] & cliques[parent]))
                sep_shape = tuple(cardinalities[v] for v in sep_vars)
                for src, dst in ((node, parent), (parent, node)):
                    self.messages[(src, dst)] = _Message(
                        src,
                        dst,
                        sep_vars,
                        self.orders[src],
                        self.orders[dst],
                        self.shapes[src],
                        sep_shape,
                    )

        #: variable -> (clique index, axis) for batched marginal sweeps
        self.variable_axis: Dict[str, Tuple[int, int]] = {}
        for idx, order in enumerate(self.orders):
            for axis, var in enumerate(order):
                self.variable_axis.setdefault(var, (idx, axis))

        #: resolved kernel mode this schedule was compiled for
        self.kernel = kernel
        #: per-clique feasible-state masks (``None`` = full support)
        self.supports: List[Optional[np.ndarray]] = [None] * self.n_cliques
        #: feasible entries per clique (== ``sizes`` where support is full)
        self.support_nnz: List[int] = list(self.sizes)
        #: per-clique kernel choice; ``True`` cliques use packed buffers
        self.sparse: List[bool] = [False] * self.n_cliques
        #: compiled index plans for the sparse cliques
        self.sparse_cliques: Dict[int, _SparseClique] = {}
        #: entries each kernel actually touches per clique pass (``nnz``
        #: when sparse) -- the unit of the engine's FLOP estimates
        self.work_sizes: List[int] = list(self.sizes)
        #: feasible separator entries per directed tree edge (diagnostics)
        self.sep_support_nnz: Dict[Tuple[int, int], int] = {}
        if (
            kernel != "dense"
            and clique_masks is not None
            and any(mask is not None for mask in clique_masks)
        ):
            self._analyze_support(clique_masks, kernel)

    @property
    def row_bytes(self) -> int:
        """Bytes one scenario row adds to a :class:`PropagationEngine`
        over this schedule: its float64 beliefs (plus the gather
        scratch of packed cliques), upward messages and per-edge
        separator scratch."""
        packed = self.sparse_cliques
        entries = sum(
            2 * packed[i].nnz if i in packed else self.sizes[i]
            for i in range(self.n_cliques)
        )
        for (src, dst), msg in self.messages.items():
            sep = int(np.prod(msg.sep_shape))
            entries += 2 * sep if self.parent[src] == dst else sep
        return 8 * entries

    def _analyze_support(
        self, clique_masks: Sequence[Optional[np.ndarray]], kernel: str
    ) -> None:
        """Propagate feasibility masks and pick per-clique kernels.

        One boolean collect/distribute pass over the message schedule: a
        clique's *partial* mask is its CPD mask ANDed with every child's
        upward mask (ANY-reduced onto the separator), and its final mask
        additionally ANDs the ANY-reduce of the parent's final mask.
        The result is exact for Hugin propagation: wherever a final mask
        is 0, the calibrated belief entry is structurally 0 under every
        assignment of the unmasked (input) potentials, because an
        upward-message zero forces the matching parent-belief slice to
        zero and vice versa.
        """

        def any_reduce(mask: np.ndarray, keep_axes: Sequence[int]) -> np.ndarray:
            axes = tuple(a for a in range(mask.ndim) if a not in keep_axes)
            return mask.any(axis=axes) if axes else mask

        n = self.n_cliques
        psi = [
            np.ones(self.shapes[i], dtype=bool)
            if clique_masks[i] is None
            else np.asarray(clique_masks[i], dtype=bool)
            for i in range(n)
        ]
        partial: List[Optional[np.ndarray]] = [None] * n
        up: Dict[Tuple[int, int], np.ndarray] = {}
        for component in self.components:
            for node, parent in reversed(component):
                mask = psi[node]
                for child in self.children[node]:
                    msg = self.messages[(child, node)]
                    mask = mask & up[(child, node)].reshape(msg.expand_shape)
                partial[node] = mask
                if parent is not None:
                    msg = self.messages[(node, parent)]
                    up[(node, parent)] = any_reduce(mask, msg.keep_axes)
        final: List[Optional[np.ndarray]] = [None] * n
        for component in self.components:
            for node, parent in component:
                if parent is None:
                    final[node] = partial[node]
                    continue
                msg = self.messages[(parent, node)]
                down = any_reduce(final[parent], msg.keep_axes)
                final[node] = partial[node] & down.reshape(msg.expand_shape)
                sep = down & up[(node, parent)]
                sep_nnz = int(np.count_nonzero(sep))
                self.sep_support_nnz[(parent, node)] = sep_nnz
                self.sep_support_nnz[(node, parent)] = sep_nnz

        for idx in range(n):
            mask = final[idx]
            nnz = int(np.count_nonzero(mask))
            self.support_nnz[idx] = nnz
            size = self.sizes[idx]
            if nnz >= size or nnz == 0:
                # Full support -- or a degenerate, everywhere-infeasible
                # clique (contradictory determinism): stay dense.
                continue
            self.supports[idx] = mask
            if kernel == "sparse":
                pick = True
            else:
                pick = nnz / size <= PACK_DENSITY and size >= PACK_MIN_STATES
            if pick:
                self.sparse[idx] = True
                self.work_sizes[idx] = nnz
                self.sparse_cliques[idx] = _SparseClique(idx, mask, self)


class PropagationEngine:
    """Preallocated Hugin propagation over one compiled schedule.

    The engine holds the clique potentials (``psi``), the upward
    separator messages and the calibrated clique beliefs.
    :meth:`set_potential` replaces one ``psi``; the next
    :meth:`propagate` runs a full collect + distribute pass.  With no
    potential set since the last pass, :meth:`propagate` is a no-op.

    Parameters
    ----------
    schedule:
        The shared, immutable :class:`PropagationSchedule`.
    batch_size:
        Scenario rows ``K >= 1`` (default 1).  Every belief and message
        buffer carries a leading axis of length ``K`` and one
        :meth:`propagate` call propagates all K scenarios.  Potentials
        may be shared across the rows (:meth:`set_potential`,
        broadcast) or per-scenario (:meth:`set_potential_batch`), and
        :meth:`marginals` returns ``(K, card)`` arrays.

    Cliques the schedule compiled as sparse keep their beliefs in
    packed ``(K, nnz)`` buffers; separator messages stay dense.
    :meth:`belief` scatters a packed belief to a dense table on demand.
    """

    def __init__(self, schedule: PropagationSchedule, batch_size: int = 1):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.schedule = schedule
        self.batch_size = int(batch_size)
        lead = (self.batch_size,)
        n = schedule.n_cliques
        packed = schedule.sparse_cliques
        self._psi: List[Optional[np.ndarray]] = [None] * n
        self._beta: List[np.ndarray] = [
            np.empty(
                lead + ((packed[i].nnz,) if i in packed else schedule.shapes[i])
            )
            for i in range(n)
        ]
        #: upward (child -> parent) message buffers, read by the
        #: parent's collect and by the child's distribute division
        self._msg: Dict[Tuple[int, int], np.ndarray] = {
            (node, parent): np.empty(lead + msg.sep_shape)
            for (node, parent), msg in schedule.messages.items()
            if schedule.parent[node] == parent
        }
        #: scratch separator buffers, per directed edge
        self._scratch: Dict[Tuple[int, int], np.ndarray] = {
            key: np.empty(lead + msg.sep_shape)
            for key, msg in schedule.messages.items()
        }
        #: packed gather scratch, one per sparse clique
        self._sp_scratch: Dict[int, np.ndarray] = {
            i: np.empty(lead + (sp.nnz,)) for i, sp in packed.items()
        }
        #: per-edge broadcast shapes with the leading scenario axis
        self._expand = {
            k: lead + m.expand_shape for k, m in schedule.messages.items()
        }
        #: lazily compiled reduction plans for marginal sweeps, keyed by
        #: (clique index, kept axes)
        self._marginal_plans: Dict[Tuple[int, Tuple[int, ...]], tuple] = {}
        #: a potential was set since the last pass
        self._stale = True
        #: reentrancy tripwire (see :func:`_exclusive`); never held
        #: across calls, so pickling drops and recreates it.
        self._guard = threading.Lock()
        #: always-on work counters (cheap int adds; see PropagationCounters)
        self.counters = PropagationCounters()
        #: counter totals already mirrored into the global registry
        self._published: Dict[str, int] = {}
        #: bytes held by the preallocated belief/message/scratch buffers
        self.factor_bytes = schedule.row_bytes * self.batch_size

    def __getstate__(self):
        # Locks do not pickle; the guard is never held across calls, so
        # dropping it here and recreating it on load is exact.
        state = dict(self.__dict__)
        del state["_guard"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._guard = threading.Lock()

    # ------------------------------------------------------------------
    # Potential updates
    # ------------------------------------------------------------------

    @_exclusive
    def set_potential(self, idx: int, potential: Factor) -> None:
        """Install clique ``idx``'s potential for the next pass.

        ``potential`` must span exactly the clique's scope; any axis
        order is accepted and canonicalized here (a transpose view, no
        copy).  The table is shared by every scenario row (it
        broadcasts over the scenario axis) -- use
        :meth:`set_potential_batch` for per-scenario tables.  The table
        is held by reference, so callers must never mutate an installed
        table in place.
        """
        order = self.schedule.orders[idx]
        if potential.variables != order:
            potential = potential.permute(order)
        if potential.values.shape != self.schedule.shapes[idx]:
            raise ValueError(
                f"potential for clique {idx} has shape {potential.values.shape}, "
                f"expected {self.schedule.shapes[idx]}"
            )
        values = potential.values
        sp = self.schedule.sparse_cliques.get(idx)
        if sp is not None:
            # Packing keeps only the *final* (calibrated) support.  An
            # initial potential may carry mass outside it -- entries the
            # message products annihilate -- and dropping that mass here
            # is exact: such entries only ever feed separator indices
            # whose support is empty, which in turn only touch other
            # out-of-support entries.  Soundness against *changed*
            # deterministic CPDs is enforced upstream
            # (JunctionTree.update_cpds re-checks recorded supports).
            values = values.reshape(-1)[sp.flat_idx]
        self._install_psi(idx, values)

    @_exclusive
    def set_potential_batch(self, idx: int, values: np.ndarray) -> None:
        """Install per-scenario potentials for clique ``idx``.

        ``values`` must be a ``(K, *clique_shape)`` stack in the
        clique's canonical (sorted) variable order; scenario ``k``'s
        table is ``values[k]``.
        """
        values = np.asarray(values, dtype=np.float64)
        expected = (self.batch_size,) + self.schedule.shapes[idx]
        if values.shape != expected:
            raise ValueError(
                f"batched potential for clique {idx} has shape {values.shape}, "
                f"expected {expected}"
            )
        sp = self.schedule.sparse_cliques.get(idx)
        if sp is not None:
            # Same silent out-of-support drop as set_potential (exact;
            # see the comment there).
            values = values.reshape(self.batch_size, -1)[:, sp.flat_idx]
        self._install_psi(idx, values)

    def _install_psi(self, idx: int, values: np.ndarray) -> None:
        self._psi[idx] = values
        self._stale = True

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _seed_belief(self, node: int) -> None:
        """Rebuild ``node``'s partial belief: psi times child messages.

        Dense cliques use the fused first multiply (psi * first child
        message lands in beta directly -- same elementwise arithmetic as
        copy-then-multiply, one full pass cheaper).  Packed cliques
        gather each child message at the packed entries' separator
        indices and multiply elementwise, never materializing the dense
        table.
        """
        schedule = self.schedule
        beta = self._beta[node]
        psi = self._psi[node]
        children = schedule.children[node]
        sp = schedule.sparse_cliques.get(node)
        if sp is None:
            if children:
                key = (children[0], node)
                np.multiply(
                    psi, self._msg[key].reshape(self._expand[key]), out=beta
                )
                for child in children[1:]:
                    key = (child, node)
                    np.multiply(
                        beta, self._msg[key].reshape(self._expand[key]), out=beta
                    )
            else:
                np.copyto(beta, psi)
            return
        if not children:
            np.copyto(beta, psi)
            return
        scratch = self._sp_scratch[node]
        lead = beta.shape[:-1]
        child = children[0]
        msg = self._msg[(child, node)].reshape(lead + (-1,))
        np.take(msg, sp.gathers[child], axis=-1, out=scratch)
        np.multiply(psi, scratch, out=beta)
        for child in children[1:]:
            msg = self._msg[(child, node)].reshape(lead + (-1,))
            np.take(msg, sp.gathers[child], axis=-1, out=scratch)
            np.multiply(beta, scratch, out=beta)

    def propagate(self) -> None:
        """One full collect + distribute pass, if any potential was set
        since the last one.

        With nothing set it returns at once, without taking the
        reentrancy guard, so queries that read one install twice
        (marginals, then boundary joints) propagate once and concurrent
        readers of a calibrated engine are safe.
        """
        if self._stale:
            self._propagate()

    @_exclusive
    def _propagate(self) -> None:
        schedule = self.schedule
        if any(psi is None for psi in self._psi):
            missing = [i for i, psi in enumerate(self._psi) if psi is None]
            raise RuntimeError(f"cliques {missing} have no potential set")
        counters = self.counters
        scale = self.batch_size

        # Collect: build partial beliefs bottom-up and their upward
        # messages.
        for component in schedule.components:
            for node, parent in reversed(component):
                self._seed_belief(node)
                children = schedule.children[node]
                if children:
                    counters.flops += (
                        len(children) * schedule.work_sizes[node] * scale
                    )
                if parent is not None:
                    key = (node, parent)
                    sp = schedule.sparse_cliques.get(node)
                    if sp is None:
                        _reduce_sum(
                            self._beta[node],
                            schedule.messages[key].plan,
                            self._msg[key],
                        )
                    else:
                        _sparse_reduce(
                            self._beta[node],
                            sp.reduce_plans[parent],
                            self._msg[key],
                            self._sp_scratch[node],
                        )
                    counters.messages_collect += 1
                    counters.flops += schedule.work_sizes[node] * scale

        # Distribute: parent beliefs are complete when visited in
        # pre-order; each sends its downward message to the child.
        for component in schedule.components:
            for node, parent in component:
                if parent is not None:
                    self._absorb_from_parent(node, parent)

        self._stale = False
        counters.propagations += 1
        counters.scenarios_propagated += scale
        self._publish_metrics()

    def _publish_metrics(self) -> None:
        """Mirror cumulative counters into the global registry, if on.

        Counters are always maintained locally; this just re-exports the
        totals after each propagation so reports see live numbers.  One
        guarded call per propagation -- nothing on the per-message path.
        """
        registry = get_metrics()
        if not registry.enabled:
            return
        counters = self.counters
        registry.counter("engine.propagations").inc(1)
        for name, field in (
            ("engine.messages", "messages"),
            ("engine.messages_collect", "messages_collect"),
            ("engine.messages_distribute", "messages_distribute"),
            ("engine.flops", "flops"),
            ("engine.scenarios_propagated", "scenarios_propagated"),
        ):
            total = getattr(counters, field)
            published = self._published.get(name, 0)
            registry.counter(name).inc(total - published)
            self._published[name] = total
        registry.gauge("engine.factor_bytes.peak").set_max(self.factor_bytes)
        registry.gauge("engine.batch_size.peak").set_max(self.batch_size)

    def _absorb_from_parent(self, node: int, parent: int) -> None:
        """Send the downward message parent -> node and absorb it into
        the child's partial belief."""
        schedule = self.schedule
        down_key = (parent, node)
        up_key = (node, parent)
        counters = self.counters
        counters.messages_distribute += 1
        counters.flops += (
            schedule.work_sizes[parent] + schedule.work_sizes[node]
        ) * self.batch_size

        # marg(parent belief) onto the separator, then divide by the
        # upward message.  Wherever the upward message is zero the
        # parent belief's slice is zero too (it contains that message
        # as a factor), so the masked division's zero-fill is exact.
        new_sep = self._scratch[down_key]
        sp_parent = schedule.sparse_cliques.get(parent)
        if sp_parent is None:
            _reduce_sum(
                self._beta[parent], schedule.messages[down_key].plan, new_sep
            )
        else:
            _sparse_reduce(
                self._beta[parent],
                sp_parent.reduce_plans[node],
                new_sep,
                self._sp_scratch[parent],
            )
        up_values = self._msg[up_key]
        ratio = self._scratch[up_key]
        ratio.fill(0.0)
        np.divide(new_sep, up_values, out=ratio, where=up_values != 0)

        beta = self._beta[node]
        sp = schedule.sparse_cliques.get(node)
        if sp is None:
            np.multiply(beta, ratio.reshape(self._expand[down_key]), out=beta)
            return
        # Packed belief: gather the separator-sized ratio at the packed
        # entries' separator indices and multiply elementwise.
        scratch = self._sp_scratch[node]
        lead = beta.shape[:-1]
        np.take(ratio.reshape(lead + (-1,)), sp.gathers[parent], axis=-1, out=scratch)
        np.multiply(beta, scratch, out=beta)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _dense_belief(self, idx: int) -> np.ndarray:
        """Clique ``idx``'s belief as a dense ``(K, *clique_shape)`` array.

        Dense cliques return the belief buffer itself; a packed belief
        is scattered onto a fresh zero table (out-of-support entries are
        structurally zero).
        """
        beta = self._beta[idx]
        sp = self.schedule.sparse_cliques.get(idx)
        if sp is None:
            return beta
        dense = np.zeros((self.batch_size,) + self.schedule.shapes[idx])
        dense.reshape(self.batch_size, -1)[:, sp.flat_idx] = beta
        return dense

    def belief(self, idx: int) -> np.ndarray:
        """Calibrated, unnormalized belief of clique ``idx``.

        A ``(K, *clique_shape)`` array in the clique's canonical
        (sorted) variable order -- a fresh copy, scattered from the
        packed buffer on demand for sparse cliques.  Row ``k`` sums to
        scenario ``k``'s probability of evidence.  A pure read, so it
        needs no reentrancy guard.
        """
        dense = self._dense_belief(idx)
        return dense.copy() if dense is self._beta[idx] else dense

    @_exclusive
    def marginals(
        self, variables: Sequence[str], skip_zero: bool = False
    ) -> Dict[str, np.ndarray]:
        """Normalized single-variable marginals, ``{var: (K, card)}``.

        Variables are grouped by home clique; each clique's belief is
        reduced onto the requested axes with **one** planned reduction
        per clique and the (tiny) reduced table is then swept per
        variable, instead of one full-table reduction per variable.
        Row ``k`` is scenario ``k``'s marginal.  Zero-mass beliefs raise
        :class:`ZeroBeliefError` carrying a ``batch_indices`` tuple that
        names the offending rows; ``skip_zero=True`` instead fills their
        rows with NaN so the remaining scenarios are unaffected.
        """
        schedule = self.schedule
        by_clique: Dict[int, List[str]] = {}
        for var in variables:
            location = schedule.variable_axis.get(var)
            if location is None:
                raise KeyError(f"unknown variable {var!r}")
            by_clique.setdefault(location[0], []).append(var)
        k = self.batch_size
        out: Dict[str, np.ndarray] = {}
        for idx, group in by_clique.items():
            beta = self._beta[idx]
            ndim = len(schedule.shapes[idx])
            totals = beta.reshape(k, -1).sum(axis=1)
            zero = totals <= 0
            bad = None
            if zero.any():
                if not skip_zero:
                    raise ZeroBeliefError.for_rows(np.flatnonzero(zero))
                bad = zero
                totals = np.where(zero, 1.0, totals)

            sp = schedule.sparse_cliques.get(idx)
            keep = sorted({schedule.variable_axis[v][1] for v in group})
            joint_shape = tuple(schedule.shapes[idx][a] for a in keep)
            if sp is None and len(keep) == ndim:
                joint = beta
            else:
                # A packed belief always reduces through the sparse
                # kernel (even onto the full clique scope), so every row
                # count takes the same arithmetic.
                plan_key = (idx, tuple(keep))
                plan = self._marginal_plans.get(plan_key)
                if plan is None:
                    if sp is None:
                        plan = _reduction_plan(schedule.shapes[idx], keep)
                    else:
                        plan = _sparse_reduce_plan(
                            sp.flat_idx, schedule.shapes[idx], keep, joint_shape
                        )
                    self._marginal_plans[plan_key] = plan
                joint = np.empty((k,) + joint_shape)
                if sp is None:
                    _reduce_sum(beta, plan, joint)
                else:
                    _sparse_reduce(beta, plan, joint, self._sp_scratch[idx])
            for var in group:
                pos = keep.index(schedule.variable_axis[var][1])
                plan_key = (idx, tuple(keep), pos)
                plan = self._marginal_plans.get(plan_key)
                if plan is None:
                    plan = _reduction_plan(joint_shape, [pos])
                    self._marginal_plans[plan_key] = plan
                result = np.empty((k, joint_shape[pos]))
                _reduce_sum(joint, plan, result)
                result /= totals[:, None]
                if bad is not None:
                    result[bad] = np.nan
                out[var] = result
        return out

    def joint_marginal(self, idx: int, variables: Sequence[str]) -> np.ndarray:
        """Normalized joint over ``variables`` from clique ``idx``.

        Returns a ``(K, card_1, ..., card_m)`` array in the order of
        ``variables``: the dense belief (:meth:`belief`'s scatter) is
        reduced with ``ndarray.sum`` over the dropped axes and divided
        by per-row totals, both elementwise-identical per row.  Like
        :meth:`belief` a pure read: concurrent readers are safe.
        """
        order = self.schedule.orders[idx]
        wanted = set(variables)
        missing = wanted - set(order)
        if missing:
            raise KeyError(f"clique {idx} does not contain {sorted(missing)}")
        beta = self._dense_belief(idx)
        drop = tuple(1 + i for i, v in enumerate(order) if v not in wanted)
        reduced = beta.sum(axis=drop) if drop else beta
        kept = [v for v in order if v in wanted]
        k = self.batch_size
        totals = reduced.reshape(k, -1).sum(axis=1)
        if (totals <= 0).any():
            raise ZeroBeliefError.for_rows(np.flatnonzero(totals <= 0))
        normalized = reduced / totals.reshape((k,) + (1,) * len(kept))
        perm = tuple(1 + kept.index(v) for v in variables)
        return normalized.transpose((0,) + perm)

