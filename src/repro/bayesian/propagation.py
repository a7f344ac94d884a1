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
  buffers, ``np.multiply(..., out=)`` absorbs ratios through compiled
  broadcasts (:func:`_broadcast_plan`), and the Hugin ratio divides by
  ``max(up, _TINY)`` on separator-sized arrays only (never on clique
  tables), which gives the exact 0/0 = 0 with no mask.

- **Every dense reduction streams through BLAS**: a compiled plan
  merges axes into kept and summed runs and sums each run with one
  BLAS step (a folded or stacked gemv, or a gemm against a 0/1
  selection matrix for tiny interleaved runs); two or more summed
  runs chain their steps through preallocated engine scratch (see
  :func:`_reduction_plan`).

- **One buffer layout**: every belief and message buffer carries a
  leading scenario axis of length ``K`` (``batch_size``), and one
  collect/distribute pass propagates K independent input-statistics
  scenarios.  A single query is simply ``K = 1``.  Clique potentials
  may be shared across the rows (:meth:`~PropagationEngine.set_potential`,
  broadcast over the scenario axis) or per-scenario
  (:meth:`~PropagationEngine.potential_rows`, filled in place).

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
  arrays instead of a dense reduction.  An edge touching a packed
  clique stores its separator over the live entries only
  (:attr:`_Message.live`): the packed side's ``reduceat`` segments are
  exactly those entries, and a dense side reduces onto, or spreads
  over, the whole separator in scratch, so sparse and dense cliques mix
  freely in one tree.  The
  packed kernels keep the row-parity property above -- every gather is
  elementwise and every ``reduceat`` segment sums left-to-right per
  row -- but sparse results differ from *dense* results in the last
  few ulps (different association order), hence the ``<= 1e-12``
  sparse-vs-dense verification bar.

- **Extraction reads the storage layout**: :meth:`PropagationEngine.marginals`
  reduces each variable straight from its home clique's buffer with
  one cached read plan per ``(clique, axis)`` on the schedule -- a
  sparse reduction from ``(K, nnz)`` onto ``(K, card)`` for a packed
  clique, a BLAS chain for a dense one -- and
  :meth:`~PropagationEngine.joint_marginal` does the same onto a
  pair's axes, so no clique or joint table is materialized.  Only the
  diagnostic :meth:`PropagationEngine.belief` scatters a packed belief
  to a dense table.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

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
#: Entries one folded ``dot`` call may cover.  OpenBLAS splits a gemv
#: of more than about 460k entries across threads, and a thread's share
#: of the rows need not be a multiple of 4, so a row's kernel -- and
#: its rounding -- would depend on the row count.  A fold is therefore
#: cut into calls of at most this many entries, each on one thread.
FOLD_ENTRIES = 2**16
#: Largest ``(d, r)`` matrix a summed run behind kept entries reduces
#: through one gemm per scenario rather than one tiny gemv per kept
#: entry (the per-call cost dominates below this size).
GEMM_ENTRIES = 64
#: Shortest innermost run a dense broadcast multiply walks.  numpy runs
#: a broadcast with a shorter inner run through its buffered iterator
#: at 2-5x the cost of a same-shape multiply, so a separator is first
#: expanded over its innermost broadcast runs into engine scratch (see
#: :func:`_broadcast_plan`).
BROADCAST_RUN = 16
#: The smallest positive float64: a Hugin ratio divides by
#: ``max(up, _TINY)``, which is ``up`` itself wherever ``up > 0`` and
#: turns 0/0 into 0/_TINY = 0 where it is not (a zero upward entry
#: zeroes every parent entry it multiplied), with no mask and no fill.
_TINY = float(np.nextafter(0.0, 1.0))


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
    single runs -- a pure reshape view on the C-contiguous engine
    buffers.  Each summed run is one BLAS step; the largest run goes
    first, so the intermediates stay small:

    - ``("copy",)``                    nothing summed;
    - ``("dot", m, d, ones, chunk)``   a trailing summed run of ``d``
      after ``m`` rows per scenario, ``m`` a power of 4 (every LIDAG
      run): the rows of ``chunk`` scenarios at a time fold into one
      gemv ``view(-1, d) @ ones``;
    - ``("matvec", m, d, ones)``       the same shape for any other
      ``m``, or a scenario too large to fold: a stacked
      ``view(-1, m, d) @ ones``, one gemv per scenario;
    - ``("vecmat", d, r, ones)``       a summed run followed by ``r``
      kept entries: ``ones @ view(-1, d, r)``, one gemv per scenario
      and kept entry of the runs before it;
    - ``("gemm", a, d, r, sel)``       the same run behind ``a > 1``
      kept entries when the ``(d, r)`` matrices are tiny (at most
      :data:`GEMM_ENTRIES`): one gemm per scenario,
      ``view(-1, a, d * r) @ sel`` with the 0/1 matrix ``sel`` adding
      up the ``d`` slices, instead of ``a`` tiny gemvs (exact: the
      zero products add nothing);
    - ``("chain", steps, sizes)``      two or more summed runs: the
      steps above in order, ``sizes[i]`` entries per scenario out of
      step ``i``; the intermediates live in caller scratch of
      :func:`_plan_scratch` entries per scenario.

    Every step reduces row ``k`` of a ``(K, *shape)`` buffer with the
    same arithmetic for every ``K``: the stacked steps make one BLAS
    call of a K-independent shape per scenario, and a ``dot`` call
    stays on one thread (:data:`FOLD_ENTRIES`), where every row of a
    power-of-4 kept run takes OpenBLAS's 4-row kernel whatever the row
    count (``tests/bayesian/test_reduce_sum.py`` pins the shapes).
    There is no general axis sum: ``np.add.reduce`` over interleaved
    axes walks short strided inner runs and took 6.8-9.3 ms on
    ``(64, 1024, 4, 4)`` over axes ``(1, 3)``, where the chain takes
    0.4 ms.  Plans are computed once per schedule.
    """
    keep = set(keep_axes)
    runs = _runs(shape, [axis in keep for axis in range(len(shape))])
    total = math.prod(shape)
    steps, sizes = [], []
    while True:
        summed = [i for i, (flag, _) in enumerate(runs) if not flag]
        if not summed:
            break
        i = max(summed, key=lambda j: (runs[j][1], j))
        d = runs[i][1]
        before = math.prod(size for _, size in runs[:i])
        if i == len(runs) - 1:
            m = before
            chunk = FOLD_ENTRIES // (m * d)
            if m >= 4 and m & (m - 1) == 0 and m.bit_length() % 2 == 1 and chunk > 1:
                steps.append(("dot", m, d, _ones(d), chunk))
            else:
                steps.append(("matvec", m, d, _ones(d)))
        else:
            r = total // (before * d)
            if before > 1 and d * r <= GEMM_ENTRIES:
                steps.append(("gemm", before, d, r, _selection(d, r)))
            else:
                steps.append(("vecmat", d, r, _ones(d)))
        total //= d
        sizes.append(total)
        del runs[i]
        if 0 < i < len(runs):  # the kept runs either side now touch
            runs[i - 1][1] *= runs.pop(i)[1]
    if not steps:
        return ("copy",)
    if len(steps) == 1:
        return steps[0]
    return ("chain", tuple(steps), tuple(sizes))


def _runs(shape: Tuple[int, ...], kept: Sequence[bool]) -> List[List[int]]:
    """Adjacent axes with the same fate merged: ``[is_kept, size]`` per
    run, each a pure reshape of a C-contiguous buffer."""
    runs: List[List[int]] = []
    for size, flag in zip(shape, kept):
        flag = int(flag)
        if runs and runs[-1][0] == flag:
            runs[-1][1] *= size
        else:
            runs.append([flag, size])
    return runs


@functools.lru_cache(maxsize=None)
def _ones(d: int) -> np.ndarray:
    """The all-ones vector a plan sums a run of ``d`` with, shared by
    every plan (read-only)."""
    ones = np.ones(d)
    ones.flags.writeable = False
    return ones


@functools.lru_cache(maxsize=None)
def _selection(d: int, r: int) -> np.ndarray:
    """The ``(d * r, r)`` 0/1 matrix a ``gemm`` step multiplies by: row
    ``j * r + i`` selects output ``i``, so the product adds up the
    ``d`` slices of ``r`` entries.  Shared by every plan (read-only)."""
    sel = np.tile(np.eye(r), (d, 1))
    sel.flags.writeable = False
    return sel


def _plan_scratch(plan) -> int:
    """Scratch entries per scenario a :func:`_reduction_plan` needs."""
    return sum(plan[2][:-1]) if plan[0] == "chain" else 0


def _reduce_sum(
    src: np.ndarray, plan, out: np.ndarray, scratch: Optional[np.ndarray] = None
) -> None:
    """Run a :func:`_reduction_plan` kernel: sum ``src`` into ``out``.

    The ``-1`` reshapes fold the leading scenario axis into the stack
    or row dimension.  Both arrays must be C-contiguous (all engine
    buffers are); a ``chain`` writes its intermediates into
    ``scratch``, a flat buffer of at least ``K * _plan_scratch(plan)``
    entries.
    """
    kind = plan[0]
    if kind == "dot":
        _, m, d, ones, chunk = plan
        rows = src.reshape(-1, m * d)
        sums = out.reshape(-1, m)
        for start in range(0, len(rows), chunk):
            np.dot(
                rows[start : start + chunk].reshape(-1, d),
                ones,
                out=sums[start : start + chunk].reshape(-1),
            )
    elif kind == "matvec":
        _, m, d, ones = plan
        np.matmul(src.reshape(-1, m, d), ones, out=out.reshape(-1, m))
    elif kind == "vecmat":
        _, d, r, ones = plan
        np.matmul(ones, src.reshape(-1, d, r), out=out.reshape(-1, r))
    elif kind == "gemm":
        _, a, d, r, sel = plan
        np.matmul(src.reshape(-1, a, d * r), sel, out=out.reshape(-1, a, r))
    elif kind == "chain":
        _, steps, sizes = plan
        rows = out.size // sizes[-1]
        offset = 0
        for step, size in zip(steps[:-1], sizes):
            part = scratch[offset : offset + rows * size]
            _reduce_sum(src, step, part)
            src, offset = part, offset + rows * size
        _reduce_sum(src, steps[-1], out)
    elif kind == "copy":  # the target spans the whole source
        np.copyto(out, src)
    else:
        raise ValueError(f"unknown reduction plan {kind!r}")


def _broadcast_plan(shape: Tuple[int, ...], expand: Tuple[int, ...]):
    """Compile how a dense separator table multiplies into a dense
    clique of ``shape``; ``expand`` is the separator's broadcast shape
    against it (1 on every axis it lacks).

    Adjacent axes with the same fate merge into kept and broadcast runs
    (:func:`_runs`).  Returns

    - ``("plain", expand)`` when the multiply already walks an
      innermost run of at least :data:`BROADCAST_RUN` entries, or when
      a longer run would need the whole clique;
    - ``("expand", view, xview, dst, sep_view, entries)`` otherwise: the
      separator, viewed as ``sep_view``, is first copied over the
      innermost runs (at least :data:`BROADCAST_RUN` entries) into
      scratch of shape ``dst`` (``entries`` per scenario), and the
      clique, viewed as ``view``, multiplies by that scratch viewed as
      ``xview``, whose innermost run is now long.

    The products are the same either way, so both are bitwise equal.
    """
    runs = _runs(shape, [e == size for size, e in zip(shape, expand)])
    cut, inner = len(runs), 1
    while cut > 0 and inner < BROADCAST_RUN:
        cut -= 1
        inner *= runs[cut][1]
    outer, tail = runs[:cut], runs[cut:]
    if all(flag for flag, _ in tail) or all(flag for flag, _ in outer):
        return ("plain", expand)
    kept = math.prod(size for flag, size in outer if flag)
    return (
        "expand",
        tuple(size for _, size in outer) + (inner,),
        tuple(size if flag else 1 for flag, size in outer) + (inner,),
        (kept,) + tuple(size for _, size in tail),
        (kept,) + tuple(size if flag else 1 for flag, size in tail),
        kept * inner,
    )


def _broadcast_multiply(
    src: np.ndarray, sep: np.ndarray, plan, out: np.ndarray, scratch: np.ndarray
) -> None:
    """``out = src * sep`` broadcast by a :func:`_broadcast_plan`.

    ``sep`` is a ``(K, sep_size)`` table and ``out`` a ``(K, *shape)``
    clique buffer; ``src`` is ``out`` itself, a per-row potential of
    the same shape, or a shared ``shape`` potential.  ``scratch`` is a
    flat buffer of at least ``K * entries`` for an ``expand`` plan.
    """
    rows = out.shape[0]
    if plan[0] == "plain":
        np.multiply(src, sep.reshape((rows,) + plan[1]), out=out)
        return
    _, view, xview, dst, sep_view, entries = plan
    x = scratch[: rows * entries].reshape((rows,) + dst)
    np.copyto(x, sep.reshape((rows,) + sep_view))
    lead = src.shape[: src.ndim + 1 - out.ndim]
    np.multiply(
        src.reshape(lead + view),
        x.reshape((rows,) + xview),
        out=out.reshape((rows,) + view),
    )


def _sep_flat_indices(
    flat_idx: np.ndarray,
    shape: Tuple[int, ...],
    keep_axes: Sequence[int],
    out_shape: Tuple[int, ...],
) -> np.ndarray:
    """Flat index on ``keep_axes`` of each packed clique entry."""
    if len(keep_axes) == 1:  # a home-axis read: one digit, no full unravel
        axis = keep_axes[0]
        return flat_idx // math.prod(shape[axis + 1 :]) % shape[axis]
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
    segment, so the sums land in the target directly.
    """
    return _segment_plan(
        _sep_flat_indices(flat_idx, shape, keep_axes, out_shape),
        math.prod(out_shape),
    )


def _segment_plan(target_idx: np.ndarray, size: int):
    """:func:`_sparse_reduce_plan` from each packed entry's flat index
    in a target of ``size`` entries."""
    perm = np.argsort(target_idx, kind="stable")
    if np.array_equal(perm, np.arange(perm.size)):
        perm, sorted_idx = None, target_idx
    else:
        sorted_idx = target_idx[perm]
    seg_starts = np.flatnonzero(np.diff(sorted_idx, prepend=-1))
    out_index = sorted_idx[seg_starts]
    return (perm, seg_starts, out_index, out_index.size == size)


def _sparse_reduce(
    src: np.ndarray, plan, out: np.ndarray, scratch: Optional[np.ndarray] = None
) -> None:
    """Sum a packed ``lead + (nnz,)`` buffer onto a target.

    ``plan`` comes from :func:`_sparse_reduce_plan`.  When the segments
    cover the target (every message: a packed separator holds exactly
    its live entries) ``reduceat`` writes the sums into it directly;
    otherwise infeasible target entries are zero-filled (they receive
    no mass by construction) and the sums scattered.  Per-segment
    ``reduceat`` sums are sequential left-to-right per row, so row
    ``k`` goes through the same arithmetic whatever the row count --
    the engine's row parity survives the sparse path.  ``scratch`` (a
    ``lead + (nnz,)`` buffer) avoids the gather temporary when a
    permutation is needed.  Every gather here and in the engine passes
    ``mode="clip"``: the indices are valid by construction, and numpy
    buffers ``out`` through a full-size temporary under the default
    ``mode="raise"``.
    """
    perm, seg_starts, out_index, covers_all = plan
    if perm is not None:
        if scratch is None:
            src = src[..., perm]
        else:
            np.take(src, perm, axis=-1, out=scratch, mode="clip")
            src = scratch
    flat = out.reshape(src.shape[:-1] + (-1,))
    if covers_all:
        np.add.reduceat(src, seg_starts, axis=-1, out=flat)
    else:
        flat.fill(0.0)
        flat[..., out_index] = np.add.reduceat(src, seg_starts, axis=-1)


class _SparseClique:
    """Packed-entry index plans for one sparse clique.

    The packed order is the clique's feasible entries sorted by their
    parent-edge separator index (plain ascending flat order at a root),
    so the hottest reduction -- the upward message -- needs no gather
    permutation.  The separator toward each neighbor ``j`` is stored
    over its live entries (:attr:`_Message.live`), and the packed
    entries map onto exactly those: ``gathers[j]`` is each packed
    entry's position in the stored separator (the message-absorb
    gather) and ``reduce_plans[j]`` the outgoing reduction, whose
    segments are the stored entries in order.
    """

    __slots__ = ("flat_idx", "nnz", "gathers", "reduce_plans")

    def __init__(self, idx: int, mask: np.ndarray, schedule: "PropagationSchedule"):
        shape = schedule.shapes[idx]
        flat = np.flatnonzero(mask)
        parent = schedule.parent[idx]
        sep_idx: Dict[int, np.ndarray] = {}
        if parent is not None:
            msg = schedule.messages[(idx, parent)]
            up = _sep_flat_indices(flat, shape, msg.keep_axes, msg.sep_shape)
            order = np.argsort(up, kind="stable")
            flat, sep_idx[parent] = flat[order], up[order]
        self.flat_idx = flat
        self.nnz = int(flat.size)
        self.gathers: Dict[int, np.ndarray] = {}
        self.reduce_plans: Dict[int, tuple] = {}
        for j in schedule.children[idx]:
            msg = schedule.messages[(idx, j)]
            sep_idx[j] = _sep_flat_indices(flat, shape, msg.keep_axes, msg.sep_shape)
        for j, target in sep_idx.items():
            msg = schedule.messages[(idx, j)]
            perm, seg_starts, stored, _ = _segment_plan(target, msg.sep_size)
            live = msg.live if msg.live is not None else np.arange(msg.sep_size)
            if not np.array_equal(stored, live):
                raise RuntimeError(
                    f"clique {idx}: packed entries do not cover the live "
                    f"separator toward clique {j}"
                )
            self.gathers[j] = np.searchsorted(stored, target)
            self.reduce_plans[j] = (perm, seg_starts, None, True)


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
        "sep_size",
        "keep_axes",
        "plan",
        "expand_shape",
        "bcast",
        "live",
    )

    def __init__(
        self,
        source: int,
        target: int,
        sep_vars: Tuple[str, ...],
        source_order: Tuple[str, ...],
        target_order: Tuple[str, ...],
        source_shape: Tuple[int, ...],
        target_shape: Tuple[int, ...],
        sep_shape: Tuple[int, ...],
    ):
        self.source = source
        self.target = target
        self.sep_vars = sep_vars
        self.sep_shape = sep_shape
        self.sep_size = int(np.prod(sep_shape))
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
        #: how a dense separator table multiplies into the target clique
        #: when that clique is dense (:func:`_broadcast_plan`)
        self.bcast = _broadcast_plan(target_shape, self.expand_shape)
        #: ascending flat indices of the separator entries the edge
        #: stores, set by the support analysis when the edge touches a
        #: packed clique and not every entry is feasible; ``None``
        #: stores the whole separator
        self.live: Optional[np.ndarray] = None

    @property
    def width(self) -> int:
        """Entries per row of the stored separator."""
        return self.sep_size if self.live is None else int(self.live.size)


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
                        self.shapes[dst],
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
        #: feasible separator entries per directed tree edge; an edge
        #: touching a packed clique stores only these (:attr:`_Message.live`)
        self.sep_support_nnz: Dict[Tuple[int, int], int] = {}
        if (
            kernel != "dense"
            and clique_masks is not None
            and any(mask is not None for mask in clique_masks)
        ):
            self._analyze_support(clique_masks, kernel)

        #: read plans keyed by (clique, kept axes): the home axis of
        #: every variable homed in a dense clique is compiled here (its
        #: chain scratch sizes the engine), packed homes and pair joints
        #: on first use (:meth:`read_plan`)
        self.read_plans: Dict[Tuple[int, Tuple[int, ...]], tuple] = {}
        for idx, axis in self.variable_axis.values():
            if not self.sparse[idx]:
                self.read_plan(idx, (axis,))
        #: chain-scratch entries per row: the most any dense message or
        #: home-axis read needs (see :func:`_plan_scratch`)
        self.chain_scratch = max(
            [
                _plan_scratch(msg.plan)
                for msg in self.messages.values()
                if not self.sparse[msg.source]
            ]
            + [_plan_scratch(plan) for plan in self.read_plans.values()],
            default=0,
        )
        #: expanded-separator entries per row: the most any broadcast
        #: into a dense clique needs (see :func:`_broadcast_plan`)
        self.broadcast_scratch = max(
            (
                msg.bcast[-1]
                for msg in self.messages.values()
                if msg.bcast[0] == "expand" and not self.sparse[msg.target]
            ),
            default=0,
        )

    def read_plan(self, idx: int, keep: Tuple[int, ...]):
        """The (cached) plan reducing clique ``idx``'s belief onto the
        axes ``keep``, in its storage layout: a :func:`_sparse_reduce_plan`
        from a packed ``(K, nnz)`` buffer, a :func:`_reduction_plan`
        from a dense one."""
        key = (idx, keep)
        plan = self.read_plans.get(key)
        if plan is None:
            shape = self.shapes[idx]
            sp = self.sparse_cliques.get(idx)
            if sp is None:
                plan = _reduction_plan(shape, keep)
            else:
                plan = _sparse_reduce_plan(
                    sp.flat_idx, shape, keep, tuple(shape[a] for a in keep)
                )
            self.read_plans[key] = plan
        return plan

    def read_entries(self, idx: int, keep: Tuple[int, ...]) -> int:
        """Entries per row one :meth:`PropagationEngine.joint_marginal`
        onto ``keep`` allocates: the joint table, and for a packed clique
        a gathered copy of the buffer when the plan permutes and the
        segment sums when they do not cover the table, for a dense one
        the chain's intermediates."""
        plan = self.read_plan(idx, keep)
        joint = math.prod(self.shapes[idx][a] for a in keep)
        if not self.sparse[idx]:
            return joint + _plan_scratch(plan)
        perm, _, out_index, covers_all = plan
        gather = self.work_sizes[idx] if perm is not None else 0
        return joint + gather + (0 if covers_all else out_index.size)

    @property
    def row_bytes(self) -> int:
        """Bytes one scenario row adds to a :class:`PropagationEngine`
        over this schedule: its float64 beliefs, stored upward messages
        (:attr:`_Message.width` entries each), the shared separator
        scratch pair (:attr:`sep_scratch`) and the shared kernel scratch
        (:attr:`kernel_scratch`)."""
        entries = sum(self.work_sizes)
        for msg in self.upward():
            entries += msg.width
        entries += sum(self.sep_scratch) + self.kernel_scratch
        return 8 * entries

    def upward(self) -> List[_Message]:
        """The child -> parent message of every tree edge."""
        return [
            msg
            for (src, dst), msg in self.messages.items()
            if self.parent[src] == dst
        ]

    @property
    def kernel_scratch(self) -> int:
        """Entries per row of the engine's kernel scratch: a packed
        clique's gather, a dense chain's intermediates and a dense
        broadcast's expanded separator share it, since a clique is packed
        or dense and one kernel runs at a time."""
        return max(self.max_packed_nnz, self.chain_scratch, self.broadcast_scratch)

    @property
    def sep_scratch(self) -> Tuple[int, int]:
        """Entries per row of the engine's separator scratch pair, each
        sized to its largest edge: an edge stores :attr:`_Message.width`
        entries in both, and the first also holds the whole separator
        wherever a dense clique meets a stored edge (its reduction's
        target, or a packed message spread out for its broadcast)."""
        first = second = 0
        for msg in self.upward():
            dense = not (self.sparse[msg.source] and self.sparse[msg.target])
            first = max(first, msg.sep_size if dense else msg.width)
            second = max(second, msg.width)
        return first, second

    @property
    def max_packed_nnz(self) -> int:
        """Entries of the largest packed clique (0 when none is packed)."""
        return max((sp.nnz for sp in self.sparse_cliques.values()), default=0)

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
        seps: Dict[Tuple[int, int], np.ndarray] = {}
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
                seps[(node, parent)] = sep

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
        # An edge touching a packed clique stores only its live entries:
        # the packed side's entries map onto exactly those (the message
        # products annihilate the rest), and a dense side spreads them
        # over a zeroed whole separator.
        for (node, parent), sep in seps.items():
            if (self.sparse[node] or self.sparse[parent]) and not sep.all():
                live = np.flatnonzero(sep)
                self.messages[(node, parent)].live = live
                self.messages[(parent, node)].live = live
        for idx in range(n):
            if self.sparse[idx]:
                self.sparse_cliques[idx] = _SparseClique(idx, final[idx], self)


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
        broadcast) or per-scenario (:meth:`potential_rows`), and
        :meth:`marginals` returns ``(K, card)`` arrays.

    Cliques the schedule compiled as sparse keep their beliefs in
    packed ``(K, nnz)`` buffers, and every message on an edge touching
    one is a ``(K, width)`` buffer over the separator's live entries
    (:attr:`_Message.live`); a dense clique reduces onto or spreads
    over the whole separator in scratch.  :meth:`belief` scatters a
    packed belief to a dense table on demand.
    """

    def __init__(self, schedule: PropagationSchedule, batch_size: int = 1):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.schedule = schedule
        self.batch_size = int(batch_size)
        lead = (self.batch_size,)
        #: reentrancy tripwire (see :func:`_exclusive`); never held
        #: across calls, so pickling drops and recreates it.
        self._guard = threading.Lock()
        #: always-on work counters (cheap int adds; see PropagationCounters)
        self.counters = PropagationCounters()
        #: counter totals already mirrored into the global registry
        self._published: Dict[str, int] = {}
        #: per-clique potential in the kernels' layout: ``(*shape)`` or
        #: ``(nnz,)`` shared by every row, or a leading row axis
        self._psi: List[Optional[np.ndarray]] = [None] * schedule.n_cliques
        #: cliques whose ``_psi`` is an engine-owned per-row buffer
        self._own_rows: Set[int] = set()
        self._beta: List[np.ndarray] = [
            np.empty(self._layout(i, lead)) for i in range(schedule.n_cliques)
        ]
        #: upward (child -> parent) message buffers, ``(K, width)`` over
        #: the stored separator entries (:attr:`_Message.live`), read by
        #: the parent's collect and by the child's distribute division
        self._msg: Dict[Tuple[int, int], np.ndarray] = {
            (msg.source, msg.target): np.empty(lead + (msg.width,))
            for msg in schedule.upward()
        }
        #: one separator scratch pair and one kernel scratch, each sized
        #: to its largest user: messages use prefix views of the pair,
        #: packed cliques gather into prefix views of the kernel scratch
        #: (see :meth:`_bind_scratch`), dense chains write their
        #: intermediates into it and dense broadcasts expand into it
        self._sep_scratch = tuple(
            np.empty(self.batch_size * size) for size in schedule.sep_scratch
        )
        self._kernel_scratch = np.empty(self.batch_size * schedule.kernel_scratch)
        self._bind_scratch()
        #: a potential was set since the last pass
        self._stale = True
        #: bytes held by the preallocated belief/message/scratch buffers
        self.factor_bytes = schedule.row_bytes * self.batch_size

    def _bind_scratch(self) -> None:
        """Prefix views of the shared scratch buffers: per tree edge
        (keyed by the child) the first buffer as a stored and, where it
        is large enough, a whole separator and the second as a stored
        one; and a gather buffer per packed clique.  Each view is
        C-contiguous, and no two users of one buffer are ever live at
        once."""
        k = self.batch_size
        first, second = self._sep_scratch
        self._sep_views: Dict[int, Tuple[np.ndarray, ...]] = {}
        for msg in self.schedule.upward():
            width, size = k * msg.width, k * msg.sep_size
            self._sep_views[msg.source] = (
                first[:width].reshape(k, -1),
                first[:size].reshape(k, -1) if size <= first.size else None,
                second[:width].reshape(k, -1),
            )
        lead = (k,)
        self._gather_views: Dict[int, np.ndarray] = {
            i: self._kernel_scratch[: self.batch_size * sp.nnz].reshape(lead + (sp.nnz,))
            for i, sp in self.schedule.sparse_cliques.items()
        }

    def __getstate__(self):
        # Locks do not pickle; the guard is never held across calls, so
        # dropping it here and recreating it on load is exact.  Scratch
        # views are rebound to the unpickled buffers.
        state = dict(self.__dict__)
        for key in ("_guard", "_sep_views", "_gather_views"):
            del state[key]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._guard = threading.Lock()
        self._bind_scratch()

    # ------------------------------------------------------------------
    # Potential updates
    # ------------------------------------------------------------------

    def _layout(self, idx: int, rows: Tuple[int, ...]) -> Tuple[int, ...]:
        """Kernel shape of clique ``idx``'s potential with ``rows`` lead."""
        sp = self.schedule.sparse_cliques.get(idx)
        return rows + ((sp.nnz,) if sp is not None else self.schedule.shapes[idx])

    @_exclusive
    def set_potential(self, idx: int, values: np.ndarray) -> None:
        """Install clique ``idx``'s potential, shared by every row.

        ``values`` is the clique's table in *storage layout*: its packed
        entries (``(nnz,)``, in :attr:`_SparseClique.flat_idx` order)
        for a packed clique, the flattened canonical (sorted-variable)
        table otherwise.  It is held by reference and broadcast over the
        scenario axis, so callers must never mutate it afterwards.  Use
        :meth:`potential_rows` for per-scenario potentials.
        """
        shape = self._layout(idx, ())
        values = np.asarray(values, dtype=np.float64)
        if values.size != int(np.prod(shape)) or values.ndim != 1:
            raise ValueError(
                f"potential for clique {idx} has shape {values.shape}, "
                f"expected ({int(np.prod(shape))},)"
            )
        self._own_rows.discard(idx)
        self._psi[idx] = values.reshape(shape)
        self._stale = True

    @_exclusive
    def potential_rows(self, idx: int) -> np.ndarray:
        """Clique ``idx``'s per-scenario potential buffer, to fill in place.

        Returns a writable ``(K, n)`` array in storage layout (see
        :meth:`set_potential`); row ``k`` is scenario ``k``'s table.  The
        buffer is allocated on first use and reused by later calls, so
        a repeated install writes over the same memory.  The next
        :meth:`propagate` is a full pass.
        """
        if idx not in self._own_rows:
            self._psi[idx] = np.empty(self._layout(idx, (self.batch_size,)))
            self._own_rows.add(idx)
        self._stale = True
        return self._psi[idx].reshape(self.batch_size, -1)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _seed_belief(self, node: int) -> None:
        """Rebuild ``node``'s partial belief: psi times child messages.

        Dense cliques use the fused first multiply (psi * first child
        message lands in beta directly -- same elementwise arithmetic as
        copy-then-multiply, one full pass cheaper), each through its
        compiled broadcast (:func:`_broadcast_multiply`).  Packed cliques
        gather each child message at the packed entries' positions in
        the stored separator and multiply elementwise, never
        materializing the dense table.
        """
        schedule = self.schedule
        beta = self._beta[node]
        src = self._psi[node]
        children = schedule.children[node]
        if not children:
            np.copyto(beta, src)
            return
        sp = schedule.sparse_cliques.get(node)
        if sp is None:
            for child in children:
                msg = schedule.messages[(child, node)]
                sep = self._msg[(child, node)]
                if msg.live is not None:
                    sep = self._spread(child, msg, sep)
                _broadcast_multiply(src, sep, msg.bcast, beta, self._kernel_scratch)
                src = beta
            return
        scratch = self._gather_views[node]
        for child in children:
            np.take(
                self._msg[(child, node)],
                sp.gathers[child],
                axis=-1,
                out=scratch,
                mode="clip",
            )
            np.multiply(src, scratch, out=beta)
            src = beta

    def _spread(self, child: int, msg: _Message, values: np.ndarray) -> np.ndarray:
        """A stored separator's ``values`` as the whole ``(K, sep_size)``
        table a dense clique broadcasts: written over zeros into the
        first scratch buffer of ``child``'s edge (off the live entries
        the packed side holds no mass)."""
        table = self._sep_views[child][1]
        table.fill(0.0)
        table[:, msg.live] = values
        return table

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
                    self._reduce(node, parent, self._msg[(node, parent)])
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

    def _reduce(self, source: int, target: int, out: np.ndarray) -> None:
        """Marginalize ``source``'s belief onto its stored separator
        toward ``target``, into ``out`` (``(K, width)``).

        A packed clique's segment sums are the stored entries in order,
        so ``reduceat`` writes them into ``out`` directly.  A dense
        clique reduces onto its whole separator -- into ``out`` itself,
        or into the first separator scratch of the edge, from which the
        live entries are gathered."""
        schedule = self.schedule
        msg = schedule.messages[(source, target)]
        beta = self._beta[source]
        sp = schedule.sparse_cliques.get(source)
        if sp is not None:
            _sparse_reduce(
                beta, sp.reduce_plans[target], out, self._gather_views[source]
            )
        elif msg.live is None:
            _reduce_sum(beta, msg.plan, out, self._kernel_scratch)
        else:
            child = source if schedule.parent[source] == target else target
            table = self._sep_views[child][1]
            _reduce_sum(beta, msg.plan, table, self._kernel_scratch)
            np.take(table, msg.live, axis=-1, out=out, mode="clip")

    def _absorb_from_parent(self, node: int, parent: int) -> None:
        """Send the downward message parent -> node and absorb it into
        the child's partial belief."""
        schedule = self.schedule
        counters = self.counters
        counters.messages_distribute += 1
        counters.flops += (
            schedule.work_sizes[parent] + schedule.work_sizes[node]
        ) * self.batch_size

        # marg(parent belief) onto the stored separator, then divide by
        # the upward message.  Wherever the upward message is zero the
        # parent belief's slice is zero too (it contains that message
        # as a factor), so dividing by max(up, _TINY) gives the exact
        # 0/0 = 0 with no mask and no fill.  A dense parent on a stored
        # edge reduces through the first buffer's whole separator,
        # which is free again once its live entries are gathered.
        first, _, second = self._sep_views[node]
        msg = schedule.messages[(parent, node)]
        if msg.live is None or parent in schedule.sparse_cliques:
            new, ratio = first, second
        else:
            new, ratio = second, first
        self._reduce(parent, node, new)
        up = self._msg[(node, parent)]
        np.maximum(up, _TINY, out=ratio)
        np.divide(new, ratio, out=ratio)

        beta = self._beta[node]
        sp = schedule.sparse_cliques.get(node)
        if sp is None:
            if msg.live is not None:
                ratio = self._spread(node, msg, ratio)
            _broadcast_multiply(beta, ratio, msg.bcast, beta, self._kernel_scratch)
            return
        # Packed belief: gather the ratio at the packed entries'
        # positions in the stored separator and multiply elementwise.
        scratch = self._gather_views[node]
        np.take(ratio, sp.gathers[parent], axis=-1, out=scratch, mode="clip")
        np.multiply(beta, scratch, out=beta)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def belief(self, idx: int) -> np.ndarray:
        """Calibrated, unnormalized belief of clique ``idx``.

        A fresh ``(K, *clique_shape)`` array in the clique's canonical
        (sorted) variable order; a packed belief is scattered onto a
        zero table (out-of-support entries are structurally zero).  Row
        ``k`` sums to scenario ``k``'s probability of evidence.  A
        diagnostic, not an extraction path: :meth:`marginals` and
        :meth:`joint_marginal` read the storage layout directly.  A pure
        read, so it needs no reentrancy guard.
        """
        beta = self._beta[idx]
        sp = self.schedule.sparse_cliques.get(idx)
        if sp is None:
            return beta.copy()
        dense = np.zeros((self.batch_size,) + self.schedule.shapes[idx])
        dense.reshape(self.batch_size, -1)[:, sp.flat_idx] = beta
        return dense

    @_exclusive
    def marginals(
        self,
        variables: Sequence[str],
        skip_zero: bool = False,
        rows: Optional[np.ndarray] = None,
    ) -> Dict[str, np.ndarray]:
        """Normalized single-variable marginals, ``{var: (K, card)}``.

        Each variable is reduced straight from its home clique's buffer
        by its compiled read plan -- a ``(K, nnz) -> (K, card)`` sparse
        reduction of a packed clique, a BLAS chain of a dense one -- so
        no clique or joint table is materialized; every result is then
        divided by its own row sums.  The results are views of one
        fresh ``(members, K, card)`` block per cardinality; ``rows``, an
        index array over the engine's rows, gathers each block's
        scenario rows once (``block[:, rows]``).  Row ``k`` is scenario
        ``k``'s marginal, bitwise what a one-row engine computes.
        Zero-mass beliefs raise :class:`ZeroBeliefError` carrying a
        ``batch_indices`` tuple that names the offending rows;
        ``skip_zero=True`` instead fills their rows with NaN so the
        remaining scenarios are unaffected.
        """
        by_card: Dict[int, List[str]] = {}
        for var in variables:
            idx, axis = self.schedule.variable_axis[var]
            by_card.setdefault(self.schedule.shapes[idx][axis], []).append(var)
        out: Dict[str, np.ndarray] = {}
        for members in by_card.values():
            block = self._marginal_block(members, skip_zero)
            out.update(zip(members, block if rows is None else block[:, rows]))
        return out

    @_exclusive
    def marginal_rows(
        self,
        variables: Sequence[str],
        skip_zero: bool = False,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """:meth:`marginals` of variables of one cardinality as one fresh
        scenario-major ``(K, len(variables), card)`` block, row ``k``
        in the order of ``variables``; no two rows share memory."""
        block = self._marginal_block(variables, skip_zero).transpose(1, 0, 2)
        return np.ascontiguousarray(block) if rows is None else block[rows]

    def _marginal_block(self, variables: Sequence[str], skip_zero: bool) -> np.ndarray:
        """Normalized marginals of variables of one cardinality, one
        fresh ``(len(variables), K, card)`` block."""
        schedule = self.schedule
        members = [schedule.variable_axis[var] for var in variables]
        idx, axis = members[0]
        block = np.empty((len(members), self.batch_size, schedule.shapes[idx][axis]))
        for result, (idx, axis) in zip(block, members):
            plan = schedule.read_plan(idx, (axis,))
            if schedule.sparse[idx]:
                _sparse_reduce(self._beta[idx], plan, result, self._gather_views[idx])
            else:
                _reduce_sum(self._beta[idx], plan, result, self._kernel_scratch)
        totals = block.sum(axis=2)
        zero = totals <= 0
        if zero.any() and not skip_zero:
            raise ZeroBeliefError.for_rows(np.flatnonzero(zero.any(axis=0)))
        block /= np.where(zero, 1.0, totals)[..., None]
        block[zero] = np.nan
        return block

    def joint_marginal(
        self, idx: int, variables: Sequence[str], normalize: bool = True
    ) -> np.ndarray:
        """Joint over ``variables`` from clique ``idx``.

        Returns a ``(K, card_1, ..., card_m)`` array in the order of
        ``variables``, reduced from the clique's storage layout by a
        cached read plan (packed: a sparse reduction onto the kept axes;
        dense: a BLAS chain) and, unless ``normalize=False``, divided by
        its per-row totals.  Row ``k`` is bitwise what a one-row engine
        computes.  Like :meth:`belief` a pure read that shares no
        scratch, so concurrent readers are safe: its gather or chain
        intermediates are its own (pair reads are few and small).
        """
        schedule = self.schedule
        order = schedule.orders[idx]
        wanted = set(variables)
        missing = wanted - set(order)
        if missing:
            raise KeyError(f"clique {idx} does not contain {sorted(missing)}")
        keep = tuple(i for i, v in enumerate(order) if v in wanted)
        plan = schedule.read_plan(idx, keep)
        k = self.batch_size
        reduced = np.empty((k,) + tuple(schedule.shapes[idx][a] for a in keep))
        if schedule.sparse[idx]:
            _sparse_reduce(self._beta[idx], plan, reduced)
        else:
            _reduce_sum(
                self._beta[idx], plan, reduced, np.empty(k * _plan_scratch(plan))
            )
        if normalize:
            totals = reduced.reshape(k, -1).sum(axis=1)
            if (totals <= 0).any():
                raise ZeroBeliefError.for_rows(np.flatnonzero(totals <= 0))
            reduced /= totals.reshape((k,) + (1,) * len(keep))
        kept = [order[i] for i in keep]
        perm = tuple(1 + kept.index(v) for v in variables)
        return reduced.transpose((0,) + perm)
