"""K-stability of the planned message reductions.

``_reduce_sum`` must reduce row ``k`` of a K-row buffer with the same
arithmetic as a one-row buffer.  The ``dot`` plan folds the rows of
several scenarios into one BLAS gemv, whose kernels sum a row
differently depending on where it falls in the fold; these tests pin
which kept-run lengths may take the fold, check that every other one
stays K-stable through the stacked ``matvec`` plan, and that a fold
large enough for OpenBLAS to thread it is cut into single-thread calls
(odd row counts split unevenly across threads).  Generic networks with
binary variables produce such kept runs; LIDAG variables all have 4
states.  Interleaved reductions compile to chains of these steps.
"""

import numpy as np
import pytest

from repro.bayesian.propagation import _plan_scratch, _reduction_plan, _reduce_sum
from repro.circuits import suite
from repro.core.estimator import SwitchingActivityEstimator

M = (1, 2, 3, 4, 5, 6, 8, 12, 16, 64, 256)
D = (4, 16, 1000, 1024, 4096, 70000)


@pytest.mark.parametrize("m", M)
def test_k_rows_equal_one_row_bitwise(m):
    rng = np.random.default_rng(m)
    for d in D:
        plan = _reduction_plan((m, d), [0])
        src = rng.random((8, m, d))
        out = np.empty((8, m))
        _reduce_sum(src, plan, out)
        for k in range(8):
            one = np.empty((1, m))
            _reduce_sum(src[k : k + 1].copy(), plan, one)
            assert np.array_equal(out[k], one[0]), (m, d, plan[0], k)
        np.testing.assert_allclose(out, src.sum(axis=2), rtol=1e-12)


def test_full_reduction_is_k_stable():
    rng = np.random.default_rng(1)
    plan = _reduction_plan((2, 3, 5), [])
    assert plan[0] == "matvec"
    src = rng.random((8, 2, 3, 5))
    out = np.empty((8,))
    _reduce_sum(src, plan, out)
    for k in range(8):
        one = np.empty((1,))
        _reduce_sum(src[k : k + 1].copy(), plan, one)
        assert out[k] == one[0]


def test_fold_only_for_powers_of_four():
    for m in M:
        kind = _reduction_plan((m, 16), [0])[0]
        assert kind == ("dot" if m in (4, 16, 64, 256) else "matvec"), m


@pytest.mark.parametrize("name", ["c17", "alu", "pcler8"])
def test_lidag_schedules_keep_the_fold(name):
    estimator = SwitchingActivityEstimator(suite.load_circuit(name)).compile()
    schedule = estimator.junction_tree._ensure_schedule()
    kinds = {message.plan[0] for message in schedule.messages.values()}
    assert "matvec" not in kinds
    assert "dot" in kinds


def _reduce(src, plan, out_shape):
    out = np.empty((len(src),) + out_shape)
    _reduce_sum(src, plan, out, np.empty(len(src) * _plan_scratch(plan)))
    return out


def _assert_rows_match_one_row(src, plan, out_shape):
    out = _reduce(src, plan, out_shape)
    for k in range(len(src)):
        one = _reduce(src[k : k + 1].copy(), plan, out_shape)
        assert np.array_equal(out[k], one[0]), (plan[0], len(src), k)
    return out


#: (m, d) at row counts K where OpenBLAS threads a one-call fold of the
#: K * m rows and splits them unevenly: rows fall into its leftover-row
#: kernel at K rows but not at one.
THREADED = [((4, 4096), k) for k in (31, 33, 63, 65, 127)]
THREADED += [((4, 1024), 127)] + [((4, 65536), k) for k in (3, 5, 9)]


@pytest.mark.parametrize("shape,k", THREADED)
def test_threaded_row_counts_are_k_stable(shape, k):
    rng = np.random.default_rng(k)
    src = rng.random((k,) + shape)
    plan = _reduction_plan(shape, [0])
    out = _assert_rows_match_one_row(src, plan, shape[:1])
    np.testing.assert_allclose(out, src.sum(axis=2), rtol=1e-12)


#: interleaved patterns: (shape, kept axes)
INTERLEAVED = [
    ((1024, 4, 4), (1,)),
    ((4, 4, 4), (0, 2)),
    ((64, 16, 4, 4), (0, 2)),
    ((16, 4, 16, 4, 4), (0, 2)),
    ((4,) * 7, (3,)),
    ((4,) * 8, (1, 5)),
    ((64, 4, 64), (1,)),
    ((2, 3, 5, 7), (1, 3)),
    ((3,) * 6, (2,)),
]


@pytest.mark.parametrize("shape,keep", INTERLEAVED)
@pytest.mark.parametrize("k", [1, 2, 33])
def test_interleaved_chains_are_k_stable(shape, keep, k):
    rng = np.random.default_rng(k)
    src = rng.random((k,) + shape)
    plan = _reduction_plan(shape, keep)
    assert plan[0] in ("vecmat", "gemm", "chain"), plan[0]
    out_shape = tuple(shape[a] for a in keep)
    out = _assert_rows_match_one_row(src, plan, out_shape)
    drop = tuple(1 + a for a in range(len(shape)) if a not in keep)
    np.testing.assert_allclose(out, src.sum(axis=drop), rtol=1e-12)


def test_chain_runs_largest_first_and_counts_its_scratch():
    """``(1024, 4, 4)`` onto axis 1 sums the 1024 run first (a stacked
    vecmat into 16 entries per row), then the trailing 4 (one fold)."""
    plan = _reduction_plan((1024, 4, 4), [1])
    assert plan[0] == "chain"
    assert [step[0] for step in plan[1]] == ["vecmat", "dot"]
    assert plan[2] == (16, 4)
    assert _plan_scratch(plan) == 16


def test_unknown_plan_kind_raises():
    src = np.ones((1, 4))
    with pytest.raises(ValueError, match="unknown reduction plan"):
        _reduce_sum(src, ("sum", (4,), (1,), ()), np.empty((1,)))
