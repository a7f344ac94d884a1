"""K-stability of the planned message reductions.

``_reduce_sum`` must reduce row ``k`` of a K-row buffer with the same
arithmetic as a one-row buffer.  The ``dot`` plan folds the K rows into
one BLAS gemv, whose kernels sum a row differently depending on where
it falls in the fold; these tests pin which kept-run lengths may take
the fold and check that every other one stays K-stable through the
stacked ``matvec`` plan.  Generic networks with binary variables
produce such kept runs; LIDAG variables all have 4 states.
"""

import numpy as np
import pytest

from repro.bayesian.propagation import _reduction_plan, _reduce_sum
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
