"""Marginal and pair-joint reads straight from each clique's storage layout.

``PropagationEngine.marginals`` reduces every variable from its home
clique's buffer (a sparse reduction of a packed clique, a BLAS chain of
a dense one) and ``joint_marginal`` does the same onto a pair's axes.
Row ``k`` of a K-row read must equal a one-row read of scenario ``k``
bitwise, match the dense reference ``belief().sum(...)`` to 1e-13, and
never materialize a dense clique table.
"""

import tracemalloc

import numpy as np
import pytest

from repro.circuits import suite
from repro.core.backend import compile_model
from repro.core.inputs import as_input_stack
from repro.core.estimator import SwitchingActivityEstimator

CIRCUITS = ("c17", "alu", "comp", "voter", "pcler8", "c432s")


def _estimator(name):
    """The single tree of ``name``, or c432s's segment with the largest
    clique (its ``4^10`` segment)."""
    model = compile_model(suite.load_circuit(name), cache=None)
    estimator = model.estimator
    if isinstance(estimator, SwitchingActivityEstimator):
        return estimator
    trees = [
        node.estimator
        for node in estimator.graph.nodes
        if isinstance(node.estimator, SwitchingActivityEstimator)
    ]
    return max(trees, key=lambda est: est.junction_tree.max_clique_size())


def _install(estimator, rows, seed=0):
    """``rows`` distinct random input-table stacks shaped like the
    compiled model's (priors, and the boundary conditionals of a
    segment), with their parents."""
    inputs = estimator.circuit.inputs
    base, parents = as_input_stack([estimator.input_model], inputs).tables(inputs)
    rng = np.random.default_rng(seed)
    tables = {
        var: rng.dirichlet(np.ones(stack.shape[-1]), size=(rows,) + stack.shape[1:-1])
        for var, stack in base.items()
    }
    return tables, parents


def _engine(estimator, tables, parents, rows):
    jt = estimator.junction_tree
    assert jt.update_tables_batch(tables, rows, parents) == rows
    engine = jt._engine
    assert engine.batch_size == rows
    engine.propagate()
    return engine


def _pairs(engine):
    """One pair per clique of two or more variables: its first and last."""
    return [
        (idx, [order[0], order[-1]])
        for idx, order in enumerate(engine.schedule.orders)
        if len(order) >= 2
    ]


def _reads(engine, lines):
    marginals = engine.marginals(lines)
    joints = [engine.joint_marginal(idx, pair) for idx, pair in _pairs(engine)]
    return marginals, joints


@pytest.fixture(scope="module", params=CIRCUITS)
def compiled(request):
    return request.param, _estimator(request.param)


@pytest.mark.parametrize("rows", [64, 33])
def test_k_rows_equal_one_row_bitwise(compiled, rows):
    name, estimator = compiled
    lines = list(estimator.circuit.lines)
    tables, parents = _install(estimator, rows)
    marginals, joints = _reads(_engine(estimator, tables, parents, rows), lines)
    checked = range(rows) if name != "c432s" else (0, 1, rows // 2, rows - 1)
    for k in checked:
        one = {var: stack[k : k + 1] for var, stack in tables.items()}
        single_marginals, single_joints = _reads(
            _engine(estimator, one, parents, 1), lines
        )
        for line in lines:
            assert np.array_equal(marginals[line][k], single_marginals[line][0]), (
                name,
                k,
                line,
            )
        for joint, single in zip(joints, single_joints):
            assert np.array_equal(joint[k], single[0]), (name, k)


def test_reads_match_dense_reference(compiled):
    name, estimator = compiled
    rows = 8
    lines = list(estimator.circuit.lines)
    engine = _engine(estimator, *_install(estimator, rows, seed=1), rows)
    schedule = engine.schedule
    marginals, joints = _reads(engine, lines)
    for line in lines:
        idx, axis = schedule.variable_axis[line]
        belief = engine.belief(idx)
        drop = tuple(1 + a for a in range(belief.ndim - 1) if a != axis)
        reference = belief.sum(axis=drop)
        reference /= reference.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(
            marginals[line], reference, rtol=0, atol=1e-13, err_msg=f"{name} {line}"
        )
    for (idx, pair), joint in zip(_pairs(engine), joints):
        order = schedule.orders[idx]
        belief = engine.belief(idx)
        keep = [order.index(v) for v in pair]
        drop = tuple(1 + a for a in range(len(order)) if a not in keep)
        reference = belief.sum(axis=drop)
        reference /= reference.reshape(rows, -1).sum(axis=1)[:, None, None]
        np.testing.assert_allclose(
            joint, reference, rtol=0, atol=1e-13, err_msg=f"{name} clique {idx}"
        )
        raw = engine.joint_marginal(idx, pair, normalize=False)
        np.testing.assert_allclose(
            raw, belief.sum(axis=drop), rtol=1e-13, atol=0, err_msg=f"{name} {idx}"
        )


def test_alu_extraction_allocates_no_dense_table():
    """Reading every line and a pair of every clique on alu allocates
    less than one dense ``(K, 16384)`` table of its largest clique."""
    estimator = _estimator("alu")
    rows = 64
    engine = _engine(estimator, *_install(estimator, rows, seed=2), rows)
    largest = max(engine.schedule.sizes)
    assert largest == 16384
    lines = list(estimator.circuit.lines)
    _reads(engine, lines)  # compile the pair plans outside the window
    tracemalloc.start()
    try:
        _reads(engine, lines)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * rows * largest, peak


def test_no_sum_plans_remain():
    """Every compiled message and read plan is a BLAS step, a chain of
    them, a copy or a packed sparse plan."""
    for name in CIRCUITS[:-1]:
        schedule = _estimator(name).junction_tree._ensure_schedule()
        kinds = {msg.plan[0] for msg in schedule.messages.values()}
        kinds |= {
            plan[0]
            for (idx, _), plan in schedule.read_plans.items()
            if not schedule.sparse[idx]
        }
        assert kinds <= {"copy", "dot", "matvec", "vecmat", "gemm", "chain"}, (name, kinds)
