"""Separators stored over their live entries.

An edge that touches a packed clique stores only the separator entries
the support analysis found feasible (``_Message.live``).  Dropping the
others is exact: the dense twin of the same tree must hold exactly 0.0
on every dropped entry of every calibrated separator, even when inputs
pinned to probability 0 or 1 make entries *inside* the live support
numerically zero, and the packed engine's estimates must agree with the
dense ones to 1e-12.  A warm pass over packed separators allocates no
separator-sized temporary.
"""

import tracemalloc

import numpy as np
import pytest

from repro.circuits.generate import random_layered_circuit
from repro.core import IndependentInputs, SwitchingActivityEstimator

from tests.bayesian.test_extraction import _engine, _estimator, _install


def _models(circuit, rows, rng):
    """``rows`` independent-input scenarios; about a third of the
    inputs of every other row are pinned to exactly 0.0 or 1.0."""
    models = []
    for k in range(rows):
        p = rng.uniform(0.02, 0.98, len(circuit.inputs))
        if k % 2:
            pinned = rng.random(p.size) < 0.35
            p[pinned] = rng.integers(0, 2, int(pinned.sum()))
        models.append(IndependentInputs(dict(zip(circuit.inputs, p))))
    return models


@pytest.mark.parametrize("seed", range(10))
def test_dropped_entries_are_structural_zeros(seed):
    rng = np.random.default_rng(seed)
    circuit = random_layered_circuit(
        n_inputs=int(rng.integers(3, 7)),
        n_gates=int(rng.integers(8, 31)),
        seed=seed,
        name=f"packed{seed}",
    )
    models = _models(circuit, 9, rng)
    sparse = SwitchingActivityEstimator(circuit, models[0], kernel="sparse").compile()
    dense = SwitchingActivityEstimator(circuit, models[0], kernel="dense").compile()
    got = sparse.estimate_many(models)
    want = dense.estimate_many(models)
    for g, w in zip(got, want):
        for line in circuit.lines:
            np.testing.assert_allclose(
                g.distributions[line], w.distributions[line], rtol=0, atol=1e-12
            )

    schedule = sparse._jt._schedule
    twin = dense._jt._engine
    assert schedule.orders == twin.schedule.orders
    stored = 0
    for (child, parent), msg in schedule.messages.items():
        if schedule.parent[child] != parent or msg.live is None:
            continue
        stored += 1
        dropped = np.ones(msg.sep_size, dtype=bool)
        dropped[msg.live] = False
        assert dropped.any()
        for idx in (child, parent):
            table = twin.joint_marginal(idx, msg.sep_vars, normalize=False)
            off = table.reshape(len(models), -1)[:, dropped]
            assert not off.any(), (seed, child, parent, idx)
    if circuit.num_gates >= 8:
        assert stored > 0, "no edge stores a packed separator"


def test_warm_c432s_pass_allocates_no_separator_sized_block():
    """A warm K=64 pass over c432s's ``4^10`` segment allocates less
    than one byte per entry of its largest separator: no dense message,
    no zero mask and no scattered segment sums."""
    estimator = _estimator("c432s")
    rows = 64
    tables, parents = _install(estimator, rows)
    engine = _engine(estimator, tables, parents, rows)
    schedule = engine.schedule
    largest = max(msg.sep_size for msg in schedule.messages.values())
    assert any(msg.live is not None and msg.sep_size == largest for msg in schedule.upward())
    estimator.junction_tree.update_tables_batch(tables, rows, parents)
    assert engine is estimator.junction_tree._engine
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        engine.propagate()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < rows * largest, (peak, rows * largest)
