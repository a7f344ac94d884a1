"""Bitwise pins for the two array kernels of boundary refinement.

:func:`~repro.core.segments.refine.calibrate_joint` fits a whole stack
of glue joints in one call, and
:meth:`~repro.core.enumeration.EnumerationSegment.estimate_many_stacked`
weights the input grid by a broadcast product of the input tables.
Both must reproduce, bit for bit, the scalar forms kept here as
oracles: a per-joint IPF loop, and a per-input gather over the
flattened grid.
"""

import numpy as np
import pytest

from repro.circuits import generate
from repro.circuits.netlist import Circuit
from repro.core.enumeration import EnumerationSegment, _normalized
from repro.core.inputs import IndependentInputs
from repro.core.segments.refine import calibrate_joint
from repro.core.states import N_STATES

IPF_ITERS = 32


def _scalar_ipf(joint, row_marginal, col_marginal, iters=IPF_ITERS, tol=1e-12):
    """One 4x4 joint fitted by the per-joint loop; returns
    ``(fitted, sweeps)``."""
    row_marginal = np.asarray(row_marginal, dtype=np.float64)
    col_marginal = np.asarray(col_marginal, dtype=np.float64)
    fitted = np.asarray(joint, dtype=np.float64) + 1e-12 * np.outer(
        np.maximum(row_marginal, 1e-9), np.maximum(col_marginal, 1e-9)
    )
    fitted /= fitted.sum()
    sweeps = 0
    for _ in range(iters):
        sweeps += 1
        rows = fitted.sum(axis=1)
        fitted *= np.where(rows > 0, row_marginal / np.maximum(rows, 1e-300), 1.0)[
            :, None
        ]
        cols = fitted.sum(axis=0)
        fitted *= np.where(cols > 0, col_marginal / np.maximum(cols, 1e-300), 1.0)[
            None, :
        ]
        if np.abs(fitted.sum(axis=1) - row_marginal).max() <= tol:
            break
    return fitted, sweeps


def _gather_stacked(segment, tables, lines, pairs=(), parents=None, rows=None):
    """``estimate_many_stacked`` by the per-input gather loop: each
    table indexed by its input's states over the flattened grid."""
    inputs = segment.circuit.inputs
    k = len(next(iter(tables.values()))) if rows is None else rows
    parents = parents or {}
    grids = np.meshgrid(*([np.arange(N_STATES)] * len(inputs)), indexing="ij")
    input_states = {name: grid.reshape(-1) for name, grid in zip(inputs, grids)}
    stacks = {line: np.empty((k, N_STATES)) for line in lines}
    joints = {pair: np.empty((k, N_STATES, N_STATES)) for pair in pairs}
    for j in range(k):
        weights = np.ones(segment.n_rows)
        for name, stack in tables.items():
            if name in parents:
                weights *= stack[j][input_states[parents[name][0]], input_states[name]]
            else:
                weights *= stack[j][input_states[name]]
        for line in lines:
            stacks[line][j] = _normalized(
                np.bincount(segment._states[line], weights, minlength=N_STATES)
            )
        for a, b in pairs:
            flat = segment._states[a] * N_STATES + segment._states[b]
            joints[(a, b)][j] = _normalized(
                np.bincount(flat, weights, minlength=N_STATES ** 2).reshape(
                    N_STATES, N_STATES
                )
            )
    return stacks, joints


def _distributions(rng, shape, zero_frac):
    values = rng.random(shape) ** rng.uniform(0.5, 4.0)
    values[rng.random(shape) < zero_frac] = 0.0
    values[..., 0] += values.sum(axis=-1) == 0  # keep every row normalizable
    return values / values.sum(axis=-1, keepdims=True)


class TestCalibrateJointOracle:
    def _check(self, joints, rows, cols):
        got = calibrate_joint(joints, rows, cols)
        want = [_scalar_ipf(j, r, c) for j, r, c in zip(joints, rows, cols)]
        assert np.array_equal(got, np.stack([w for w, _ in want]), equal_nan=True)
        return [sweeps for _, sweeps in want]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_stacks(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 80))
        joints = _distributions(rng, (n, N_STATES * N_STATES), 0.15).reshape(
            n, N_STATES, N_STATES
        )
        # Whole zero rows and columns, as a cone with unreachable states
        # gives them.
        for i in range(n):
            if rng.random() < 0.3:
                joints[i, rng.integers(N_STATES)] = 0.0
            if rng.random() < 0.3:
                joints[i, :, rng.integers(N_STATES)] = 0.0
        rows = _distributions(rng, (n, N_STATES), 0.2)
        cols = _distributions(rng, (n, N_STATES), 0.2)
        self._check(joints, rows, cols)

    def test_joints_freeze_at_their_own_sweep(self):
        # One stack mixes joints that converge in one sweep, a few, and
        # never (structural zeros the marginals cannot reach), so the
        # stack's joints stop at different sweeps, one at the cap.
        rng = np.random.default_rng(3)
        independent = np.outer([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1])
        skewed = _distributions(rng, (N_STATES * N_STATES,), 0.0).reshape(
            N_STATES, N_STATES
        )
        diagonal = np.diag([0.5, 0.5, 0.0, 0.0])
        joints = np.stack([independent, skewed, diagonal, skewed])
        rows = np.array(
            [[0.1, 0.2, 0.3, 0.4], [0.25] * 4, [0.25] * 4, [0.7, 0.1, 0.1, 0.1]]
        )
        cols = np.array(
            [[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4], [0.7, 0.1, 0.1, 0.1],
             [0.0, 0.5, 0.5, 0.0]]
        )
        sweeps = self._check(joints, rows, cols)
        assert IPF_ITERS in sweeps
        assert len(set(sweeps)) > 1

    def test_zero_marginal_entries(self):
        rng = np.random.default_rng(11)
        joints = _distributions(rng, (6, N_STATES * N_STATES), 0.0).reshape(
            6, N_STATES, N_STATES
        )
        rows = np.array([[0.0, 0.5, 0.5, 0.0]] * 3 + [[1.0, 0.0, 0.0, 0.0]] * 3)
        cols = np.array([[0.0, 0.0, 0.0, 1.0], [0.2, 0.0, 0.8, 0.0]] * 3)
        self._check(joints, rows, cols)


class TestBroadcastWeightsOracle:
    @staticmethod
    def _tables(rng, circuit, k, parents, zero_frac=0.2):
        tables = {}
        for name in circuit.inputs:
            if name in parents:
                tables[name] = _distributions(
                    rng, (k, N_STATES, N_STATES), zero_frac
                )
            else:
                tables[name] = _distributions(rng, (k, N_STATES), zero_frac)
        return tables

    def _check(self, segment, tables, parents, rows=None):
        lines = list(segment._states)
        pairs = [(lines[-1], lines[-2]), (lines[0], lines[-1])]
        stacks, joints, _ = segment.estimate_many_stacked(
            tables, lines, pairs, parents, rows
        )
        want_stacks, want_joints = _gather_stacked(
            segment, tables, lines, pairs, parents, rows
        )
        for line in lines:
            assert np.array_equal(stacks[line], want_stacks[line]), line
        for pair in pairs:
            assert np.array_equal(joints[pair], want_joints[pair]), pair

    @pytest.mark.parametrize("seed", range(4))
    def test_priors(self, seed):
        rng = np.random.default_rng(seed)
        circuit = generate.random_layered_circuit(5, 20, seed=seed)
        segment = EnumerationSegment(circuit, IndependentInputs(0.5))
        self._check(segment, self._tables(rng, circuit, 5, {}), {})

    @pytest.mark.parametrize("seed", range(4))
    def test_conditionals_in_either_axis_order(self, seed):
        rng = np.random.default_rng(100 + seed)
        circuit = generate.random_layered_circuit(6, 24, seed=seed)
        segment = EnumerationSegment(circuit, IndependentInputs(0.5))
        names = circuit.inputs
        # Parents after their child on the grid (the transposed case)
        # and before it, in a table order that is not the axis order.
        parents = {names[0]: (names[3],), names[2]: (names[5],), names[4]: (names[1],)}
        tables = self._tables(rng, circuit, 4, parents)
        shuffled = {name: tables[name] for name in rng.permutation(names)}
        assert any(
            names.index(p[0]) > names.index(c) for c, p in parents.items()
        )
        self._check(segment, shuffled, parents)

    def test_tables_in_input_order_and_reversed(self):
        rng = np.random.default_rng(21)
        circuit = generate.random_layered_circuit(4, 12, seed=21)
        segment = EnumerationSegment(circuit, IndependentInputs(0.5))
        tables = self._tables(rng, circuit, 3, {})
        self._check(segment, tables, {})
        self._check(segment, dict(reversed(list(tables.items()))), {})

    def test_zero_input_segment(self):
        segment = EnumerationSegment(Circuit("empty", [], []), IndependentInputs(0.5))
        stacks, joints, _ = segment.estimate_many_stacked({}, [], rows=3)
        assert stacks == {} and joints == {}
        assert segment.n_rows == 1
