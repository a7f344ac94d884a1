"""Pairwise correlation-coefficient propagation (Ercolani/Marculescu style).

The classical middle ground between independence and exact modeling:
track, for every pair of lines, the spatial correlation coefficient

    C(a, b) = P(a=1, b=1) / (P(a=1) P(b=1))

and propagate it through gates, approximating every higher-order joint
as a *composition of pairwise* coefficients (Marculescu et al. 1998),
e.g. ``P(a,b,z) ~= p_a p_b p_z C_ab C_az C_bz``.  This yields closed
per-gate update rules:

- AND  ``y = a & b``:  ``p_y = p_a p_b C_ab`` and, for any other line z,
  ``C_yz = C_az C_bz`` (the composition makes ``C_ab`` cancel).
- NOT  ``y = !a``:     ``p_y = 1 - p_a``, ``C_yz = (1 - p_a C_az) / (1 - p_a)``.
- XOR via the disjoint decomposition ``a XOR b = a!b + !a b``.
- OR / NAND / NOR via De Morgan.

Under temporally independent inputs a line's consecutive values are
independent, so switching activity is exactly ``2 p (1 - p)`` given the
line's signal probability p -- the whole error of this method is the
pairwise spatial approximation, which is what the paper's Table 2
compares against the exact Bayesian network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit
from repro.core.inputs import IndependentInputs, InputModel
from repro.core.states import LineResult, signal_probability

_EPS = 1e-12


@dataclass
class PairwiseResult(LineResult):
    """Signal probabilities from pairwise correlation propagation, and
    the 4-state distribution each line's ``(p, a)`` pins down, where
    ``a = 2 p (1 - p)``: ``P(x01) = P(x10) = a / 2``, the rest split by
    ``p``."""

    signal_probabilities: Dict[str, float]


class _PairwiseState:
    """Dense working state: per-line signal probability p and the
    correlation-coefficient matrix over materialized lines."""

    def __init__(self, capacity: int):
        self.p = np.zeros(capacity)
        self.corr = np.ones((capacity, capacity), dtype=np.float64)
        self.count = 0

    def add_line(self, p: float, row: Optional[np.ndarray] = None) -> int:
        idx = self.count
        self.p[idx] = p
        if row is not None:
            self.corr[idx, :idx] = row[:idx]
            self.corr[:idx, idx] = row[:idx]
        # Diagonal C(z, z) = P(z, z)/p^2 = 1/p.
        self.corr[idx, idx] = 1.0 / max(p, _EPS)
        self.count += 1
        return idx

    def row(self, idx: int) -> np.ndarray:
        """C(line idx, z) for all materialized z, as a copy."""
        return self.corr[idx, : self.count].copy()

    def clip_row(self, p_y: float, row: np.ndarray) -> np.ndarray:
        """Enforce the Frechet bound ``P(y, z) <= min(p_y, p_z)``."""
        p_z = self.p[: self.count]
        upper = 1.0 / np.maximum(np.maximum(p_y, p_z), _EPS)
        return np.clip(row, 0.0, upper)


def _complement(
    state: _PairwiseState, p: float, row: np.ndarray
) -> Tuple[float, np.ndarray]:
    """``C(!a, z) = (1 - p_a C(a, z)) / (1 - p_a)``."""
    pc = 1.0 - p
    new_row = (1.0 - p * row) / max(pc, _EPS)
    return pc, state.clip_row(pc, new_row)


def _complement_scalar(p: float, c: float) -> float:
    """C(!a, b) from C(a, b), complementing the *first* argument."""
    return (1.0 - p * c) / max(1.0 - p, _EPS)


def _and2(
    state: _PairwiseState,
    pa: float,
    row_a: np.ndarray,
    pb: float,
    row_b: np.ndarray,
    c_ab: float,
) -> Tuple[float, np.ndarray]:
    """AND of two literals under pairwise composition: ``C_yz = C_az C_bz``."""
    py = float(np.clip(pa * pb * c_ab, 0.0, min(pa, pb)))
    return py, state.clip_row(py, row_a * row_b)


class _Literal:
    """A (possibly complemented) view of a materialized line."""

    __slots__ = ("p", "row", "base_index", "negated")

    def __init__(self, p: float, row: np.ndarray, base_index: int, negated: bool):
        self.p = p
        self.row = row
        self.base_index = base_index
        self.negated = negated


def _make_literal(state: _PairwiseState, idx: int, negated: bool) -> _Literal:
    p, row = state.p[idx], state.row(idx)
    if negated:
        p, row = _complement(state, p, row)
    return _Literal(p, row, idx, negated)


def _pair_coefficient(state: _PairwiseState, acc_row: np.ndarray, lit: _Literal) -> float:
    """C(accumulator, literal): read the literal's base column out of the
    accumulator's correlation row, complementing if needed."""
    c = float(acc_row[lit.base_index])
    if lit.negated:
        c = _complement_scalar(state.p[lit.base_index], c)
    return max(c, 0.0)


def _fold_and(state: _PairwiseState, literals: List[_Literal]) -> Tuple[float, np.ndarray]:
    """Left fold of AND over two or more literals."""
    p_acc, row_acc = literals[0].p, literals[0].row
    for lit in literals[1:]:
        c_ab = _pair_coefficient(state, row_acc, lit)
        p_acc, row_acc = _and2(state, p_acc, row_acc, lit.p, lit.row, c_ab)
    return p_acc, row_acc


def _fold_xor(state: _PairwiseState, literals: List[_Literal]) -> Tuple[float, np.ndarray]:
    """Left fold of XOR via the disjoint sum ``a XOR b = a!b + !a b``.

    Probabilities of the two disjoint terms add; the correlation row of
    the result is the probability-weighted mix of the terms' rows.
    """
    p_acc, row_acc = literals[0].p, literals[0].row
    for lit in literals[1:]:
        p_b, row_b = lit.p, lit.row
        c_ab = _pair_coefficient(state, row_acc, lit)
        p_na, row_na = _complement(state, p_acc, row_acc)
        p_nb, row_nb = _complement(state, p_b, row_b)
        c_a_nb = _complement_scalar(p_b, c_ab)  # C(a, !b) via symmetry
        c_na_b = _complement_scalar(p_acc, c_ab)
        p1, row1 = _and2(state, p_acc, row_acc, p_nb, row_nb, c_a_nb)
        p2, row2 = _and2(state, p_na, row_na, p_b, row_b, c_na_b)
        p_y = p1 + p2
        if p_y <= _EPS:
            row_y = np.ones_like(row1)
        else:
            row_y = (p1 * row1 + p2 * row2) / p_y
        p_acc = float(np.clip(p_y, 0.0, 1.0))
        row_acc = state.clip_row(p_acc, row_y)
    return p_acc, row_acc


def pairwise_switching(
    circuit: Circuit, input_model: Optional[InputModel] = None
) -> PairwiseResult:
    """Estimate switching by pairwise correlation propagation.

    Inputs are taken spatially independent (the model supplies p per
    input); every internal line gets a signal probability computed with
    the pairwise rules and a switching activity of ``2 p (1 - p)``
    (exact temporal treatment for temporally independent streams).

    Memory is O(n^2) in the number of lines (the C matrix); fine for
    ISCAS-scale circuits.
    """
    model = input_model if input_model is not None else IndependentInputs(0.5)
    state = _PairwiseState(len(circuit.lines))
    index: Dict[str, int] = {}

    for name in circuit.inputs:
        p = signal_probability(model.marginal_distribution(name))
        index[name] = state.add_line(p)

    for line in circuit.topological_order():
        gate = circuit.driver(line)
        if gate is None:
            continue
        gt = gate.gate_type
        in_idx = [index[s] for s in gate.inputs]

        if gt is GateType.BUF:
            lit = _make_literal(state, in_idx[0], negated=False)
            p_y, row_y = lit.p, lit.row
        elif gt is GateType.NOT:
            lit = _make_literal(state, in_idx[0], negated=True)
            p_y, row_y = lit.p, lit.row
        elif gt in (GateType.AND, GateType.NAND):
            literals = [_make_literal(state, i, False) for i in in_idx]
            p_y, row_y = _fold_and(state, literals)
            if gt is GateType.NAND:
                p_y, row_y = _complement(state, p_y, row_y)
        elif gt in (GateType.OR, GateType.NOR):
            literals = [_make_literal(state, i, True) for i in in_idx]
            p_y, row_y = _fold_and(state, literals)
            if gt is GateType.OR:
                p_y, row_y = _complement(state, p_y, row_y)
        elif gt in (GateType.XOR, GateType.XNOR):
            literals = [_make_literal(state, i, False) for i in in_idx]
            p_y, row_y = _fold_xor(state, literals)
            if gt is GateType.XNOR:
                p_y, row_y = _complement(state, p_y, row_y)
        else:  # pragma: no cover - exhaustive over gate types
            raise ValueError(f"unsupported gate type {gt}")

        p_y = float(np.clip(p_y, 0.0, 1.0))
        index[line] = state.add_line(p_y, row_y)

    probabilities = {name: float(state.p[idx]) for name, idx in index.items()}
    p = np.array(list(probabilities.values()))
    half = p * (1.0 - p)
    table = np.clip(np.stack([1.0 - p - half, half, half, p - half], axis=1), 0.0, 1.0)
    return PairwiseResult(
        distributions=dict(zip(probabilities, table)), signal_probabilities=probabilities
    )
