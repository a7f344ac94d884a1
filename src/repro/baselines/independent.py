"""Spatial-independence baselines.

Two classical fast estimators that ignore spatial correlation:

- :func:`independence_switching` propagates each line's full 4-state
  transition distribution assuming the gate inputs' transition variables
  are *independent* (Parker-McCluskey signal probability, lifted to
  transition space).  Temporal correlation of each line with itself is
  kept; correlation *between* lines is dropped -- precisely the
  assumption the paper's Bayesian network removes.
- :func:`transition_density` is Najm's transition-density propagation:
  ``D(y) = sum_i P(dy/dx_i) D(x_i)`` with Boolean-difference
  probabilities computed under independence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit
from repro.core.cpt import _decode_flat, _transition_function
from repro.core.inputs import IndependentInputs, InputModel
from repro.core.states import N_STATES, LineResult, signal_probability, switching_probability


@dataclass
class IndependenceResult(LineResult):
    """Per-line transition distributions under the independence assumption."""


def independence_switching(
    circuit: Circuit, input_model: Optional[InputModel] = None
) -> IndependenceResult:
    """Propagate 4-state distributions gate by gate assuming independence.

    For each gate the output distribution is computed from the *product*
    of the input marginals -- the exact computation our CPTs perform,
    minus the joint dependency structure.  Exact on fanout-free (tree)
    circuits; biased wherever fanout reconverges.
    """
    model = input_model if input_model is not None else IndependentInputs(0.5)
    distributions: Dict[str, np.ndarray] = {
        name: np.asarray(model.marginal_distribution(name), dtype=np.float64)
        for name in circuit.inputs
    }
    for line in circuit.topological_order():
        gate = circuit.driver(line)
        if gate is None:
            continue
        arity = gate.arity
        function_table = _transition_function(gate.gate_type, arity)
        out = np.zeros(N_STATES)
        parent_dists = [distributions[src] for src in gate.inputs]
        for flat, out_state in enumerate(function_table):
            states = _decode_flat(flat, arity)
            weight = 1.0
            for dist, s in zip(parent_dists, states):
                weight *= dist[s]
            out[out_state] += weight
        distributions[line] = out
    return IndependenceResult(distributions=distributions)


#: Boolean-difference probability rules per gate type, given the other
#: inputs' signal probabilities (spatial independence assumed).
def _boolean_difference_probability(
    gate_type: GateType, other_probs: np.ndarray
) -> float:
    if gate_type in (GateType.AND, GateType.NAND):
        return float(np.prod(other_probs))
    if gate_type in (GateType.OR, GateType.NOR):
        return float(np.prod(1.0 - other_probs))
    # XOR/XNOR/NOT/BUF: the output always toggles when one input toggles.
    return 1.0


@dataclass
class TransitionDensityResult:
    """Najm-style transition densities (toggles per cycle) per line."""

    densities: Dict[str, float]
    signal_probabilities: Dict[str, float]

    def density(self, line: str) -> float:
        return self.densities[line]

    def mean_density(self) -> float:
        return float(np.mean(list(self.densities.values())))


def transition_density(
    circuit: Circuit, input_model: Optional[InputModel] = None
) -> TransitionDensityResult:
    """Propagate transition densities through the circuit.

    ``D(y) = sum_i P(dy/dx_i) D(x_i)`` where the Boolean-difference
    probability is evaluated under spatial independence.  Densities are
    additive upper-ish estimates: simultaneous input toggles are double
    counted, so ``D`` can exceed the true switching activity (and 1.0).
    """
    model = input_model if input_model is not None else IndependentInputs(0.5)
    probs: Dict[str, float] = {}
    densities: Dict[str, float] = {}
    for name in circuit.inputs:
        dist = model.marginal_distribution(name)
        probs[name] = signal_probability(dist)
        densities[name] = switching_probability(dist)

    for line in circuit.topological_order():
        gate = circuit.driver(line)
        if gate is None:
            continue
        in_probs = np.array([probs[s] for s in gate.inputs])
        # Signal probability under independence.
        if gate.gate_type in (GateType.AND, GateType.NAND):
            p = float(np.prod(in_probs))
        elif gate.gate_type in (GateType.OR, GateType.NOR):
            p = 1.0 - float(np.prod(1.0 - in_probs))
        elif gate.gate_type in (GateType.XOR, GateType.XNOR):
            p = 0.0
            for q in in_probs:
                p = p * (1 - q) + (1 - p) * q
        else:  # NOT / BUF
            p = float(in_probs[0])
        if gate.gate_type in (GateType.NAND, GateType.NOR, GateType.NOT, GateType.XNOR):
            p = 1.0 - p
        probs[line] = p

        density = 0.0
        for i, src in enumerate(gate.inputs):
            others = np.delete(in_probs, i)
            density += _boolean_difference_probability(gate.gate_type, others) * (
                densities[src]
            )
        densities[line] = density

    return TransitionDensityResult(densities=densities, signal_probabilities=probs)
