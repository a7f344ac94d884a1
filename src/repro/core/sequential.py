"""Sequential-circuit switching estimation by state fixpoint iteration.

A synchronous sequential circuit, after full-scan conversion (flip-flop
outputs become pseudo primary inputs, flip-flop inputs pseudo primary
outputs -- what :func:`repro.circuits.bench.parse_bench` does to DFF
cells), is a combinational core plus a ``state_map`` from each
present-state line to its next-state line.

At stationarity the statistics of a flip-flop's output equal the
statistics of its input one cycle earlier, so the per-state 4-state
transition distributions satisfy a fixpoint equation.  This estimator
iterates it: estimate the combinational core with the current state
marginals as pseudo-input priors, read the next-state distributions,
feed them back, and repeat until convergence.

Approximation scope (the textbook one for probabilistic FSM analysis):

- state-line *marginals* always cross the feedback cut; the optional
  ``"chain"`` mode additionally carries the within-cycle joint of
  consecutive state pairs;
- correlations *across* cycles (e.g. a ripple counter's bit ``q1``
  toggling exactly when ``q0`` and the enable were high one cycle
  earlier) are outside a single-cycle model: capturing them requires
  multi-cycle unrolling, which this estimator intentionally does not do.
  Consequently shift-register-like feedback is exact, while
  carry-chained counters and hold paths (``q' = q`` under a hold
  condition) overestimate the switching of the coupled bits
  (validated against true sequential simulation in the tests and
  ``benchmarks/bench_sequential.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.circuits.netlist import Circuit
from repro.errors import CliqueBudgetExceeded
from repro.core.estimator import SwitchingActivityEstimator, SwitchingEstimate
from repro.core.inputs import IndependentInputs, InputModel
from repro.core.segments import (
    FixedMarginalInputs,
    SegmentedEstimator,
    TreeBoundaryInputs,
)
from repro.core.states import N_STATES, LineResult


@dataclass
class SequentialEstimate(LineResult):
    """Fixpoint result: line distributions plus convergence metadata."""

    iterations: int
    converged: bool
    residual: float
    compile_seconds: float
    propagate_seconds: float


class SequentialSwitchingEstimator:
    """Switching activity of a scan-converted sequential circuit.

    Parameters
    ----------
    circuit:
        The combinational core (flip-flops removed).
    state_map:
        ``present-state line -> next-state line``; keys must be primary
        inputs of the core, values any core line.
    input_model:
        Statistics of the *true* primary inputs (state lines are driven
        by the fixpoint).  Marginals only: the feedback cut carries
        per-line distributions.
    max_clique_states:
        Clique budget for the underlying estimator; cores that exceed it
        fall back to the segmented estimator.
    state_correlation:
        ``"chain"`` (default) feeds back, in addition to per-state
        marginals, the joint of consecutive state pairs as a conditional
        chain (computed by variable elimination on the core's network) --
        capturing e.g. counter carry correlations.  ``"independent"``
        feeds back marginals only (the textbook approximation).  Cores
        that fall back to the segmented estimator use ``independent``.
    """

    def __init__(
        self,
        circuit: Circuit,
        state_map: Mapping[str, str],
        input_model: Optional[InputModel] = None,
        max_clique_states: int = 4 ** 10,
        state_correlation: str = "chain",
    ):
        if state_correlation not in ("chain", "independent"):
            raise ValueError(f"unknown state_correlation {state_correlation!r}")
        self.circuit = circuit
        self.state_map = dict(state_map)
        self.input_model = input_model if input_model is not None else IndependentInputs(0.5)
        self.max_clique_states = max_clique_states
        self.state_correlation = state_correlation

        input_set = set(circuit.inputs)
        line_set = set(circuit.lines)
        for present, nxt in self.state_map.items():
            if present not in input_set:
                raise ValueError(f"present-state line {present!r} is not a primary input")
            if nxt not in line_set:
                raise ValueError(f"next-state line {nxt!r} is not a circuit line")

        self._estimator = None
        self._chain: Dict[str, str] = {}
        self.compile_seconds = 0.0

    # ------------------------------------------------------------------

    def _true_inputs(self):
        return [ln for ln in self.circuit.inputs if ln not in self.state_map]

    def _state_chain(self) -> Dict[str, str]:
        """Chain edges over the present-state lines, in input order."""
        ordered = [ln for ln in self.circuit.inputs if ln in self.state_map]
        return {child: parent for parent, child in zip(ordered, ordered[1:])}

    def compile(self) -> "SequentialSwitchingEstimator":
        if self._estimator is not None:
            return self
        start = time.perf_counter()
        uniform = {name: np.full(N_STATES, 0.25) for name in self.circuit.inputs}
        self._chain = self._state_chain() if self.state_correlation == "chain" else {}
        if self._chain:
            placeholder: InputModel = TreeBoundaryInputs(uniform, self._chain)
        else:
            placeholder = FixedMarginalInputs(uniform)
        try:
            estimator = SwitchingActivityEstimator(
                self.circuit, placeholder, max_clique_states=self.max_clique_states
            )
            estimator.compile()
        except CliqueBudgetExceeded:
            # Segmented fallback: marginal-only feedback.
            self._chain = {}
            estimator = SegmentedEstimator(
                self.circuit,
                FixedMarginalInputs(uniform),
                max_clique_states=self.max_clique_states,
            )
            estimator.compile()
        self._estimator = estimator
        self.compile_seconds = time.perf_counter() - start
        return self

    def _next_state_conditionals(
        self, model: InputModel, state_dists: Dict[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        """``P(next(child) | next(parent))`` per chain edge, by variable
        elimination on the core's network with ``model``'s input CPDs."""
        from repro.bayesian.elimination import variable_elimination
        from repro.bayesian.network import BayesianNetwork

        core = self._estimator._bn
        inputs = {cpd.variable: cpd for cpd in model.input_cpds(self.circuit.inputs)}
        bn = BayesianNetwork(core.name)
        for cpd in core.cpds():
            bn.add_cpd(inputs.get(cpd.variable, cpd))
        conditionals: Dict[str, np.ndarray] = {}
        for child, parent in self._chain.items():
            next_child = self.state_map[child]
            next_parent = self.state_map[parent]
            if next_child == next_parent:
                continue
            joint = variable_elimination(bn, [next_parent, next_child]).values
            rows = np.empty((N_STATES, N_STATES))
            for state in range(N_STATES):
                mass = joint[state].sum()
                rows[state] = (
                    joint[state] / mass if mass > 1e-15 else state_dists[child]
                )
            conditionals[child] = rows
        return conditionals

    def estimate(
        self, max_iterations: int = 100, tol: float = 1e-7
    ) -> SequentialEstimate:
        """Iterate the state fixpoint and return converged distributions."""
        self.compile()
        start = time.perf_counter()
        pi_dists = {
            name: np.asarray(self.input_model.marginal_distribution(name))
            for name in self._true_inputs()
        }
        state_dists: Dict[str, np.ndarray] = {
            present: np.full(N_STATES, 0.25) for present in self.state_map
        }
        conditionals: Dict[str, np.ndarray] = {}
        result: Optional[SwitchingEstimate] = None
        residual = float("inf")
        converged = False
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            priors = {**pi_dists, **state_dists}
            if self._chain:
                model: InputModel = TreeBoundaryInputs(
                    priors, self._chain, conditionals
                )
            else:
                model = FixedMarginalInputs(priors)
            self._estimator.update_inputs(model)
            result = self._estimator.estimate()
            residual = 0.0
            new_states: Dict[str, np.ndarray] = {}
            for present, nxt in self.state_map.items():
                updated = result.distributions[nxt]
                residual = max(
                    residual, float(np.abs(updated - state_dists[present]).max())
                )
                new_states[present] = updated
            state_dists = new_states
            if self._chain:
                new_conditionals = self._next_state_conditionals(model, state_dists)
                for child, rows in new_conditionals.items():
                    if child in conditionals:
                        residual = max(
                            residual,
                            float(np.abs(rows - conditionals[child]).max()),
                        )
                    else:
                        # First iteration: no previous conditional to
                        # compare against, so force another pass.
                        residual = max(residual, 1.0)
                conditionals = new_conditionals
            if residual < tol:
                converged = True
                break
        propagate_seconds = time.perf_counter() - start
        return SequentialEstimate(
            distributions=result.distributions,
            iterations=iterations,
            converged=converged,
            residual=residual,
            compile_seconds=self.compile_seconds,
            propagate_seconds=propagate_seconds,
        )
