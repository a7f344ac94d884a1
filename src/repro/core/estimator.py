"""The user-facing switching-activity estimator.

:class:`SwitchingActivityEstimator` implements the paper's flow on a
single Bayesian network:

- ``compile()`` -- build the LIDAG, moralize, triangulate, and build the
  junction tree (slow, once per circuit),
- ``estimate_many()`` -- stack K input models' tables into the compiled
  tree, propagate them in one vectorized pass and read off every line's
  4-state marginal per scenario (fast); ``estimate()``,
  ``line_distribution()`` and ``conditional_distribution()`` are its
  one-scenario rows,
- ``update_inputs()`` -- record the input statistics the next query
  answers for, without recompiling (the paper's advantage #3: "repeated
  computation of switching activity of the circuit with different input
  statistics does not require much time").

:func:`exact_switching_by_enumeration` is the brute-force oracle used
to prove exactness on small circuits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.bayesian.junction import JunctionTree
from repro.bayesian.propagation import PropagationCounters
from repro.circuits.netlist import Circuit
from repro.core.backend.base import Method
from repro.core.cpt import output_transition
from repro.core.inputs import IndependentInputs, InputModel, InputStack, as_input_stack
from repro.core.lidag import build_lidag
from repro.core.states import N_STATES, switching_probability
from repro.obs.trace import get_tracer


#: Bytes one circuit line adds to one result row: its ``(4,)`` float64
#: marginal (32 B), the 112 B array view that holds it and its entry in
#: the row's dict.  ``tracemalloc`` reads 173-185 B per line of a held
#: K=64 result on pcler8, alu and c432s.
RESULT_LINE_BYTES = 192
#: Bytes one result row holds besides its lines: the
#: :class:`SwitchingEstimate` and its attribute dict (344 B).
RESULT_ROW_BYTES = 512


def result_row_bytes(circuit: Circuit) -> int:
    """Bytes one scenario's result row takes, over every circuit line."""
    return RESULT_ROW_BYTES + RESULT_LINE_BYTES * len(circuit.lines)


@dataclass
class SwitchingEstimate:
    """Per-line switching estimates plus timing breakdown."""

    #: 4-state transition distribution per line name.
    distributions: Dict[str, np.ndarray]
    #: seconds spent building LIDAG + junction tree (the compile phase)
    compile_seconds: float
    #: seconds spent calibrating + reading marginals (the update phase)
    propagate_seconds: float
    #: one of the :class:`repro.core.backend.Method` values
    method: str = Method.SINGLE_BN.value
    #: number of Bayesian networks used
    segments: int = 1
    #: how the facade obtained the compiled model: ``True`` (cache hit),
    #: ``False`` (miss), or ``None`` (no cache consulted / direct use)
    cache_hit: Optional[bool] = None
    #: whether the *result* came out of a fingerprint-keyed result cache
    #: (``repro.core.rcache``): ``True`` (replayed), ``False`` (freshly
    #: propagated through a consulted cache), ``None`` (no result cache)
    result_cache_hit: Optional[bool] = None
    #: boundary-refinement iterations actually run (segmented backend
    #: with ``refine > 0``; 0 everywhere else)
    refine_iterations: int = 0
    #: max boundary-belief delta at the last refinement iteration
    refine_delta: float = 0.0

    def switching(self, line: str) -> float:
        """Switching activity of one line: P(x01) + P(x10)."""
        return switching_probability(self.distributions[line])

    @property
    def activities(self) -> Dict[str, float]:
        """Switching activity of every line."""
        return {ln: self.switching(ln) for ln in self.distributions}

    def mean_activity(self) -> float:
        """Average switching activity over all lines."""
        acts = self.activities
        return float(np.mean(list(acts.values()))) if acts else 0.0

    @property
    def total_seconds(self) -> float:
        return self.compile_seconds + self.propagate_seconds


class SwitchingActivityEstimator:
    """Single-BN switching-activity estimation for a combinational circuit.

    Parameters
    ----------
    circuit:
        The circuit to analyse.
    input_model:
        Primary-input statistics (default: independent fair coins).
    heuristic:
        Triangulation heuristic, ``"min_fill"`` (default) or
        ``"min_degree"``.
    max_clique_states:
        Budget on the largest clique table.  Exceeding it raises
        :class:`CliqueBudgetExceeded` so callers can segment instead of
        thrashing memory.  ``None`` disables the check.
    kernel:
        Message-kernel mode, ``"auto"`` (default), ``"dense"`` or
        ``"sparse"`` -- see :meth:`JunctionTree.from_network`.
    """

    def __init__(
        self,
        circuit: Circuit,
        input_model: Optional[InputModel] = None,
        heuristic: str = "min_fill",
        max_clique_states: Optional[int] = 4 ** 10,
        kernel: str = "auto",
    ):
        self.circuit = circuit
        self.input_model = input_model if input_model is not None else IndependentInputs(0.5)
        self.heuristic = heuristic
        self.max_clique_states = max_clique_states
        self.kernel = kernel
        self._bn = None
        self._jt: Optional[JunctionTree] = None
        self.compile_seconds = 0.0

    # ------------------------------------------------------------------

    def compile(self) -> "SwitchingActivityEstimator":
        """Build the LIDAG and its junction tree (idempotent)."""
        if self._jt is not None:
            return self
        with get_tracer().span(
            "estimator.compile",
            circuit=self.circuit.name,
            backend="junction-tree",
        ) as span:
            self._bn = build_lidag(self.circuit, self.input_model)
            self._jt = JunctionTree.from_network(
                self._bn,
                heuristic=self.heuristic,
                max_clique_states=self.max_clique_states,
                kernel=self.kernel,
            )
        self.compile_seconds = span.duration
        return self

    @property
    def junction_tree(self) -> JunctionTree:
        """The compiled junction tree (compiles on first access)."""
        self.compile()
        return self._jt

    def update_inputs(self, input_model: InputModel) -> None:
        """Swap the input statistics the next query answers for.

        Nothing is installed here: every query stacks the recorded
        model's tables into the compiled tree.  The new model must
        induce the same input-to-input edge structure (e.g. independent
        -> temporal is fine; adding new correlation groups needs a
        recompile).
        """
        self.compile()
        self.input_model = input_model

    # ------------------------------------------------------------------

    def estimate(self) -> SwitchingEstimate:
        """Every line's transition distribution under ``self.input_model``.

        A single query is a one-scenario batch: row 0 of
        :meth:`estimate_many` over ``[self.input_model]``.
        """
        return self.estimate_many([self.input_model])[0]

    def estimate_many(self, input_models) -> "list[SwitchingEstimate]":
        """Estimate K input-statistics scenarios in one batched pass.

        All scenarios propagate through the compiled junction tree
        together: the K models become ``(K, ...)`` input-table stacks
        (:class:`~repro.core.inputs.InputStack`; ``input_models`` may
        already be one), the engine stacks a leading batch axis onto
        every belief and message buffer and runs a single vectorized
        collect/distribute sweep, so the per-query Python overhead
        (schedule walking, kernel dispatch, marginal extraction) is paid
        once instead of K times.  Scenarios with equal input tables are
        propagated once and share a result row
        (:meth:`JunctionTree.update_tables_batch`).  Result ``k`` is
        bitwise-identical to an independent ``estimate()`` with
        scenario ``k``'s model.

        Every model must induce the same input-to-input edge structure
        as the compiled one (same rule as :meth:`update_inputs`).
        ``self.input_model`` is not modified, so a later :meth:`estimate`
        still answers for it.
        ``propagate_seconds`` on each result is the amortized per-
        scenario share of the sweep.
        """
        stack = as_input_stack(input_models, self.circuit.inputs)
        if stack is None:
            return []
        lines = list(self.circuit.lines)
        tables, parents = stack.tables(self.circuit.inputs)
        batched, _, per_scenario = self.estimate_many_stacked(
            tables, lines, parents=parents, rows=len(stack)
        )
        return [
            SwitchingEstimate(
                distributions={line: batched[line][k] for line in lines},
                compile_seconds=self.compile_seconds,
                propagate_seconds=per_scenario,
                method=Method.SINGLE_BN.value,
            )
            for k in range(len(stack))
        ]

    def estimate_many_stacked(self, tables, lines, pairs=(), parents=None, rows=None):
        """Batched sweep over stacked input tables.

        The workhorse behind :meth:`estimate_many` and the segmented
        pipeline.  ``tables`` maps input lines to ``(K, *table)`` CPD
        table stacks (a ``(K, 4)`` prior, or a ``(K, 4, 4)``
        conditional on the parent named by ``parents``), as
        :meth:`~repro.core.inputs.InputStack.tables` builds them;
        ``rows`` is K (default: the stacks' length).  Restricting
        ``lines`` (e.g. to a segment's owned internal lines) skips
        marginal extraction for everything else, and the stacked layout
        avoids building K per-scenario dicts that a segmented caller
        would immediately re-stack.  Returns ``(stacks, joints,
        per_scenario_seconds)``: ``{line: (K, 4)}`` and, for each
        ``(a, b)`` of ``pairs`` (which must share a clique), ``{(a, b):
        (K, 4, 4)}`` from :meth:`JunctionTree.joint_marginal_batch`.
        """
        if rows is None:
            rows = len(next(iter(tables.values())))
        self.compile()
        tracer = get_tracer()
        with tracer.span(
            "estimator.propagate_many",
            circuit=self.circuit.name,
            backend="junction-tree",
            scenarios=rows,
        ) as span:
            with tracer.span("propagate.update_batch"):
                self._jt.update_tables_batch(tables, rows, parents or {})
            with tracer.span("propagate.calibrate", scenarios=rows):
                batched = self._jt.marginals_batch(list(lines))
                joints = {
                    (a, b): self._jt.joint_marginal_batch([a, b]) for a, b in pairs
                }
        return batched, joints, span.duration / rows

    def propagation_counters(self) -> PropagationCounters:
        """Cumulative engine work counters for this estimator's tree."""
        if self._jt is None:
            return PropagationCounters()
        return self._jt.propagation_counters()

    def factor_bytes(self) -> int:
        """Bytes of preallocated propagation buffers (memory accounting)."""
        return self._jt.engine_factor_bytes() if self._jt is not None else 0

    def row_footprint(self, lines=None, pairs=()) -> Tuple[int, int]:
        """``(resident, transient)`` bytes one scenario row of
        :meth:`estimate_many` adds to the tree -- or, with ``lines``
        and ``pairs``, of an :meth:`estimate_many_stacked` call reading
        them (compiles; see :meth:`JunctionTree.row_footprint`)."""
        self.compile()
        if lines is None:
            lines = self.circuit.lines
        return self._jt.row_footprint(self.circuit.inputs, lines, pairs)

    def row_bytes(self) -> int:
        """Bytes one scenario row of :meth:`estimate_many` needs: the
        tree's resident and transient bytes plus the result row."""
        return sum(self.row_footprint()) + result_row_bytes(self.circuit)

    def support_stats(self) -> Dict[str, object]:
        """Support-analysis summary of the compiled tree (compiles)."""
        self.compile()
        return self._jt.support_stats()

    def line_distribution(self, line: str) -> np.ndarray:
        """One line's 4-state marginal under ``self.input_model``."""
        return self.conditional_distribution(line, {})

    def conditional_distribution(
        self, line: str, evidence: Mapping[str, int]
    ) -> np.ndarray:
        """Posterior transition distribution given observed transitions.

        The Bayesian network answers *diagnostic* queries the classic
        propagation methods cannot: e.g. the switching of an internal
        line given that a primary output was observed to rise
        (``evidence={"out": TransitionState.X01}``).  The answer is row
        0 of a one-scenario :meth:`estimate_many_stacked` over
        ``self.input_model``'s tables, with the evidence multiplied
        into that install; the evidence is local to this call.
        """
        self.compile()
        stack = InputStack([self.input_model], self.circuit.inputs)
        tables, parents = stack.tables(self.circuit.inputs)
        self._jt.set_evidence({k: int(v) for k, v in evidence.items()})
        try:
            batched, _, _ = self.estimate_many_stacked(
                tables, [line], parents=parents, rows=1
            )
        finally:
            self._jt.clear_evidence()
        return batched[line][0]

    def conditional_switching(self, line: str, evidence: Mapping[str, int]) -> float:
        """Switching activity of ``line`` given observed transitions."""
        return switching_probability(self.conditional_distribution(line, evidence))


def exact_switching_by_enumeration(
    circuit: Circuit, input_model: Optional[InputModel] = None
) -> Dict[str, np.ndarray]:
    """Exact per-line transition distributions by joint enumeration.

    Enumerates all ``4^n`` joint input transition assignments, weights
    each by the input model's joint probability, and functionally
    propagates transitions through the circuit.  Exponential in the
    input count -- this is the ground-truth oracle for small circuits.
    """
    model = input_model if input_model is not None else IndependentInputs(0.5)
    inputs = circuit.inputs
    n = len(inputs)
    if n > 12:
        raise ValueError(f"enumeration over 4^{n} input states is infeasible")

    # Joint input distribution from the model's CPDs (handles correlated
    # groups transparently).
    from repro.bayesian.network import BayesianNetwork

    input_bn = BayesianNetwork("inputs")
    for cpd in model.input_cpds(inputs):
        input_bn.add_cpd(cpd)
    joint = input_bn.joint_factor().permute(inputs)

    distributions = {
        line: np.zeros(N_STATES) for line in circuit.lines
    }
    order = circuit.topological_order()
    for assignment in itertools.product(range(N_STATES), repeat=n):
        weight = float(joint.values[assignment])
        if weight == 0.0:
            continue
        states: Dict[str, int] = dict(zip(inputs, assignment))
        for line in order:
            gate = circuit.driver(line)
            if gate is not None:
                states[line] = int(
                    output_transition(
                        gate.gate_type, [states[s] for s in gate.inputs]
                    )
                )
        for line, state in states.items():
            distributions[line][state] += weight
    return distributions
