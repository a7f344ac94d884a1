"""Concrete inference backends.

Seven entry points used to be scattered across the codebase --
:class:`~repro.core.estimator.SwitchingActivityEstimator`,
:class:`~repro.core.segments.SegmentedEstimator`,
:func:`~repro.core.estimator.exact_switching_by_enumeration`, and the
four :mod:`repro.baselines` estimators.  They are all query strategies
over the same LIDAG switching model (Tucci: even BDD-style evaluation
is a special case of Bayesian-network inference), so they live here
behind one :class:`~repro.core.backend.base.Backend` surface:

- ``"junction-tree"`` -- single-BN exact inference (the paper's method),
- ``"segmented"``     -- multiple-BN estimation for large circuits,
- ``"enumeration"``   -- exact support enumeration (the oracle),
- ``"auto"``          -- the one backend-selection rule: a single
  junction tree whenever it fits the clique and memory budgets,
  segmentation on :class:`CliqueBudgetExceeded` or
  :class:`MemoryBudgetExceeded` (what the CLI, ``repro serve``, the
  experiments, the benchmark runners and ``repro perf record`` use),
- ``"pairwise"``, ``"local-cone"``, ``"independence"``,
  ``"monte-carlo"``, ``"simulation"`` -- adapters over the classical
  baseline estimators, so comparisons run through the same facade.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.bayesian import propagation
from repro.circuits.netlist import Circuit
from repro.core.backend.base import Backend, CompiledModel, Method
from repro.core.estimator import SwitchingActivityEstimator, SwitchingEstimate
from repro.core.inputs import IndependentInputs, InputModel, InputStack
from repro.core.segments import SegmentedEstimator
from repro.errors import (
    CliqueBudgetExceeded,
    MemoryBudgetExceeded,
    ZeroBeliefError,
)
from repro.obs.trace import get_tracer

__all__ = [
    "AutoBackend",
    "BaselineBackend",
    "BaselineCompiledModel",
    "EnumerationBackend",
    "EstimatorCompiledModel",
    "JunctionTreeBackend",
    "SegmentedBackend",
]


class EstimatorCompiledModel(CompiledModel):
    """Artifact wrapping a compiled estimator.

    Works for every estimator exposing ``update_inputs``, ``estimate``,
    ``estimate_many`` and ``row_bytes`` (single-BN, segmented,
    enumeration); the junction-tree structure, propagation schedules,
    and clique potentials pickle with the estimator, so a loaded
    artifact re-propagates without paying the compile again.  Every
    estimator's ``update_inputs`` only records the model, and its
    ``estimate`` is row 0 of ``estimate_many`` over it, so
    :meth:`query` is the one-scenario case of :meth:`query_many`.

    ``row_bytes`` is recorded at compile: the bytes one scenario row of
    :meth:`query_many` needs.  A model whose single row exceeds
    :data:`~repro.bayesian.propagation.MEMORY_BUDGET_BYTES` raises
    :class:`~repro.errors.MemoryBudgetExceeded` instead of compiling.
    """

    def __init__(self, backend_name: str, circuit: Circuit, estimator):
        super().__init__(backend_name, circuit)
        self.estimator = estimator
        #: bytes one scenario row of :meth:`query_many` needs
        self.row_bytes: int = estimator.row_bytes()
        propagation.check_memory_budget(circuit.name, self.row_bytes)

    @property
    def rows_per_pass(self) -> int:
        """Scenario rows one propagation pass may hold under the budget."""
        return max(1, propagation.MEMORY_BUDGET_BYTES // self.row_bytes)

    def query(self, inputs: Optional[InputModel] = None) -> SwitchingEstimate:
        with get_tracer().span(
            "backend.query", backend=self.backend_name, circuit=self.circuit.name
        ):
            if inputs is not None:
                self.estimator.update_inputs(inputs)
            return self.estimator.estimate()

    def query_many(
        self, inputs_list: "list[InputModel]"
    ) -> "list[SwitchingEstimate]":
        """Vectorized sweep: K scenarios through batched propagation.

        Delegates to the estimator's ``estimate_many`` (single-BN and
        segmented estimators propagate each distinct scenario once, all
        rows in one engine pass; enumeration loops internally).  When
        the K rows fit the memory budget (``K * row_bytes <=
        MEMORY_BUDGET_BYTES``) that is one call.  Otherwise the models
        become one :class:`~repro.core.inputs.InputStack`, duplicate
        scenarios (bytewise-equal input tables) are collapsed over the
        whole call first, the distinct ones are split into near-equal
        chunks of at most :attr:`rows_per_pass` rows, and the results
        are scattered back.  Every chunk is a full pass, so the split
        is bitwise-transparent.

        A :class:`ZeroBeliefError` escaping a chunk names the caller's
        scenario indices: every scenario a failing row served.
        """
        models = list(inputs_list)
        if not models:
            return []
        per_pass = self.rows_per_pass
        with get_tracer().span(
            "backend.query_many",
            backend=self.backend_name,
            circuit=self.circuit.name,
            scenarios=len(models),
        ) as span:
            if len(models) <= per_pass:
                span.annotate(chunks=1)
                return self.estimator.estimate_many(models)
            stack = InputStack(models, self.circuit.inputs)
            reps, scatter = stack.unique()
            distinct = reps.size
            chunks = -(-distinct // per_pass)
            size = -(-distinct // chunks)
            span.annotate(distinct=distinct, chunks=chunks)
            rows: "list[SwitchingEstimate]" = []
            for start in range(0, distinct, size):
                chunk = stack.take(reps[start : start + size])
                try:
                    rows.extend(self.estimator.estimate_many(chunk))
                except ZeroBeliefError as err:
                    err.rescatter([int(row) - start for row in scatter])
                    raise
        served = set()
        results = []
        for row in scatter:
            result = rows[row]
            if row in served:
                result = replace(
                    result,
                    distributions={
                        line: dist.copy()
                        for line, dist in result.distributions.items()
                    },
                )
            served.add(row)
            results.append(result)
        return results

    @property
    def compile_seconds(self) -> float:
        return getattr(self.estimator, "compile_seconds", 0.0)

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        if isinstance(self.estimator, SegmentedEstimator):
            info["segments"] = self.estimator.num_segments
        info["row_bytes"] = self.row_bytes
        info["rows_per_pass"] = self.rows_per_pass
        return info


class JunctionTreeBackend(Backend):
    """Single Bayesian network compiled to one junction tree (exact)."""

    name = "junction-tree"

    def compile(
        self,
        circuit: Circuit,
        inputs: Optional[InputModel] = None,
        heuristic: str = "min_fill",
        max_clique_states: Optional[int] = 4 ** 10,
    ) -> EstimatorCompiledModel:
        estimator = SwitchingActivityEstimator(
            circuit,
            input_model=inputs,
            heuristic=heuristic,
            max_clique_states=max_clique_states,
        ).compile()
        return EstimatorCompiledModel(self.name, circuit, estimator)


class SegmentedBackend(Backend):
    """Multiple-BN estimation for circuits beyond one clique budget."""

    name = "segmented"

    def compile(
        self,
        circuit: Circuit,
        inputs: Optional[InputModel] = None,
        max_gates_per_segment: int = 60,
        max_clique_states: int = 4 ** 9,
        heuristic: str = "min_fill",
        lookback: int = 3,
        boundary: str = "tree",
        refine: int = 0,
        refine_tol: float = 1e-5,
    ) -> EstimatorCompiledModel:
        estimator = SegmentedEstimator(
            circuit,
            input_model=inputs,
            max_gates_per_segment=max_gates_per_segment,
            max_clique_states=max_clique_states,
            heuristic=heuristic,
            lookback=lookback,
            boundary=boundary,
            refine=refine,
            refine_tol=refine_tol,
        ).compile()
        return EstimatorCompiledModel(self.name, circuit, estimator)


class EnumerationBackend(Backend):
    """Exact support enumeration over the whole circuit (the oracle).

    Deterministic gate CPTs make the joint support ``4^inputs`` no
    matter the treewidth; raises
    :class:`~repro.core.enumeration.SegmentTooWide` past the budget.
    """

    name = "enumeration"

    def compile(
        self,
        circuit: Circuit,
        inputs: Optional[InputModel] = None,
        max_input_states: int = 4 ** 9,
    ) -> EstimatorCompiledModel:
        from repro.core.enumeration import EnumerationSegment

        model = inputs if inputs is not None else IndependentInputs(0.5)
        estimator = EnumerationSegment(
            circuit, model, max_input_states=max_input_states
        )
        return EstimatorCompiledModel(self.name, circuit, estimator)


class AutoBackend(Backend):
    """One exact junction tree whenever it fits, else one segmentation.

    The paper segments only circuits too large for one junction tree.
    Every circuit tries one tree under one clique budget
    (``max_clique_states``; by default ``4^10``, or ``4^9`` past 2000
    gates) and the memory budget.  On :class:`CliqueBudgetExceeded` or
    :class:`MemoryBudgetExceeded` it is segmented once, under the same
    clique budget (``max_gates_per_segment`` gates per segment).  A
    rejected tree stops at its first over-budget clique; a typed
    failure of the segmentation reaches the caller unchanged.
    """

    name = "auto"

    def compile(
        self,
        circuit: Circuit,
        inputs: Optional[InputModel] = None,
        max_gates_per_segment: int = 60,
        lookback: int = 3,
        max_clique_states: Optional[int] = None,
        boundary: str = "tree",
        heuristic: str = "min_fill",
        refine: int = 0,
        refine_tol: float = 1e-5,
    ) -> EstimatorCompiledModel:
        if max_clique_states is not None:
            budget = max_clique_states
        elif circuit.num_gates > 2000:
            budget = 4 ** 9
        else:
            budget = 4 ** 10
        try:
            return JunctionTreeBackend().compile(
                circuit, inputs, heuristic=heuristic, max_clique_states=budget
            )
        except (CliqueBudgetExceeded, MemoryBudgetExceeded):
            pass
        return SegmentedBackend().compile(
            circuit,
            inputs,
            max_gates_per_segment=max_gates_per_segment,
            max_clique_states=budget,
            heuristic=heuristic,
            lookback=lookback,
            boundary=boundary,
            refine=refine,
            refine_tol=refine_tol,
        )


# ----------------------------------------------------------------------
# Baseline adapters
# ----------------------------------------------------------------------


def _pairwise_runner(circuit, model, options):
    from repro.baselines.pairwise import pairwise_switching

    result = pairwise_switching(circuit, model)
    # The pairwise model reports (p, activity) per line; reconstruct the
    # 4-state distribution they pin down: P(x01) = P(x10) = a/2, with
    # the remaining mass split by the signal probability.
    distributions = {}
    for line, activity in result.activities.items():
        p = result.signal_probabilities[line]
        half = activity / 2.0
        distributions[line] = np.clip(
            np.array([1.0 - p - half, half, half, p - half]), 0.0, 1.0
        )
    return distributions


def _local_cone_runner(circuit, model, options):
    from repro.baselines.local import local_cone_switching

    result = local_cone_switching(
        circuit,
        model,
        depth=options.get("depth", 3),
        max_cut_inputs=options.get("max_cut_inputs", 6),
    )
    return result.distributions


def _independence_runner(circuit, model, options):
    from repro.baselines.independent import independence_switching

    return independence_switching(circuit, model).distributions


def _monte_carlo_runner(circuit, model, options):
    from repro.baselines.montecarlo import monte_carlo_switching

    result = monte_carlo_switching(
        circuit,
        model,
        relative_error=options.get("relative_error", 0.01),
        max_pairs=options.get("max_pairs", 500_000),
        rng=np.random.default_rng(options.get("seed", 0)),
    )
    return result.distributions


def _simulation_runner(circuit, model, options):
    from repro.baselines.simulation import simulate_switching

    result = simulate_switching(
        circuit,
        model,
        n_pairs=options.get("n_pairs", 100_000),
        rng=np.random.default_rng(options.get("seed", 0)),
    )
    return result.distributions


class BaselineCompiledModel(CompiledModel):
    """Compile-free artifact: the whole estimator runs per query."""

    def __init__(
        self,
        backend_name: str,
        circuit: Circuit,
        method: Method,
        options: Dict[str, Any],
    ):
        super().__init__(backend_name, circuit)
        self.method = method
        self.options = dict(options)

    def query(self, inputs: Optional[InputModel] = None) -> SwitchingEstimate:
        model = inputs if inputs is not None else IndependentInputs(0.5)
        runner = _BASELINE_RUNNERS[self.backend_name]
        with get_tracer().span(
            "backend.query", backend=self.backend_name, circuit=self.circuit.name
        ):
            start = time.perf_counter()
            distributions = runner(self.circuit, model, self.options)
            elapsed = time.perf_counter() - start
        return SwitchingEstimate(
            distributions={
                line: np.asarray(dist, dtype=np.float64)
                for line, dist in distributions.items()
            },
            compile_seconds=0.0,
            propagate_seconds=elapsed,
            method=self.method.value,
            segments=0,
        )


_BASELINE_RUNNERS: Dict[str, Callable] = {
    "pairwise": _pairwise_runner,
    "local-cone": _local_cone_runner,
    "independence": _independence_runner,
    "monte-carlo": _monte_carlo_runner,
    "simulation": _simulation_runner,
}

_BASELINE_METHODS: Dict[str, Method] = {
    "pairwise": Method.PAIRWISE,
    "local-cone": Method.LOCAL_CONE,
    "independence": Method.INDEPENDENCE,
    "monte-carlo": Method.MONTE_CARLO,
    "simulation": Method.SIMULATION,
}


class BaselineBackend(Backend):
    """Adapter exposing one classical estimator through the facade.

    These backends have no compile state worth caching -- ``compile``
    just freezes the options -- but going through the same interface
    lets comparisons (Table 2) swap methods with one string.
    """

    def __init__(self, name: str):
        if name not in _BASELINE_RUNNERS:
            raise ValueError(f"unknown baseline {name!r}")
        self.name = name

    def compile(
        self,
        circuit: Circuit,
        inputs: Optional[InputModel] = None,
        **options: Any,
    ) -> BaselineCompiledModel:
        return BaselineCompiledModel(
            self.name, circuit, _BASELINE_METHODS[self.name], options
        )
