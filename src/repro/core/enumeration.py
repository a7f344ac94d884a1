"""Exact segment estimation by support enumeration.

Every internal CPD of a LIDAG is deterministic, so the joint
distribution of a segment with ``k`` input lines has at most ``4^k``
support points -- regardless of the moral graph's treewidth.  This
backend enumerates those support points in one vectorized pass:

1. build the ``4^k`` grid of joint input states,
2. weight each grid row by the input model (independent priors or the
   tree-boundary chain conditionals),
3. push the whole grid through the segment's gates with the cached
   transition-function tables,
4. read any line's distribution (or any pair's joint) by weighted
   bincount.

It serves as the fallback when a segment's junction tree would exceed
the clique budget: high-treewidth but input-narrow segments (exactly
the shape of reconvergent cones) stay *exact* instead of being split
into lossy sub-segments.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Optional

import numpy as np

from repro.circuits.netlist import Circuit
from repro.core.backend.base import Method
from repro.core.cpt import _transition_function
from repro.core.estimator import SwitchingEstimate
from repro.core.inputs import InputModel
from repro.core.states import N_STATES
from repro.errors import SegmentTooWide

__all__ = ["EnumerationSegment", "SegmentTooWide"]


class EnumerationSegment:
    """Drop-in segment estimator based on support enumeration.

    Exposes the same surface the segmented estimator uses:
    :meth:`update_inputs`, :meth:`estimate`, and (beyond the junction
    tree) :meth:`pair_joint` for *any* pair of segment lines.

    Parameters
    ----------
    circuit:
        The segment subcircuit.
    input_model:
        Joint model of the segment's input lines; priors and chain
        conditionals (``TreeBoundaryInputs``) are supported.
    max_input_states:
        Budget on ``4^k``; exceeding it raises :class:`SegmentTooWide`.
    keep_lines:
        Lines whose enumerated states are retained for later
        :meth:`pair_joint` queries (defaults to all lines).
    """

    def __init__(
        self,
        circuit: Circuit,
        input_model: InputModel,
        max_input_states: int = 4 ** 9,
        keep_lines: Optional[Iterable[str]] = None,
    ):
        k = circuit.num_inputs
        n_rows = N_STATES ** k
        if n_rows > max_input_states:
            raise SegmentTooWide(
                f"{circuit.name}: 4^{k} = {n_rows} input states exceeds "
                f"budget {max_input_states}"
            )
        self.circuit = circuit
        self.input_model = input_model
        self.n_rows = n_rows
        self.keep_lines = set(keep_lines) if keep_lines is not None else None
        self.compile_seconds = 0.0
        self._weights: Optional[np.ndarray] = None
        self._kept_states: Dict[str, np.ndarray] = {}
        # The input-state grid is structural; build it once.
        start = time.perf_counter()
        self._rebuild_grid()
        self.compile_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------

    def update_inputs(self, input_model: InputModel) -> None:
        """Swap input statistics; weights are rebuilt at next estimate."""
        self.input_model = input_model
        self._weights = None
        self._kept_states = {}

    def _compute_weights(self) -> np.ndarray:
        """Per-row joint probability of the input assignment."""
        weights = np.ones(self.n_rows)
        for cpd in self.input_model.input_cpds(self.circuit.inputs):
            child_states = self._input_states[cpd.variable]
            table = cpd.to_factor().values
            if cpd.parents:
                parent_states = self._input_states[cpd.parents[0]]
                weights *= table[parent_states, child_states]
            else:
                weights *= table[child_states]
        return weights

    def estimate(self) -> SwitchingEstimate:
        """Enumerate the segment's joint support and read all marginals."""
        start = time.perf_counter()
        weights = self._compute_weights()
        states: Dict[str, np.ndarray] = dict(self._input_states)
        distributions: Dict[str, np.ndarray] = {}
        for name in self.circuit.inputs:
            distributions[name] = self._distribution(states[name], weights)
        for line in self.circuit.topological_order():
            gate = self.circuit.driver(line)
            if gate is None:
                continue
            table = np.asarray(_transition_function(gate.gate_type, gate.arity), dtype=np.int8)
            flat = np.zeros(self.n_rows, dtype=np.int32)
            for src in gate.inputs:
                flat = flat * N_STATES + states[src]
            states[line] = table[flat]
            distributions[line] = self._distribution(states[line], weights)
        self._weights = weights
        if self.keep_lines is None:
            self._kept_states = states
        else:
            self._kept_states = {
                ln: st for ln, st in states.items() if ln in self.keep_lines
            }
        propagate_seconds = time.perf_counter() - start
        return SwitchingEstimate(
            distributions=distributions,
            compile_seconds=self.compile_seconds,
            propagate_seconds=propagate_seconds,
            method=Method.ENUMERATION.value,
        )

    def estimate_many(self, input_models) -> "list[SwitchingEstimate]":
        """Estimate K scenarios sequentially.

        Enumeration is already one vectorized pass over the support
        grid, so there is no batched kernel to exploit; this simply
        loops :meth:`update_inputs` + :meth:`estimate`.  After the call
        the cached states/weights (and therefore :meth:`pair_joint`)
        reflect the *last* scenario -- batched callers that need
        per-scenario pair joints must read them inside the loop, which
        :class:`repro.core.segments.SegmentedEstimator` does.
        """
        results = []
        for model in input_models:
            self.update_inputs(model)
            results.append(self.estimate())
        return results

    def __getstate__(self):
        # The grid and the per-query caches are rebuildable and can be
        # tens of megabytes on wide segments; drop them from artifacts.
        state = self.__dict__.copy()
        state["_input_states"] = None
        state["_weights"] = None
        state["_kept_states"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._rebuild_grid()

    def _rebuild_grid(self) -> None:
        k = self.circuit.num_inputs
        if k:
            grids = np.meshgrid(
                *([np.arange(N_STATES, dtype=np.int8)] * k), indexing="ij"
            )
            self._input_states = {
                name: grid.reshape(-1)
                for name, grid in zip(self.circuit.inputs, grids)
            }
        else:
            self._input_states = {}

    @staticmethod
    def _distribution(states: np.ndarray, weights: np.ndarray) -> np.ndarray:
        dist = np.zeros(N_STATES)
        np.add.at(dist, states, weights)
        total = dist.sum()
        return dist / total if total > 0 else np.full(N_STATES, 1.0 / N_STATES)

    # ------------------------------------------------------------------

    def pair_joint(self, a: str, b: str) -> np.ndarray:
        """Normalized 4x4 joint of two segment lines (``a``-major).

        Requires a prior :meth:`estimate` call (states are cached from
        it) and both lines to be in ``keep_lines``.
        """
        if self._weights is None:
            self.estimate()
        missing = {a, b} - set(self._kept_states)
        if missing:
            raise KeyError(f"states not retained for {sorted(missing)}")
        joint = np.zeros((N_STATES, N_STATES))
        flat = self._kept_states[a] * N_STATES + self._kept_states[b]
        np.add.at(joint.reshape(-1), flat, self._weights)
        total = joint.sum()
        return joint / total if total > 0 else np.full((N_STATES, N_STATES), 1 / 16)

    def stats(self) -> Dict[str, float]:
        return {
            "cliques": 0,
            "max_clique_vars": 0,
            "max_clique_states": self.n_rows,
            "fill_ins": 0,
            "total_table_entries": self.n_rows,
        }
