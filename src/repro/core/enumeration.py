"""Exact segment estimation by support enumeration.

Every internal CPD of a LIDAG is deterministic, so the joint
distribution of a segment with ``k`` input lines has at most ``4^k``
support points -- regardless of the moral graph's treewidth.  This
backend enumerates those support points:

1. at construction, build the ``4^k`` grid of joint input states and
   push it through the segment's gates with the cached
   transition-function tables, keeping the states of the retained
   lines (the grid is structural: no input statistics enter it);
2. per scenario, weight each grid row by the input model (independent
   priors, input-to-input chains or tree-boundary conditionals): the
   weights are one broadcast product over the ``(4,) * k`` grid, each
   prior reshaped onto its input's axis and each conditional onto its
   ``(parent, child)`` axes, multiplied in table order;
3. read any retained line's distribution, or any retained pair's joint,
   by weighted bincount.

It serves as the fallback when a segment's junction tree would exceed
the clique budget: high-treewidth but input-narrow segments (exactly
the shape of reconvergent cones) stay *exact* instead of being split
into lossy sub-segments.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.netlist import Circuit
from repro.core.backend.base import Method
from repro.core.cpt import _transition_function
from repro.core.estimator import SwitchingEstimate, result_row_bytes
from repro.core.inputs import InputModel, as_input_stack
from repro.core.states import N_STATES
from repro.errors import SegmentTooWide

__all__ = ["EnumerationSegment", "SegmentTooWide"]


class EnumerationSegment:
    """Segment estimator based on support enumeration.

    One stacked query, :meth:`estimate_many_stacked`, answers K
    scenarios with the ``(K, 4)`` marginals of the requested lines and
    the ``(K, 4, 4)`` joints of the requested line pairs -- the two
    things a segment publishes across its cut.  :meth:`update_inputs`,
    :meth:`estimate` and :meth:`estimate_many` wrap it for the
    ``enumeration`` backend.

    Parameters
    ----------
    circuit:
        The segment subcircuit.
    input_model:
        Joint model of the segment's input lines, answered by
        :meth:`estimate`; priors and single-parent conditionals
        (correlation chains, boundary forests) are supported.
    max_input_states:
        Budget on ``4^k``; exceeding it raises :class:`SegmentTooWide`.
    keep_lines:
        Lines whose enumerated states are retained, and so can be
        queried (defaults to all lines).
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
        # The gate states of the grid are structural; build them once.
        start = time.perf_counter()
        self._build_states()
        self.compile_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------

    def update_inputs(self, input_model: InputModel) -> None:
        """Swap the input statistics :meth:`estimate` answers for."""
        self.input_model = input_model

    def estimate(self) -> SwitchingEstimate:
        """Every retained line's distribution under ``self.input_model``."""
        return self.estimate_many([self.input_model])[0]

    def estimate_many(self, input_models) -> List[SwitchingEstimate]:
        """Every retained line's distribution for each of K scenarios
        (``input_models`` may be an :class:`~repro.core.inputs.InputStack`)."""
        stack = as_input_stack(input_models, self.circuit.inputs)
        if stack is None:
            return []
        tables, parents = stack.tables(self.circuit.inputs)
        lines = list(self._states)
        stacks, _, seconds = self.estimate_many_stacked(
            tables, lines, parents=parents, rows=len(stack)
        )
        return [
            SwitchingEstimate(
                distributions={line: stacks[line][j] for line in lines},
                compile_seconds=self.compile_seconds,
                propagate_seconds=seconds,
                method=Method.ENUMERATION.value,
            )
            for j in range(len(stack))
        ]

    def estimate_many_stacked(
        self,
        tables,
        lines: Sequence[str],
        pairs: Sequence[Tuple[str, str]] = (),
        parents=None,
        rows: Optional[int] = None,
    ):
        """Marginals and pair joints of K scenarios, stacked.

        ``tables`` maps every input line to a ``(K, 4)`` prior stack or
        a ``(K, 4, 4)`` stack conditional on the line ``parents[name]``
        names (the layout :meth:`~repro.core.inputs.InputStack.tables`
        builds); ``rows`` is K (default: the stacks' length).  A row's
        weights multiply the tables in ``tables`` order.  Returns
        ``(stacks, joints, per_scenario_seconds)``: ``stacks`` maps each
        of ``lines`` to a ``(K, 4)`` array and ``joints`` maps each
        ``(a, b)`` of ``pairs`` to a normalized ``(K, 4, 4)`` array
        (``a``-major).  Scenarios are weighted one after another, so a
        row costs only its result; row ``k`` is bitwise-identical to a
        one-scenario call.  A requested line that is not retained
        (``keep_lines``) raises :class:`KeyError`.
        """
        start = time.perf_counter()
        k = len(next(iter(tables.values()))) if rows is None else rows
        factors = self._grid_factors(tables, parents or {})
        grid = (N_STATES,) * self.circuit.num_inputs
        stacks = {line: np.empty((k, N_STATES)) for line in lines}
        joints = {pair: np.empty((k, N_STATES, N_STATES)) for pair in pairs}
        flats = {
            (a, b): self._states[a] * N_STATES + self._states[b] for a, b in pairs
        }
        for j in range(k):
            weights = np.ones((1,) * len(grid))
            for stack, shape, transpose in factors:
                table = stack[j].T if transpose else stack[j]
                weights = weights * table.reshape(shape)
            weights = np.broadcast_to(weights, grid).reshape(-1)
            for line in lines:
                stacks[line][j] = _normalized(
                    np.bincount(self._states[line], weights, minlength=N_STATES)
                )
            for pair, flat in flats.items():
                joints[pair][j] = _normalized(
                    np.bincount(flat, weights, minlength=N_STATES ** 2).reshape(
                        N_STATES, N_STATES
                    )
                )
        return stacks, joints, (time.perf_counter() - start) / max(k, 1)

    def _grid_factors(self, tables, parents):
        """``(stack, shape, transpose)`` per input table, in ``tables``
        order: ``shape`` puts a prior's 4 states on its input's grid
        axis and a conditional's ``(parent, child)`` states on theirs
        (``transpose`` when the parent's axis comes after the child's)."""
        axis = {name: i for i, name in enumerate(self.circuit.inputs)}
        factors = []
        for name, stack in tables.items():
            shape = [1] * len(axis)
            shape[axis[name]] = N_STATES
            transpose = False
            if name in parents:
                parent_axis = axis[parents[name][0]]
                shape[parent_axis] = N_STATES
                transpose = parent_axis > axis[name]
            factors.append((stack, tuple(shape), transpose))
        return factors

    def row_bytes(self) -> int:
        """Bytes one scenario row of :meth:`estimate_many` needs: only
        its result row (scenarios are weighted one after another over
        the same states)."""
        return result_row_bytes(self.circuit)

    def __getstate__(self):
        # The states are rebuildable and can be tens of megabytes on
        # wide segments; drop them from artifacts.
        state = self.__dict__.copy()
        state["_states"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._build_states()

    def _build_states(self) -> None:
        """Enumerate the input grid and push it through every gate,
        keeping the retained lines' states.  Input ``i`` of the circuit
        is axis ``i`` of the ``(4,) * k`` grid, flattened in C order."""
        k = self.circuit.num_inputs
        states: Dict[str, np.ndarray] = {}
        if k:
            grids = np.meshgrid(
                *([np.arange(N_STATES, dtype=np.int8)] * k), indexing="ij"
            )
            states = {
                name: grid.reshape(-1)
                for name, grid in zip(self.circuit.inputs, grids)
            }
        for line in self.circuit.topological_order():
            gate = self.circuit.driver(line)
            if gate is None:
                continue
            table = np.asarray(_transition_function(gate.gate_type, gate.arity), dtype=np.int8)
            flat = np.zeros(self.n_rows, dtype=np.int32)
            for src in gate.inputs:
                flat = flat * N_STATES + states[src]
            states[line] = table[flat]
        self._states = {
            line: st
            for line, st in states.items()
            if self.keep_lines is None or line in self.keep_lines
        }

    def stats(self) -> Dict[str, float]:
        return {
            "cliques": 0,
            "max_clique_vars": 0,
            "max_clique_states": self.n_rows,
            "fill_ins": 0,
            "total_table_entries": self.n_rows,
        }


def _normalized(counts: np.ndarray) -> np.ndarray:
    """``counts`` over its total; uniform when the total is zero."""
    total = counts.sum()
    return counts / total if total > 0 else np.full(counts.shape, 1.0 / counts.size)
