"""Depth-bounded exact local-cone propagation.

The "approximate higher-order correlation" class of baselines
(Schneider et al. '96; local-OBDD tagged simulation of Ding et al.):
for every line, the joint distribution over its transitive fanin is
computed *exactly* but only up to a bounded structural depth.  Lines at
the cut are treated as independent with their previously estimated
4-state distributions, so correlation between cut lines is lost --
increasing the depth trades time for accuracy and converges to the
exact answer.

The cone evaluation is vectorized: all joint states of the cone's cut
inputs are enumerated as one batch and pushed through the cone at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

import numpy as np

from repro.circuits.netlist import Circuit
from repro.core.cpt import _transition_function
from repro.core.inputs import IndependentInputs, InputModel
from repro.core.states import N_STATES, LineResult


@dataclass
class LocalConeResult(LineResult):
    """Per-line 4-state distributions from depth-bounded cones."""

    #: actual cone depth used per line (after input-budget shrinking)
    depths: Dict[str, int]


def _bounded_cone(
    circuit: Circuit, line: str, depth: int, max_cut: int, position: Dict[str, int]
) -> tuple:
    """Cone of ``line`` up to ``depth`` gate levels, shrunk to respect
    the cut-size budget.  Returns (cone_lines_topo, cut_lines, used_depth).

    Depth never shrinks below 1 (the line's own gate must be evaluated);
    a single gate whose fan-in exceeds the budget is accepted as-is.
    """
    for d in range(max(depth, 1), 0, -1):
        cone: Set[str] = {line}
        frontier = {line}
        for _ in range(d):
            next_frontier = set()
            for ln in frontier:
                gate = circuit.driver(ln)
                if gate is None:
                    continue
                for src in gate.inputs:
                    if src not in cone:
                        next_frontier.add(src)
            cone |= next_frontier
            frontier = next_frontier
        # A cone line is evaluated only if all its sources are in the cone;
        # everything else is a cut input.
        cut = sorted(
            ln
            for ln in cone
            if circuit.driver(ln) is None
            or not all(src in cone for src in circuit.driver(ln).inputs)
        )
        if len(cut) <= max_cut or d == 1:
            ordered = sorted(cone, key=position.__getitem__)
            return ordered, cut, d
    raise AssertionError("unreachable: d == 1 always returns")  # pragma: no cover


def local_cone_switching(
    circuit: Circuit,
    input_model: Optional[InputModel] = None,
    depth: int = 3,
    max_cut_inputs: int = 6,
) -> LocalConeResult:
    """Estimate switching with depth-bounded exact cones.

    Parameters
    ----------
    depth:
        Gate levels of exact joint modeling behind each line.
    max_cut_inputs:
        Budget on cut width; cones whose cut exceeds it shrink their
        depth (enumeration is ``4^cut``).
    """
    model = input_model if input_model is not None else IndependentInputs(0.5)
    distributions: Dict[str, np.ndarray] = {
        name: np.asarray(model.marginal_distribution(name), dtype=np.float64)
        for name in circuit.inputs
    }
    depths: Dict[str, int] = {name: 0 for name in circuit.inputs}
    position = {ln: i for i, ln in enumerate(circuit.topological_order())}

    for line in circuit.topological_order():
        gate = circuit.driver(line)
        if gate is None:
            continue
        cone_lines, cut, used_depth = _bounded_cone(
            circuit, line, depth, max_cut_inputs, position
        )
        depths[line] = used_depth

        # Enumerate all joint cut states as one vectorized batch.
        n_cut = len(cut)
        n_rows = N_STATES ** n_cut
        grids = np.meshgrid(*([np.arange(N_STATES)] * n_cut), indexing="ij")
        cut_states = {ln: g.reshape(-1) for ln, g in zip(cut, grids)}
        weights = np.ones(n_rows)
        for ln in cut:
            weights *= distributions[ln][cut_states[ln]]

        states: Dict[str, np.ndarray] = dict(cut_states)
        for ln in cone_lines:
            if ln in states:
                continue
            g = circuit.driver(ln)
            table = np.asarray(_transition_function(g.gate_type, g.arity))
            flat = np.zeros(n_rows, dtype=np.int64)
            for src in g.inputs:
                flat = flat * N_STATES + states[src]
            states[ln] = table[flat]

        dist = np.zeros(N_STATES)
        np.add.at(dist, states[line], weights)
        total = dist.sum()
        distributions[line] = dist / total if total > 0 else np.full(N_STATES, 0.25)

    return LocalConeResult(distributions=distributions, depths=depths)
