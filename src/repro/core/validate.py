"""Strict validation of circuits and input models.

This is the gatekeeper the serving path runs before any LIDAG is built:
Theorem 3 (the LIDAG is a minimal I-map, so junction-tree propagation
is exact) only holds for a well-formed combinational netlist, and the
Hugin kernels only stay finite for well-formed input statistics.  The
pass is invoked from three places:

- :class:`repro.circuits.netlist.Circuit` construction
  (:func:`check_netlist` + the cycle/output checks in ``__init__``),
- :func:`repro.circuits.bench.parse_bench` (declaration-level checks
  with ``.bench`` line numbers, before a :class:`Circuit` exists),
- the backend facade (:func:`validate_circuit` /
  :func:`validate_input_model` on every ``compile_model`` call, and
  :func:`validate_many` once per sweep, so hand-built or mutated
  objects are caught too).

Every rejection raises a typed exception from :mod:`repro.errors`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence

import numpy as np

from repro.core.states import N_STATES
from repro.errors import (
    CombinationalCycleError,
    DuplicateDefinitionError,
    InputModelError,
    UndefinedLineError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuits.netlist import Circuit, Gate
    from repro.core.inputs import InputModel

__all__ = [
    "check_netlist",
    "validate",
    "validate_circuit",
    "validate_input_model",
    "validate_many",
]

_ATOL = 1e-9  # tolerance for "marginal sums to one"


def check_netlist(
    name: str, inputs: Sequence[str], gates: Iterable["Gate"]
) -> Dict[str, "Gate"]:
    """Declaration-level netlist checks; returns the driver map.

    Rejects duplicate primary inputs, multiply-driven lines, gates
    driving declared primary inputs, and gate operands that no line
    defines.  Cycle detection needs the full driver map and lives in
    :meth:`Circuit._compute_topological_order`.
    """
    seen_inputs = set()
    for line in inputs:
        if line in seen_inputs:
            raise DuplicateDefinitionError(
                f"{name}: duplicate primary input names ({line!r} declared twice)"
            )
        seen_inputs.add(line)

    driver: Dict[str, Gate] = {}
    for gate in gates:
        if gate.output in driver:
            raise DuplicateDefinitionError(
                f"{name}: line {gate.output!r} driven twice"
            )
        if gate.output in seen_inputs:
            raise DuplicateDefinitionError(
                f"{name}: primary input {gate.output!r} driven by a gate"
            )
        driver[gate.output] = gate

    defined = seen_inputs | set(driver)
    for gate in driver.values():
        for src in gate.inputs:
            if src not in defined:
                raise UndefinedLineError(
                    f"{name}: gate {gate.output!r} reads undefined line {src!r}"
                )
    return driver


def validate_circuit(circuit: "Circuit") -> None:
    """Re-run every structural check on an existing :class:`Circuit`.

    Construction already validates, but circuits are mutable objects
    that may have been edited or unpickled; the facade re-checks before
    compiling so a malformed object fails typed instead of producing a
    wrong answer deep inside a backend.
    """
    check_netlist(circuit.name, circuit.inputs, circuit.gates.values())
    for gate in circuit.gates.values():
        if gate.output != circuit.gates[gate.output].output:  # pragma: no cover
            raise DuplicateDefinitionError(
                f"{circuit.name}: driver map key {gate.output!r} mismatch"
            )
    # Cycle check via Kahn's algorithm over the current driver map (the
    # cached topological order may predate a mutation).
    indegree = {
        out: sum(1 for src in g.inputs if src in circuit.gates)
        for out, g in circuit.gates.items()
    }
    ready = [out for out, deg in indegree.items() if deg == 0]
    consumers: Dict[str, list] = {}
    for out, g in circuit.gates.items():
        for src in g.inputs:
            if src in circuit.gates:
                consumers.setdefault(src, []).append(out)
    placed = 0
    while ready:
        line = ready.pop()
        placed += 1
        for consumer in consumers.get(line, ()):
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                ready.append(consumer)
    if placed != len(circuit.gates):
        cyclic = sorted(out for out, deg in indegree.items() if deg > 0)
        raise CombinationalCycleError(
            f"{circuit.name}: combinational cycle through {cyclic[:5]}"
        )
    defined = set(circuit.inputs) | set(circuit.gates)
    for line in circuit.outputs:
        if line not in defined:
            raise UndefinedLineError(
                f"{circuit.name}: undefined primary output {line!r}"
            )


def validate_input_model(circuit: "Circuit", model: "InputModel") -> None:
    """Check input statistics are usable for the given circuit.

    Every primary input must have a finite, non-negative marginal over
    the four transition states summing to one, and the model's CPDs
    must cover exactly the circuit's inputs with parents drawn from the
    same set.
    """
    from repro.core.inputs import InputModel

    if not isinstance(model, InputModel):
        raise InputModelError(
            f"input model must be an InputModel, got {type(model).__name__}"
        )
    for name in circuit.inputs:
        try:
            marginal = np.asarray(model.marginal_distribution(name), dtype=float)
        except KeyError as exc:
            raise InputModelError(
                f"input model provides no statistics for primary input {name!r}"
            ) from exc
        if marginal.shape != (N_STATES,):
            raise InputModelError(
                f"marginal of {name!r} has shape {marginal.shape}, "
                f"expected ({N_STATES},)"
            )
        if not np.all(np.isfinite(marginal)):
            raise InputModelError(f"marginal of {name!r} has non-finite entries")
        if np.any(marginal < 0):
            raise InputModelError(f"marginal of {name!r} has negative entries")
        if abs(float(marginal.sum()) - 1.0) > _ATOL:
            raise InputModelError(
                f"marginal of {name!r} sums to {marginal.sum():.6g}, expected 1"
            )
    input_set = set(circuit.inputs)
    try:
        cpds = model.input_cpds(circuit.inputs)
    except KeyError as exc:
        raise InputModelError(
            f"input model cannot build CPDs for {circuit.name}: {exc}"
        ) from exc
    covered = set()
    for cpd in cpds:
        if cpd.variable not in input_set:
            raise InputModelError(
                f"input model defines CPD for {cpd.variable!r}, "
                f"which is not a primary input of {circuit.name}"
            )
        if cpd.variable in covered:
            raise InputModelError(
                f"input model defines two CPDs for {cpd.variable!r}"
            )
        covered.add(cpd.variable)
        for parent in cpd.parents:
            if parent not in input_set:
                raise InputModelError(
                    f"CPD of {cpd.variable!r} conditions on {parent!r}, "
                    f"which is not a primary input of {circuit.name}"
                )
        if not np.all(np.isfinite(cpd.to_factor().values)):
            raise InputModelError(f"CPD of {cpd.variable!r} has non-finite entries")
    missing = input_set - covered
    if missing:
        raise InputModelError(
            f"input model provides no CPD for inputs {sorted(missing)}"
        )


def validate(circuit: "Circuit", model: Optional["InputModel"] = None) -> None:
    """Validate a circuit and (when given) its input model."""
    validate_circuit(circuit)
    if model is not None:
        validate_input_model(circuit, model)


def validate_many(circuit: "Circuit", models: Sequence["InputModel"]) -> None:
    """Validate a circuit once and every model of a sweep against it.

    The checks :func:`validate` runs per model, with one circuit pass:
    the models' marginals are read through one
    :class:`~repro.core.inputs.InputStack` (one vectorized build per
    in-repo class, a bad row named by its scenario); any other model
    also goes through :func:`validate_input_model`, which checks its
    CPD coverage.
    """
    from repro.core.inputs import _ARRAY_MODELS, InputStack

    validate_circuit(circuit)
    if not models:
        return
    for model in models:
        if type(model) not in _ARRAY_MODELS:
            validate_input_model(circuit, model)
    try:
        marginals = InputStack(models, circuit.inputs).marginals
    except KeyError as exc:
        raise InputModelError(f"input model provides no statistics: {exc}") from exc
    ok = np.isfinite(marginals).all(axis=-1) & (marginals >= 0).all(axis=-1)
    ok &= np.abs(marginals.sum(axis=-1) - 1.0) <= _ATOL
    for row in np.flatnonzero(~ok.all(axis=1)):
        # An in-repo model over a malformed base: the scalar checks
        # name the input and what is wrong with it.
        validate_input_model(circuit, models[row])
