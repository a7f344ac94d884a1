"""Consolidated exception hierarchy for the whole package.

Every failure the library raises on purpose derives from
:class:`ReproError`, split into four branches that mirror the pipeline
stages:

``ValidationError``
    The *circuit* is malformed (parse errors, cycles, undriven nets,
    duplicate definitions).  Raised by :mod:`repro.circuits.bench`,
    :class:`repro.circuits.netlist.Circuit`, and
    :mod:`repro.core.validate` before any model is built.
``InputModelError``
    The *input statistics* are malformed (missing inputs, non-finite or
    unnormalized marginals, CPDs referencing unknown lines).
``CompileError``
    A backend could not build its compiled artifact within budget
    (clique budget, memory budget, enumeration width).  The ``"auto"``
    backend segments a circuit whose one junction tree raises
    :class:`CliqueBudgetExceeded` or :class:`MemoryBudgetExceeded`;
    every other compile error, and any from the segmentation, reaches
    the caller unchanged.
``PropagationError``
    Inference on a successfully compiled model produced an invalid
    belief state (zero-mass or non-finite marginals).

Each class multiply-inherits the builtin its pre-consolidation
ancestor subclassed (``ValueError``, ``RuntimeError``, ``KeyError``),
so existing ``except`` clauses keep working.  The modules that raise
them (``repro.circuits.bench.BenchFormatError``,
``repro.core.backend.CliqueBudgetExceeded``, ...) re-export these
classes.

This module is import-light on purpose: it must not import anything
from the package so every layer (circuits, bayesian, core, cli) can
depend on it without cycles.
"""

from __future__ import annotations

__all__ = [
    "ArtifactSchemaError",
    "BenchFormatError",
    "CircuitError",
    "CliqueBudgetExceeded",
    "CombinationalCycleError",
    "CompileError",
    "ConcurrentPropagationError",
    "DuplicateDefinitionError",
    "InputModelError",
    "MemoryBudgetExceeded",
    "PerfDiffError",
    "PerfProfileError",
    "PropagationError",
    "ReproError",
    "SegmentBoundaryError",
    "SegmentTooWide",
    "UndefinedLineError",
    "UnknownBackendError",
    "UnknownCircuitError",
    "UnknownOptionError",
    "ValidationError",
    "ZeroBeliefError",
]


class ReproError(Exception):
    """Base class of every deliberate failure raised by this package."""


# ----------------------------------------------------------------------
# Circuit / netlist validation
# ----------------------------------------------------------------------


class ValidationError(ReproError, ValueError):
    """The circuit description is structurally invalid."""


class CircuitError(ValidationError):
    """Raised for structurally invalid netlists (cycles, double drivers...).

    Historical name; the fine-grained subclasses below are preferred for
    new raises.
    """


class DuplicateDefinitionError(CircuitError):
    """A line is defined more than once (two gates, two ``INPUT``
    declarations, or a gate driving a declared primary input)."""


class UndefinedLineError(CircuitError):
    """A gate operand or ``OUTPUT`` declaration references a line that
    is neither a primary input nor any gate's output."""


class CombinationalCycleError(CircuitError):
    """The gate graph contains a combinational cycle."""


class BenchFormatError(ValidationError):
    """Raised when a ``.bench`` file cannot be parsed."""


class SegmentBoundaryError(ValidationError):
    """A segment boundary model is misconfigured: an unknown
    ``boundary=`` mode, a boundary forest with a cycle, or a boundary
    distribution with the wrong shape or mass.  Pre-consolidation these
    were bare ``ValueError``\\ s out of the segmentation module; the
    message texts are preserved."""


class UnknownCircuitError(ReproError, KeyError):
    """No circuit of the requested name exists in the benchmark suite."""

    def __str__(self) -> str:  # KeyError quotes its repr; keep it readable.
        return str(self.args[0]) if self.args else ""


# ----------------------------------------------------------------------
# Input statistics validation
# ----------------------------------------------------------------------


class InputModelError(ReproError, ValueError):
    """The primary-input statistics model is malformed or incompatible
    with the circuit (missing inputs, non-finite or unnormalized
    marginals, CPDs referencing unknown lines)."""


# ----------------------------------------------------------------------
# Backend compilation
# ----------------------------------------------------------------------


class CompileError(ReproError, RuntimeError):
    """A backend failed to build its compiled artifact.  Nothing
    retries it with another backend: the error reaches the caller of
    ``compile_model`` or ``estimate`` unchanged."""


class CliqueBudgetExceeded(CompileError):
    """The triangulation produced a clique whose table would exceed the
    caller's state-space budget.  Raised *before* any table is
    materialized.  The ``"auto"`` backend segments a circuit whose one
    tree raises this, under the same budget; raised by that
    segmentation (a segment too wide for the budget and for
    enumeration), it reaches the caller."""


class MemoryBudgetExceeded(CompileError):
    """One scenario row of the compiled model needs more memory than
    ``repro.bayesian.propagation.MEMORY_BUDGET_BYTES``: no batch, not
    even a single query, fits.  Raised at compile time.  The
    ``"auto"`` backend segments a circuit whose one tree raises this,
    as on :class:`CliqueBudgetExceeded`; raised by that segmentation,
    it reaches the caller."""


class SegmentTooWide(CompileError):
    """The segment has too many inputs for support enumeration."""


class UnknownBackendError(ReproError, KeyError):
    """No backend is registered under the requested name."""

    def __str__(self) -> str:  # KeyError quotes its repr; keep it readable.
        return str(self.args[0]) if self.args else ""


class UnknownOptionError(ReproError, TypeError):
    """Compile options are not a mapping, or name a parameter the
    backend's ``compile`` does not take."""


# ----------------------------------------------------------------------
# Inference / artifacts
# ----------------------------------------------------------------------


class PropagationError(ReproError, RuntimeError):
    """Propagation on a compiled model produced an invalid belief state
    (zero total mass or non-finite values)."""


class ZeroBeliefError(PropagationError, ZeroDivisionError):
    """Normalizing a belief with zero total mass (impossible evidence or
    annihilated potentials).  Also a :class:`ZeroDivisionError`, which
    the pre-consolidation normalization code raised.

    A batched propagation names its zero-mass rows in
    ``batch_indices``; callers that propagated a collapsed or split
    batch rename them with :meth:`rescatter`.
    """

    #: the zero-mass batch rows (empty outside batched propagation)
    batch_indices: tuple = ()

    @classmethod
    def for_rows(cls, rows) -> "ZeroBeliefError":
        """The error naming batch rows ``rows``."""
        err = cls()
        err._name(tuple(int(i) for i in rows))
        return err

    def rescatter(self, scatter) -> None:
        """Rename the failing rows through a scatter map, in place.

        ``scatter[j]`` is the row that served scenario ``j``; afterwards
        ``batch_indices`` names every scenario a failing row served (a
        row absent from ``scatter`` names none).
        """
        failing = set(self.batch_indices)
        self._name(tuple(j for j, row in enumerate(scatter) if row in failing))

    def _name(self, indices: tuple) -> None:
        self.batch_indices = indices
        self.args = (
            f"cannot normalize a zero belief for batch elements {list(indices)}",
        )


class ConcurrentPropagationError(PropagationError):
    """Two threads entered one :class:`PropagationEngine` at the same
    time.  The engine's belief/message buffers are preallocated and
    mutated in place, so overlapping calls silently corrupt each
    other's results; the engine refuses instead of corrupting.  Give
    each thread its own engine -- ``repro.serve`` checks replicas out
    of a per-model pool for exactly this reason."""


class ArtifactSchemaError(ReproError, RuntimeError):
    """A serialized :class:`~repro.core.backend.base.CompiledModel` has
    a missing or incompatible schema tag and cannot be loaded."""


# ----------------------------------------------------------------------
# Performance history (`repro.perf`)
# ----------------------------------------------------------------------


class PerfProfileError(ReproError, ValueError):
    """A perf profile is malformed, unresolvable, or has an unsupported
    schema tag (store refs that match nothing land here too)."""


class PerfDiffError(ReproError, RuntimeError):
    """Two perf profiles (or benchmark reports) cannot be compared --
    different benchmark kinds, no common rows, or machine fingerprints
    that differ without ``force``.  The CLI maps this to exit code 2."""
