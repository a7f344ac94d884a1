"""Dependency-preserving switching-activity estimation with Bayesian networks.

A from-scratch reproduction of Bhanja & Ranganathan, *"Dependency
Preserving Probabilistic Modeling of Switching Activity using Bayesian
Networks"* (DAC 2001): combinational circuits are mapped to
LIDAG-structured Bayesian networks over 4-state transition variables,
compiled to junction trees, and queried by local message passing for
exact per-line switching activity.

Quickstart::

    from repro import estimate
    from repro.circuits.examples import c17

    result = estimate(c17())          # backend="auto" picks the method
    print(result.switching("22"))

or, compile once and query many times (optionally through the on-disk
compile cache)::

    from repro import compile_model

    model = compile_model(c17(), backend="junction-tree", cache=True)
    result = model.query()

Packages
--------
- :mod:`repro.circuits` -- gate-level netlists, parsers, generators.
- :mod:`repro.bayesian` -- the exact inference engine (factors, junction
  trees, variable elimination).
- :mod:`repro.core` -- the LIDAG switching model (the paper's
  contribution), multi-BN segmentation, and the backend layer
  (:mod:`repro.core.backend`) every estimate routes through.
- :mod:`repro.baselines` -- logic simulation ground truth and classical
  approximate estimators.
- :mod:`repro.bdd` -- ROBDDs with exact signal probability.
- :mod:`repro.power` -- switched-capacitance power model.
- :mod:`repro.analysis` -- error metrics and report tables.
- :mod:`repro.experiments` -- the paper's tables and figures.
"""

from repro.core import (
    CorrelatedGroupInputs,
    IndependentInputs,
    SegmentedEstimator,
    SwitchingActivityEstimator,
    SwitchingEstimate,
    TemporalInputs,
    build_lidag,
    exact_switching_by_enumeration,
)
from repro.core.backend import (
    Backend,
    CliqueBudgetExceeded,
    CompileCache,
    CompiledModel,
    Method,
    available_backends,
    compile_model,
    estimate,
    estimate_many,
    get_backend,
    register_backend,
)
from repro.errors import (
    CompileError,
    InputModelError,
    PropagationError,
    ReproError,
    ValidationError,
)

__version__ = "1.0.0"

__all__ = [
    "Backend",
    "CliqueBudgetExceeded",
    "CompileError",
    "InputModelError",
    "PropagationError",
    "ReproError",
    "ValidationError",
    "CompileCache",
    "CompiledModel",
    "CorrelatedGroupInputs",
    "IndependentInputs",
    "Method",
    "SegmentedEstimator",
    "SwitchingActivityEstimator",
    "SwitchingEstimate",
    "TemporalInputs",
    "available_backends",
    "build_lidag",
    "compile_model",
    "estimate",
    "estimate_many",
    "exact_switching_by_enumeration",
    "get_backend",
    "register_backend",
    "__version__",
]
