"""Primary-input statistics models.

An :class:`InputModel` supplies two views of the same stochastic process
on the primary inputs:

1. **CPDs** over the 4-state transition variables of the input lines,
   merged into the LIDAG (:meth:`InputModel.input_cpds`).  Models may
   add input-to-input edges (spatial correlation) as long as they stay
   acyclic.
2. **Vector-pair samples** for the logic-simulation ground truth
   (:meth:`InputModel.sample_pairs`), drawn from the *same* process so
   estimator and simulator are comparable.

Three models cover the paper's experiments and its "input modeling"
future-work extension:

- :class:`IndependentInputs` -- i.i.d. Bernoulli streams (the paper's
  pseudo-random inputs).
- :class:`TemporalInputs` -- per-input lag-1 Markov streams with a
  target switching activity.
- :class:`CorrelatedGroupInputs` -- spatially correlated groups layered
  on either temporal model.

Batched sweeps read K models at once through :class:`InputStack`, which
turns them into ``(K, ...)`` arrays: the scenarios are grouped by exact
model class and each in-repo class builds all of its rows in one call
(``_stack_arrays``); any other model falls back to its
``marginal_distribution`` and ``input_cpds_trusted``.  A single query
is the one-scenario case of the same build.  A row that fails
validation raises :class:`~repro.errors.InputModelError` naming its
scenario.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bayesian.cpd import TabularCPD
from repro.bayesian.junction import unique_rows
from repro.core.states import (
    N_STATES,
    current_values,
    independent_transition_distribution,
    markov_transition_distribution,
    previous_values,
)
from repro.errors import InputModelError

ProbabilitySpec = Union[float, Mapping[str, float]]


def _per_input(spec: ProbabilitySpec, name: str, default: float) -> float:
    if type(spec) is dict or isinstance(spec, Mapping):
        return float(spec.get(name, default))
    return float(spec)


def _spec_matrix(specs: Sequence[ProbabilitySpec], names: Sequence[str]) -> np.ndarray:
    """:func:`_per_input` (default 0.5) over ``specs`` x ``names``, as a
    ``(K, n)`` matrix.  ``type(spec) is dict`` skips the ``Mapping``
    ABC check for the common case."""
    n = len(names)
    rows = [
        [float(spec.get(name, 0.5)) for name in names]
        if type(spec) is dict or isinstance(spec, Mapping)
        else [float(spec)] * n
        for spec in specs
    ]
    return np.array(rows, dtype=np.float64).reshape(len(specs), n)


def _prob_spec(value) -> ProbabilitySpec:
    """Normalize a JSON probability field: scalar or per-input mapping."""
    if isinstance(value, Mapping):
        return {str(k): float(v) for k, v in value.items()}
    return float(value)


def input_model_from_spec(spec: Mapping) -> "InputModel":
    """Build an :class:`InputModel` from a plain-dict (JSON-friendly) spec.

    The spec vocabulary is shared by the fuzz-reproducer files and the
    ``repro sweep`` scenario lists; the ``kind`` field selects the
    model class and the remaining fields are its parameters::

        {"kind": "independent", "p_one": 0.3}
        {"kind": "independent", "p_one": {"a": 0.9, "b": 0.1}}
        {"kind": "temporal", "p_one": 0.5, "activity": 0.2}
        {"kind": "trace", "trace": [[0,1],[1,1]], "input_names": ["a","b"]}
        {"kind": "correlated", "groups": [["a","b"]], "rho": 0.8,
         "base_p_one": 0.5}

    Probability fields accept a scalar (applied to every input) or a
    per-input mapping (missing names default to 0.5).  Raises
    :class:`~repro.errors.InputModelError` on an unknown ``kind``.
    """
    kind = spec.get("kind")
    if kind == "independent":
        return IndependentInputs(_prob_spec(spec.get("p_one", 0.5)))
    if kind == "temporal":
        return TemporalInputs(
            p_one=_prob_spec(spec.get("p_one", 0.5)),
            activity=_prob_spec(spec.get("activity", 0.5)),
        )
    if kind == "trace":
        return TraceInputs(
            np.asarray(spec["trace"], dtype=np.uint8),
            list(spec["input_names"]),
            smoothing=float(spec.get("smoothing", 1.0)),
        )
    if kind == "correlated":
        base = IndependentInputs(_prob_spec(spec.get("base_p_one", 0.5)))
        groups = [tuple(g) for g in spec.get("groups", [])]
        if not groups:
            return base
        return CorrelatedGroupInputs(groups, rho=float(spec["rho"]), base=base)
    raise InputModelError(f"unknown input-model kind {kind!r}")


class InputModel(ABC):
    """Joint stochastic model of the primary-input transition variables."""

    @abstractmethod
    def input_cpds(self, input_names: Sequence[str]) -> List[TabularCPD]:
        """CPDs for the input-line nodes (roots and, for correlated
        models, input-to-input conditionals)."""

    @abstractmethod
    def sample_pairs(
        self, input_names: Sequence[str], n_pairs: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``n_pairs`` consecutive-cycle vector pairs.

        Returns ``(previous, current)`` matrices of shape
        ``(n_pairs, len(input_names))`` with 0/1 entries.
        """

    @abstractmethod
    def marginal_distribution(self, name: str) -> np.ndarray:
        """The 4-state marginal distribution of one input line."""

    def sample_states(
        self, input_names: Sequence[str], n_pairs: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Transition-state samples, shape ``(n_pairs, n_inputs)``."""
        prev, curr = self.sample_pairs(input_names, n_pairs, rng)
        return (prev.astype(np.int64) << 1) | curr.astype(np.int64)

    def input_cpds_trusted(self, input_names: Sequence[str]) -> List[TabularCPD]:
        """Like :meth:`input_cpds`, but may skip CPD re-validation.

        Result-cache digests hash these tables, and :class:`InputStack`
        stacks them for models without an array builder.  The in-repo
        models build them from their arrays (normalized by
        construction) through :meth:`TabularCPD._trusted`, which skips
        the row-sum check; any other model delegates to
        :meth:`input_cpds`, so third-party models stay correct without
        opting in.
        """
        if type(self) not in _ARRAY_MODELS:
            return self.input_cpds(input_names)
        tables, parents = InputStack([self], input_names).tables(input_names)
        return [
            TabularCPD._trusted(name, table[0], parents.get(name, ()))
            for name, table in tables.items()
        ]


class IndependentInputs(InputModel):
    """Spatially independent, temporally independent input streams.

    Parameters
    ----------
    p_one:
        Probability of each input being 1, either a scalar applied to
        all inputs or a per-input mapping (missing names default to 0.5).
    """

    def __init__(self, p_one: ProbabilitySpec = 0.5):
        self.p_one = p_one

    def _p(self, name: str) -> float:
        p = _per_input(self.p_one, name, 0.5)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p_one for {name!r} out of [0, 1]: {p}")
        return p

    def marginal_distribution(self, name: str) -> np.ndarray:
        return independent_transition_distribution(self._p(name))

    def input_cpds(self, input_names: Sequence[str]) -> List[TabularCPD]:
        return [
            TabularCPD.prior(name, self.marginal_distribution(name))
            for name in input_names
        ]

    @classmethod
    def _stack_arrays(cls, models, input_names: Sequence[str]):
        try:
            p = _spec_matrix([m.p_one for m in models], input_names)
        except (TypeError, ValueError):
            _recheck(models, input_names, range(len(models)))
            raise
        _check(models, input_names, (p >= 0.0) & (p <= 1.0))
        q = 1.0 - p
        return np.stack([q * q, q * p, p * q, p * p], axis=-1), [{}] * len(models)

    def sample_pairs(self, input_names, n_pairs, rng):
        probs = np.array([self._p(n) for n in input_names])
        prev = (rng.random((n_pairs, len(input_names))) < probs).astype(np.uint8)
        curr = (rng.random((n_pairs, len(input_names))) < probs).astype(np.uint8)
        return prev, curr


class TemporalInputs(InputModel):
    """Per-input stationary lag-1 Markov streams.

    Parameters
    ----------
    p_one:
        Stationary P(1) per input (scalar or mapping).
    activity:
        Target switching activity per input (scalar or mapping).  Must
        satisfy ``activity / 2 <= min(p, 1 - p)`` per input.
    """

    def __init__(self, p_one: ProbabilitySpec = 0.5, activity: ProbabilitySpec = 0.5):
        self.p_one = p_one
        self.activity = activity

    def _params(self, name: str) -> Tuple[float, float]:
        return (
            _per_input(self.p_one, name, 0.5),
            _per_input(self.activity, name, 0.5),
        )

    def marginal_distribution(self, name: str) -> np.ndarray:
        p, a = self._params(name)
        return markov_transition_distribution(p, a)

    def input_cpds(self, input_names: Sequence[str]) -> List[TabularCPD]:
        return [
            TabularCPD.prior(name, self.marginal_distribution(name))
            for name in input_names
        ]

    @classmethod
    def _stack_arrays(cls, models, input_names: Sequence[str]):
        try:
            p = _spec_matrix([m.p_one for m in models], input_names)
            a = _spec_matrix([m.activity for m in models], input_names)
        except (TypeError, ValueError):
            _recheck(models, input_names, range(len(models)))
            raise
        half = a / 2.0
        ok = (p >= 0.0) & (p <= 1.0) & (a >= 0.0) & (a <= 1.0)
        ok &= half <= np.minimum(p, 1.0 - p) + 1e-12
        _check(models, input_names, ok)
        rows = np.stack([1.0 - p - half, half, half, p - half], axis=-1)
        return rows.clip(min=0.0), [{}] * len(models)

    def sample_pairs(self, input_names, n_pairs, rng):
        n = len(input_names)
        prev = np.empty((n_pairs, n), dtype=np.uint8)
        curr = np.empty((n_pairs, n), dtype=np.uint8)
        for j, name in enumerate(input_names):
            dist = self.marginal_distribution(name)
            states = rng.choice(N_STATES, size=n_pairs, p=dist)
            prev[:, j] = previous_values(states)
            curr[:, j] = current_values(states)
        return prev, curr


class TraceInputs(InputModel):
    """Input statistics estimated from a recorded vector trace.

    Real workloads rarely come as closed-form statistics; this model
    takes a recorded stream of input vectors (consecutive rows =
    consecutive cycles), estimates each input's 4-state transition
    distribution from the observed consecutive pairs (with add-one
    smoothing so no state gets exactly zero mass), and resamples the
    recorded pairs for simulation.

    Spatial correlation within the trace is preserved by the sampler
    (whole rows are resampled) but, as with all marginal-based models,
    only the per-line marginals enter the LIDAG priors -- wire a
    :class:`CorrelatedGroupInputs` on top when cross-input correlation
    must reach the estimator.

    Parameters
    ----------
    trace:
        Array of shape ``(n_cycles, n_inputs)`` with 0/1 entries.
    input_names:
        Column names, one per trace column.
    smoothing:
        Add-``smoothing`` pseudo-counts per transition state.
    """

    def __init__(
        self,
        trace: np.ndarray,
        input_names: Sequence[str],
        smoothing: float = 1.0,
    ):
        trace = np.asarray(trace)
        if trace.ndim != 2 or trace.shape[0] < 2:
            raise ValueError("trace must be (n_cycles >= 2, n_inputs)")
        if trace.shape[1] != len(input_names):
            raise ValueError(
                f"trace has {trace.shape[1]} columns for {len(input_names)} names"
            )
        if not np.isin(trace, (0, 1)).all():
            raise ValueError("trace entries must be 0/1")
        if smoothing < 0:
            raise ValueError("smoothing must be >= 0")
        self._names = list(input_names)
        self._trace = trace.astype(np.uint8)
        states = (self._trace[:-1].astype(np.int64) << 1) | self._trace[1:]
        self._distributions: Dict[str, np.ndarray] = {}
        for j, name in enumerate(self._names):
            counts = np.bincount(states[:, j], minlength=N_STATES).astype(np.float64)
            counts += smoothing
            self._distributions[name] = counts / counts.sum()

    def marginal_distribution(self, name: str) -> np.ndarray:
        if name not in self._distributions:
            raise KeyError(f"input {name!r} not in the trace")
        return self._distributions[name]

    def input_cpds(self, input_names: Sequence[str]) -> List[TabularCPD]:
        return [
            TabularCPD.prior(name, self.marginal_distribution(name))
            for name in input_names
        ]

    @classmethod
    def _stack_arrays(cls, models, input_names: Sequence[str]):
        return _per_model(models, input_names, _plain_arrays)

    def sample_pairs(self, input_names, n_pairs, rng):
        columns = [self._names.index(name) for name in input_names]
        picks = rng.integers(0, self._trace.shape[0] - 1, size=n_pairs)
        prev = self._trace[picks][:, columns]
        curr = self._trace[picks + 1][:, columns]
        return prev, curr


class CorrelatedGroupInputs(InputModel):
    """Spatially correlated input groups over a base temporal model.

    Within each group the inputs form a chain: the first is drawn from
    the base model's marginal; each subsequent input *copies* its
    predecessor's transition state with probability ``rho`` and draws a
    fresh state from its own base marginal otherwise.  The chain maps
    directly onto extra input-to-input LIDAG edges, demonstrating the
    paper's claim that input correlations fit the same BN machinery.

    The copy process shifts marginals: a chained member's marginal is
    ``rho * marginal(predecessor) + (1 - rho) * base(member)``, which
    equals its base marginal only when the whole group shares one base
    distribution.  :meth:`marginal_distribution` reports this *implied*
    marginal so that it, the CPDs, and :meth:`sample_pairs` all describe
    the same joint (the differential fuzz harness caught the earlier
    inconsistency, which made the segmented backend report base
    marginals for correlated inputs while exact propagation produced
    the chain-implied ones).

    Parameters
    ----------
    base:
        Underlying per-input model (defaults to fair independent inputs).
    groups:
        Iterable of input-name tuples to correlate (disjoint).
    rho:
        Copy probability in [0, 1]; 0 reduces to the base model.
    """

    def __init__(
        self,
        groups: Iterable[Sequence[str]],
        rho: float,
        base: Optional[InputModel] = None,
    ):
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {rho}")
        self.base = base if base is not None else IndependentInputs(0.5)
        self.groups = [tuple(g) for g in groups]
        self.rho = rho
        seen: set = set()
        for group in self.groups:
            if len(group) < 2:
                raise ValueError("correlation groups need at least 2 inputs")
            for name in group:
                if name in seen:
                    raise ValueError(f"input {name!r} appears in two groups")
                seen.add(name)
        #: map from input name to its in-group predecessor
        self._predecessor: Dict[str, str] = {}
        for group in self.groups:
            for prev_name, name in zip(group, group[1:]):
                self._predecessor[name] = prev_name

    def marginal_distribution(self, name: str) -> np.ndarray:
        """Chain-implied marginal (equals the base marginal for roots)."""
        parent = self._predecessor.get(name)
        if parent is None:
            return self.base.marginal_distribution(name)
        return (
            self.rho * self.marginal_distribution(parent)
            + (1.0 - self.rho) * self.base.marginal_distribution(name)
        )

    def input_cpds(self, input_names: Sequence[str]) -> List[TabularCPD]:
        available = set(input_names)
        cpds: List[TabularCPD] = []
        for name in input_names:
            parent = self._predecessor.get(name)
            if parent is None or parent not in available:
                # Parent absent: marginalizing the chain over it leaves
                # exactly the implied marginal as this input's prior.
                cpds.append(TabularCPD.prior(name, self.marginal_distribution(name)))
            else:
                fresh = self.base.marginal_distribution(name)
                table = np.empty((N_STATES, N_STATES))
                for parent_state in range(N_STATES):
                    row = (1.0 - self.rho) * fresh
                    row[parent_state] += self.rho
                    table[parent_state] = row
                cpds.append(TabularCPD(name, N_STATES, table, [parent]))
        return cpds

    @classmethod
    def _stack_arrays(cls, models, input_names: Sequence[str]):
        return _per_model(models, input_names, cls._model_arrays)

    def _model_arrays(self, input_names: Sequence[str]):
        # Implied marginals need every chain ancestor of a name.
        needed = list(input_names)
        position = {name: i for i, name in enumerate(needed)}
        for name in input_names:
            parent = self._predecessor.get(name)
            while parent is not None and parent not in position:
                position[parent] = len(needed)
                needed.append(parent)
                parent = self._predecessor.get(parent)
        base = _stack_rows([self.base], needed)[0][0]
        implied = base.copy()
        # Chain members one depth at a time: a member's implied marginal
        # reads its predecessor's, one depth up.
        for depth in range(1, max((len(g) for g in self.groups), default=1)):
            members = [
                (position[g[depth]], position[g[depth - 1]])
                for g in self.groups
                if len(g) > depth and g[depth] in position
            ]
            if members:
                child, parent = (np.array(ix) for ix in zip(*members))
                implied[child] = self.rho * implied[parent] + (1.0 - self.rho) * base[child]
        chained = [name for name in input_names if name in self._predecessor]
        tables = np.repeat(
            ((1.0 - self.rho) * base[[position[n] for n in chained]])[:, None, :],
            N_STATES,
            axis=1,
        )
        diagonal = np.arange(N_STATES)
        tables[:, diagonal, diagonal] += self.rho
        chains = {
            name: (self._predecessor[name], table)
            for name, table in zip(chained, tables)
        }
        return implied[: len(input_names)], chains

    def sample_pairs(self, input_names, n_pairs, rng):
        index = {name: j for j, name in enumerate(input_names)}
        # Fill roots first, then chain successors in group order, so a
        # predecessor's states exist before its dependents copy them.
        ordered = [n for n in input_names if n not in self._predecessor]
        for group in self.groups:
            ordered.extend(n for n in group[1:] if n in index)
        states = np.empty((n_pairs, len(input_names)), dtype=np.int64)
        for name in ordered:
            j = index[name]
            parent = self._predecessor.get(name)
            if parent is None or parent not in index:
                # Roots (and orphans whose parent is not sampled) draw
                # from the implied marginal so subsets stay consistent.
                dist = self.marginal_distribution(name)
                states[:, j] = rng.choice(N_STATES, size=n_pairs, p=dist)
            else:
                # The fresh part of the copy process uses the *base*
                # marginal; copying the parent supplies the rest.
                fresh = rng.choice(
                    N_STATES, size=n_pairs, p=self.base.marginal_distribution(name)
                )
                copy_mask = rng.random(n_pairs) < self.rho
                states[:, j] = np.where(copy_mask, states[:, index[parent]], fresh)
        return (
            previous_values(states).astype(np.uint8),
            current_values(states).astype(np.uint8),
        )


#: Models whose ``_stack_arrays`` builds, in one call over every
#: scenario of the class, the tables their ``input_cpds`` would build
#: one CPD at a time.  Exact types only: a subclass may override any of
#: the input methods.
_ARRAY_MODELS = frozenset(
    {IndependentInputs, TemporalInputs, TraceInputs, CorrelatedGroupInputs}
)


class _RowError(Exception):
    """Row ``row`` of a class builder's ``models`` raised ``error``."""

    def __init__(self, row: int, error: Exception):
        super().__init__(row, error)
        self.row = row
        self.error = error


def _check(models, names: Sequence[str], ok: np.ndarray) -> None:
    """:func:`_recheck` the rows of a ``(K, n)`` validity mask ``ok``
    with an invalid entry."""
    if not ok.all():
        _recheck(models, names, np.flatnonzero(~ok.all(axis=1)))


def _recheck(models, names: Sequence[str], rows) -> None:
    """Run the scalar check (``marginal_distribution`` of every name) on
    ``rows`` in order; raise :class:`_RowError` for the first that fails."""
    for row in rows:
        model = models[row]
        try:
            for name in names:
                model.marginal_distribution(name)
        except Exception as exc:
            raise _RowError(int(row), exc) from None


def _plain_arrays(model: InputModel, names: Sequence[str]):
    """One row from ``model.marginal_distribution`` of ``names``, with
    no chains."""
    rows = [model.marginal_distribution(name) for name in names]
    return np.array(rows, dtype=np.float64).reshape(-1, N_STATES), {}


def _per_model(models, names: Sequence[str], build):
    """A class builder that loops: ``build(model, names)`` is one row's
    ``(marginals (n, 4), chains)``."""
    marginals = np.empty((len(models), len(names), N_STATES))
    chains = []
    for row, model in enumerate(models):
        try:
            marginals[row], row_chains = build(model, names)
        except Exception as exc:
            raise _RowError(row, exc) from None
        chains.append(row_chains)
    return marginals, chains


def _stack_rows(models: Sequence[InputModel], names: Sequence[str]):
    """``(marginals (K, n, 4), chains)`` of ``models`` over ``names``.

    The models are grouped by exact type; each class in
    :data:`_ARRAY_MODELS` builds its rows in one ``_stack_arrays`` call,
    any other model row by row from ``marginal_distribution``.
    ``chains[k]`` maps each chained input among ``names`` to ``(parent,
    P(input | parent))``; the table applies when the parent is present.

    When rows are invalid, the first of them raises, as if the models
    were built one at a time: a ``ValueError`` as
    :class:`~repro.errors.InputModelError` with the same text, prefixed
    ``scenario {k}: `` when K > 1; any other error unchanged.
    """
    groups: Dict[type, List[int]] = {}
    for row, model in enumerate(models):
        groups.setdefault(type(model), []).append(row)
    marginals = None  # one class's block is the stack as built
    if len(groups) > 1:
        marginals = np.empty((len(models), len(names), N_STATES))
    chains: List[dict] = [{}] * len(models)
    first: Optional[Tuple[int, Exception]] = None
    for cls, rows in groups.items():
        members = [models[row] for row in rows]
        try:
            if cls in _ARRAY_MODELS:
                block, maps = cls._stack_arrays(members, names)
            else:
                block, maps = _per_model(members, names, _plain_arrays)
        except _RowError as failure:
            if first is None or rows[failure.row] < first[0]:
                first = (rows[failure.row], failure.error)
            continue
        if marginals is None:
            marginals = block
        else:
            marginals[rows] = block
        for row, row_chains in zip(rows, maps):
            chains[row] = row_chains
    if first is not None:
        row, error = first
        if not isinstance(error, ValueError):
            if len(models) > 1:
                error.add_note(f"raised by scenario {row}")
            raise error
        prefix = f"scenario {row}: " if len(models) > 1 else ""
        raise InputModelError(f"{prefix}{error}") from error
    return marginals, chains


class InputStack:
    """K input models over one circuit's input lines, as arrays.

    Built once per batched call.  :attr:`marginals` is the ``(K, n,
    4)`` stack of every input's 4-state marginal; :meth:`tables`
    stacks, for any subset of the inputs, the CPD tables
    ``input_cpds_trusted`` would build per scenario.  The models are
    grouped by exact class and each in-repo class builds its rows in one
    call (:func:`_stack_rows`); when any other model is present the
    stack falls back to every model's ``marginal_distribution`` (built
    on first use) and ``input_cpds_trusted``.
    """

    def __init__(self, models: Sequence[InputModel], names: Sequence[str]):
        self.models = list(models)
        if not self.models:
            raise ValueError("need at least one input model")
        self.names = list(names)
        self._index = {name: i for i, name in enumerate(self.names)}
        self._marginals: Optional[np.ndarray] = None
        #: per-model chain maps (None: some model has no array builder)
        self._chains: Optional[List[dict]] = None
        self._conditionals: Dict[str, np.ndarray] = {}
        if all(type(model) in _ARRAY_MODELS for model in self.models):
            self._marginals, self._chains = _stack_rows(self.models, self.names)

    def __len__(self) -> int:
        """K, the number of scenarios."""
        return len(self.models)

    @property
    def marginals(self) -> np.ndarray:
        """``(K, n, 4)`` marginals of every input, in :attr:`names` order."""
        if self._marginals is None:
            self._marginals = _stack_rows(self.models, self.names)[0]
        return self._marginals

    def marginal(self, name: str) -> np.ndarray:
        """``(K, 4)`` marginal stack of one input."""
        return self.marginals[:, self._index[name]]

    def tables(
        self, names: Sequence[str]
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, Tuple[str, ...]]]:
        """The input CPD tables of ``names``, stacked per scenario.

        Returns ``(tables, parents)``: ``tables[name]`` is the ``(K,
        *table)`` stack of the tables ``input_cpds_trusted(names)``
        builds (a ``(K, 4)`` prior, or a ``(K, 4, 4)`` conditional on
        the parent ``parents[name]``), in ``names`` order.  Scenarios
        must agree on which inputs are conditionals and on their
        parents.
        """
        if self._chains is None:
            return self._stack_cpds(names)
        parent_of: Dict[str, str] = {}
        if any(self._chains):
            present = set(names)
            realized = [
                {c: p for c, (p, _) in chains.items() if c in present and p in present}
                for chains in self._chains
            ]
            parent_of = realized[0]
            if any(other != parent_of for other in realized[1:]):
                raise ValueError(
                    "every scenario must give the inputs the same correlation "
                    "structure (CPD parents); recompile instead"
                )
        tables: Dict[str, np.ndarray] = {}
        for name in names:
            if name in parent_of:
                tables[name] = self._conditional(name)
            else:
                tables[name] = self.marginal(name)
        return tables, {child: (parent,) for child, parent in parent_of.items()}

    def _conditional(self, name: str) -> np.ndarray:
        stack = self._conditionals.get(name)
        if stack is None:
            stack = self._conditionals[name] = np.stack(
                [chains[name][1] for chains in self._chains]
            )
        return stack

    def _stack_cpds(self, names: Sequence[str]):
        """:meth:`tables` from each model's ``input_cpds_trusted``."""
        sets = [model.input_cpds_trusted(list(names)) for model in self.models]
        first = sets[0]
        for cpds in sets[1:]:
            if [c.variable for c in cpds] != [c.variable for c in first]:
                raise ValueError(
                    "every scenario must update the same variables in the "
                    "same order"
                )
            for cpd, ref in zip(cpds, first):
                if cpd.parents != ref.parents:
                    raise ValueError(
                        f"new CPD for {cpd.variable!r} changes parents "
                        f"{ref.parents} -> {cpd.parents}; recompile instead"
                    )
        tables = {
            cpd.variable: np.stack([cpds[i].factor.values for cpds in sets])
            for i, cpd in enumerate(first)
        }
        return tables, {cpd.variable: cpd.parents for cpd in first if cpd.parents}

    def take(self, rows: Sequence[int]) -> "InputStack":
        """The sub-stack of scenarios ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        sub = object.__new__(InputStack)
        sub.models = [self.models[r] for r in rows]
        sub.names = self.names
        sub._index = self._index
        sub._marginals = None if self._marginals is None else self._marginals[rows]
        sub._chains = None if self._chains is None else [self._chains[r] for r in rows]
        sub._conditionals = {n: t[rows] for n, t in self._conditionals.items()}
        return sub

    def unique(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(reps, scatter)`` of scenarios with bytewise-equal input
        tables (:func:`~repro.bayesian.junction.unique_rows`)."""
        tables, _ = self.tables(self.names)
        if not tables:
            return unique_rows(np.empty((len(self), 0)))
        return unique_rows(
            np.concatenate([t.reshape(len(self), -1) for t in tables.values()], axis=1)
        )


def as_input_stack(inputs, names: Sequence[str]) -> Optional[InputStack]:
    """``inputs`` if it already is an :class:`InputStack`, else the stack
    over ``names`` of the models it lists (``None`` when it lists none)."""
    if isinstance(inputs, InputStack):
        return inputs
    models = list(inputs)
    return InputStack(models, names) if models else None
