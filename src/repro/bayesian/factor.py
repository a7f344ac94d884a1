"""Discrete factor algebra over named variables.

A :class:`Factor` is a non-negative table indexed by the joint states of
an ordered tuple of named discrete variables.  Factors support the
operations exact inference needs: product, division (with the 0/0 = 0
convention required by Hugin updates), marginalization, evidence
reduction, and normalization.  All arithmetic happens on numpy arrays
with broadcasting, so factor product is O(size of the result table).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import ZeroBeliefError


class Factor:
    """An unnormalized potential over a set of discrete variables.

    Parameters
    ----------
    variables:
        Ordered variable names; axis ``k`` of ``values`` indexes
        ``variables[k]``.
    values:
        Array of shape ``tuple(cardinalities)``; must be non-negative.

    Factors are immutable by convention: all operations return new
    factors and never mutate ``values`` in place (callers that need
    in-place speed use the underscore-prefixed helpers).
    """

    __slots__ = ("variables", "values", "_varset")

    def __init__(self, variables: Sequence[str], values: np.ndarray):
        self.variables: Tuple[str, ...] = tuple(variables)
        self.values = np.asarray(values, dtype=np.float64)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variables in factor: {self.variables}")
        if self.values.ndim != len(self.variables):
            raise ValueError(
                f"{len(self.variables)} variables but values has "
                f"{self.values.ndim} dimensions"
            )
        if np.any(self.values < 0):
            raise ValueError("factor values must be non-negative")
        self._varset = frozenset(self.variables)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _unsafe(cls, variables: Tuple[str, ...], values: np.ndarray) -> "Factor":
        """Internal fast path: skip validation for results of operations
        that preserve the factor invariants by construction."""
        factor = object.__new__(cls)
        factor.variables = tuple(variables)
        factor.values = values
        factor._varset = frozenset(factor.variables)
        return factor

    @classmethod
    def unit(cls) -> "Factor":
        """The multiplicative identity: a scalar factor of value 1."""
        return cls((), np.float64(1.0).reshape(()))

    @classmethod
    def uniform(cls, variables: Sequence[str], cardinalities: Sequence[int]) -> "Factor":
        """A constant factor of all ones over the given variables."""
        return cls(variables, np.ones(tuple(cardinalities)))

    @classmethod
    def indicator(cls, variable: str, cardinality: int, state: int) -> "Factor":
        """Evidence indicator: 1 at ``state``, 0 elsewhere."""
        if not 0 <= state < cardinality:
            raise ValueError(f"state {state} out of range for cardinality {cardinality}")
        values = np.zeros(cardinality)
        values[state] = 1.0
        return cls((variable,), values)

    @classmethod
    def from_distribution(cls, variable: str, probabilities: Sequence[float]) -> "Factor":
        """A single-variable factor holding a probability vector."""
        probs = np.asarray(probabilities, dtype=np.float64)
        if probs.ndim != 1:
            raise ValueError("probabilities must be one-dimensional")
        return cls((variable,), probs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def cardinality(self, variable: str) -> int:
        """Number of states of ``variable`` in this factor."""
        return self.values.shape[self.variables.index(variable)]

    @property
    def cardinalities(self) -> Dict[str, int]:
        return {v: self.values.shape[i] for i, v in enumerate(self.variables)}

    @property
    def size(self) -> int:
        """Number of table entries."""
        return int(self.values.size)

    def __contains__(self, variable: str) -> bool:
        return variable in self._varset

    # ------------------------------------------------------------------
    # Core algebra
    # ------------------------------------------------------------------

    def _expand_to(self, union: Sequence[str]) -> np.ndarray:
        """View of ``values`` broadcastable against the ``union`` scope."""
        own_axes = [self.variables.index(v) for v in union if v in self._varset]
        arr = self.values.transpose(own_axes) if own_axes else self.values.reshape(())
        it = iter(arr.shape)
        shape = [next(it) if v in self._varset else 1 for v in union]
        return arr.reshape(shape)

    def product(self, other: "Factor") -> "Factor":
        """Factor product (scope = union of scopes)."""
        union = list(self.variables) + [v for v in other.variables if v not in self._varset]
        return Factor._unsafe(union, self._expand_to(union) * other._expand_to(union))

    def divide(self, other: "Factor") -> "Factor":
        """Factor division with the 0/0 = 0 convention.

        Division by zero where the numerator is non-zero is an error: in a
        correctly calibrated junction tree it never happens.
        """
        union = list(self.variables) + [v for v in other.variables if v not in self._varset]
        num = np.broadcast_to(self._expand_to(union), self._union_shape(other, union)).copy()
        den = np.broadcast_to(other._expand_to(union), num.shape)
        zero_den = den == 0
        if np.any(zero_den & (num != 0)):
            raise ZeroDivisionError("nonzero/zero in factor division")
        out = np.divide(num, den, out=np.zeros_like(num), where=~zero_den)
        return Factor._unsafe(union, out)

    def _union_shape(self, other: "Factor", union: Sequence[str]) -> Tuple[int, ...]:
        cards = dict(other.cardinalities)
        cards.update(self.cardinalities)
        return tuple(cards[v] for v in union)

    def marginalize(self, variables: Iterable[str]) -> "Factor":
        """Sum out the given variables."""
        drop = set(variables)
        missing = drop - self._varset
        if missing:
            raise KeyError(f"cannot marginalize absent variables {sorted(missing)}")
        axes = tuple(i for i, v in enumerate(self.variables) if v in drop)
        keep = tuple(v for v in self.variables if v not in drop)
        return Factor._unsafe(keep, self.values.sum(axis=axes))

    def marginal_onto(self, variables: Sequence[str]) -> "Factor":
        """Sum out everything *except* the given variables.

        The result's variables follow this factor's axis order, not the
        order of ``variables``.
        """
        keep = set(variables)
        missing = keep - self._varset
        if missing:
            raise KeyError(f"factor does not contain {sorted(missing)}")
        return self.marginalize([v for v in self.variables if v not in keep])

    def reduce(self, evidence: Mapping[str, int]) -> "Factor":
        """Condition on observed states, removing the observed variables."""
        arr = self.values
        keep_vars = []
        index: list = []
        for i, v in enumerate(self.variables):
            if v in evidence:
                state = evidence[v]
                if not 0 <= state < arr.shape[i]:
                    raise ValueError(f"state {state} out of range for {v!r}")
                index.append(state)
            else:
                keep_vars.append(v)
                index.append(slice(None))
        return Factor(keep_vars, arr[tuple(index)])

    def normalize(self) -> "Factor":
        """Scale so the table sums to 1."""
        total = self.values.sum()
        if total <= 0:
            raise ZeroBeliefError("cannot normalize a zero factor")
        return Factor._unsafe(self.variables, self.values / total)

    def permute(self, order: Sequence[str]) -> "Factor":
        """Reorder axes to ``order`` (must be a permutation of the scope)."""
        if set(order) != self._varset or len(order) != len(self.variables):
            raise ValueError(f"{order} is not a permutation of {self.variables}")
        axes = [self.variables.index(v) for v in order]
        return Factor._unsafe(tuple(order), self.values.transpose(axes))

    # ------------------------------------------------------------------
    # Queries & comparison
    # ------------------------------------------------------------------

    def probability(self, assignment: Mapping[str, int]) -> float:
        """Table entry for a full assignment of this factor's scope."""
        index = tuple(assignment[v] for v in self.variables)
        return float(self.values[index])

    def total(self) -> float:
        return float(self.values.sum())

    def allclose(self, other: "Factor", atol: float = 1e-10) -> bool:
        """True if both factors have the same scope and ~equal tables."""
        if set(self.variables) != set(other.variables):
            return False
        return np.allclose(self.values, other.permute(self.variables).values, atol=atol)

    def __mul__(self, other):
        if isinstance(other, Factor):
            return self.product(other)
        return Factor(self.variables, self.values * float(other))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Factor({list(self.variables)}, size={self.size})"

    # ------------------------------------------------------------------
    # In-place kernels (propagation-engine fast path)
    #
    # These break the immutability convention on purpose; they are only
    # called by code that owns the underlying buffer (the compiled
    # propagation engine).  The public API above never mutates.
    # ------------------------------------------------------------------

    def _imul(self, other: "Factor") -> "Factor":
        """In-place multiply by a factor whose scope is a subset of ours."""
        self.values *= other._expand_to(self.variables)
        return self

    def _is_identity(self) -> bool:
        """True for an all-ones table (multiplicative identity on its scope)."""
        values = self.values
        return bool((values == 1.0).all())


def plan_product(factors: Iterable[Factor]) -> list:
    """Select and order the factors :func:`factor_product` would fold.

    Smallest factors come first so intermediate products stay as small
    as possible, and identity (all-ones) factors are dropped unless they
    are needed to establish the result's scope.

    Returns the ordered list of factors to fold (may be empty).
    """

    def size_key(factor: Factor) -> int:
        return factor.size

    pending = sorted(factors, key=size_key)
    keep: list = []
    identities: list = []
    covered: set = set()
    for factor in pending:
        if factor._is_identity():
            identities.append(factor)
        else:
            keep.append(factor)
            covered |= factor._varset
    # Identity factors only matter when they widen the scope.
    for factor in identities:
        if not factor._varset <= covered:
            keep.append(factor)
            covered |= factor._varset
    keep.sort(key=size_key)
    return keep


def factor_product(factors: Iterable[Factor]) -> Factor:
    """Multiply a collection of factors (unit factor if empty).

    Smallest-scope factors are folded first so intermediate products
    stay as small as possible, and identity (all-ones) factors are
    skipped unless they are needed to establish the result's scope.
    The result's *variable set* matches the naive left-to-right fold;
    the axis order may differ (use :meth:`Factor.permute` if a specific
    order is required).
    """
    keep = plan_product(factors)
    if not keep:
        # All inputs were identities over already-covered scopes (or the
        # iterable was empty); the widest identity, if any, carries the
        # scope.  ``covered`` is empty here, so the product is scalar 1
        # unless some identity factor exists -- but every identity with
        # new scope was kept above, so scalar unit is correct.
        return Factor.unit()
    result = keep[0]
    for factor in keep[1:]:
        result = result.product(factor)
    if len(keep) == 1:
        # Never alias an input factor: callers treat results as fresh.
        result = Factor._unsafe(result.variables, result.values.copy())
    return result
