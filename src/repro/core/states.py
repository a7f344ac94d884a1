"""The four-state transition algebra.

Each circuit line's random variable takes one of four values encoding
the line's logic value at two consecutive clock cycles::

    x00 = 0 -> 0    x01 = 0 -> 1    x10 = 1 -> 0    x11 = 1 -> 1

This is the paper's key representational move: temporal (lag-1)
correlation is *inside* the state space, so a single static Bayesian
network captures spatio-temporal dependence.  The switching activity of
a line is ``P(x01) + P(x10)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Dict, Iterator, Mapping, Sequence, Tuple

import numpy as np

#: Number of transition states per line variable.
N_STATES = 4

#: Human-readable state names, indexed by state value.
STATE_NAMES = ("x00", "x01", "x10", "x11")


class TransitionState(IntEnum):
    """Transition of a line between clock t-1 and clock t."""

    X00 = 0
    X01 = 1
    X10 = 2
    X11 = 3

    @classmethod
    def from_pair(cls, previous: int, current: int) -> "TransitionState":
        """Encode (value at t-1, value at t) as a transition state."""
        return cls((int(bool(previous)) << 1) | int(bool(current)))

    @property
    def previous_value(self) -> int:
        """The line's logic value at t-1."""
        return (self.value >> 1) & 1

    @property
    def current_value(self) -> int:
        """The line's logic value at t."""
        return self.value & 1

    @property
    def is_switch(self) -> bool:
        """True for the two toggling states x01 and x10."""
        return self.previous_value != self.current_value

    def __str__(self) -> str:
        return STATE_NAMES[self.value]


def previous_values(states: np.ndarray) -> np.ndarray:
    """Vectorized t-1 value extraction."""
    return (np.asarray(states) >> 1) & 1


def current_values(states: np.ndarray) -> np.ndarray:
    """Vectorized t value extraction."""
    return np.asarray(states) & 1


def encode_pairs(previous: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Vectorized (t-1, t) -> state encoding."""
    return (np.asarray(previous).astype(np.int64) << 1) | np.asarray(current).astype(
        np.int64
    )


def switching_probability(distribution: Sequence[float]) -> float:
    """Switching activity from a 4-state distribution: P(x01) + P(x10)."""
    dist = np.asarray(distribution, dtype=np.float64)
    if dist.shape != (N_STATES,):
        raise ValueError(f"expected a length-{N_STATES} distribution, got {dist.shape}")
    return float(dist[TransitionState.X01] + dist[TransitionState.X10])


def switching_activities(tables: np.ndarray) -> np.ndarray:
    """P(x01) + P(x10) over the last axis of ``(..., 4)`` tables: the
    float64 sum :func:`switching_probability` takes, one vector op."""
    return tables[..., TransitionState.X01] + tables[..., TransitionState.X10]


@lru_cache(maxsize=64)
def line_rows(lines: Tuple[str, ...]) -> Tuple[Tuple[str, ...], Dict[str, int]]:
    """The shared ``(lines, {line: row})`` of tables whose rows follow
    ``lines``: equal line sequences get the same tuple and dict back
    (the 64 most recently used are kept), so results over one circuit's
    lines hold no per-result line index."""
    return lines, {line: row for row, line in enumerate(lines)}


class LineDistributions(Mapping):
    """Read-only ``{line: (4,) distribution}`` over one ``(n, 4)`` table.

    Row ``i`` of ``table`` belongs to ``lines[i]``; ``index`` maps each
    line to its row.  Results over the same lines share one ``lines``
    tuple and one ``index`` dict (:func:`line_rows`), so a row costs its
    table view and nothing per line.
    """

    __slots__ = ("lines", "index", "table")

    def __init__(self, lines: Tuple[str, ...], index: Dict[str, int], table: np.ndarray):
        self.lines = lines
        self.index = index
        self.table = table

    @classmethod
    def from_dict(cls, distributions: Mapping[str, np.ndarray]) -> "LineDistributions":
        """Copy a ``{line: (4,)}`` mapping into one table."""
        if isinstance(distributions, LineDistributions):
            return distributions
        lines, index = line_rows(tuple(distributions))
        table = np.array(
            [distributions[line] for line in lines], dtype=np.float64
        ).reshape(len(lines), N_STATES)
        return cls(lines, index, table)

    def over(self, table: np.ndarray) -> "LineDistributions":
        """The same lines over another ``(n, 4)`` table."""
        return LineDistributions(self.lines, self.index, table)

    def __getitem__(self, line: str) -> np.ndarray:
        return self.table[self.index[line]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.lines)

    def __len__(self) -> int:
        return len(self.lines)


@dataclass
class LineResult:
    """Per-line transition distributions, the base of every estimator's
    result: one ``(n, 4)`` float64 :attr:`table`, row ``i`` for
    ``lines[i]``.  A ``{line: (4,)}`` dict passed as ``distributions``
    is copied into a table once, at construction."""

    #: 4-state transition distribution per line name (a read-only
    #: mapping over :attr:`table`)
    distributions: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        self.distributions = LineDistributions.from_dict(self.distributions)

    @property
    def lines(self) -> Tuple[str, ...]:
        return self.distributions.lines

    @property
    def table(self) -> np.ndarray:
        return self.distributions.table

    def switching(self, line: str) -> float:
        """Switching activity of one line: P(x01) + P(x10)."""
        return switching_probability(self.distributions[line])

    @property
    def activities(self) -> Dict[str, float]:
        """Switching activity of every line."""
        return dict(zip(self.lines, switching_activities(self.table).tolist()))

    def mean_activity(self) -> float:
        """Average switching activity over all lines."""
        return float(np.mean(switching_activities(self.table))) if self.lines else 0.0


def signal_probability(distribution: Sequence[float], at: str = "current") -> float:
    """P(line = 1) at t (``"current"``) or t-1 (``"previous"``)."""
    dist = np.asarray(distribution, dtype=np.float64)
    if dist.shape != (N_STATES,):
        raise ValueError(f"expected a length-{N_STATES} distribution, got {dist.shape}")
    if at == "current":
        return float(dist[TransitionState.X01] + dist[TransitionState.X11])
    if at == "previous":
        return float(dist[TransitionState.X10] + dist[TransitionState.X11])
    raise ValueError("at must be 'current' or 'previous'")


def independent_transition_distribution(p_one: float) -> np.ndarray:
    """4-state distribution of a temporally *independent* stream.

    Consecutive values are i.i.d. Bernoulli(``p_one``), so e.g.
    ``P(x01) = (1 - p) p``.  This is the model behind the paper's
    "random input streams" experiments.
    """
    if not 0.0 <= p_one <= 1.0:
        raise ValueError(f"p_one must be in [0, 1], got {p_one}")
    q = 1.0 - p_one
    return np.array([q * q, q * p_one, p_one * q, p_one * p_one])


def markov_transition_distribution(p_one: float, activity: float) -> np.ndarray:
    """4-state distribution of a stationary lag-1 Markov stream.

    Parameters
    ----------
    p_one:
        Stationary probability of the line being 1.
    activity:
        Desired switching activity ``P(x01) + P(x10)``.  Stationarity
        forces ``P(x01) = P(x10) = activity / 2``; feasibility requires
        ``activity / 2 <= min(p_one, 1 - p_one)``.

    Returns
    -------
    ``[P(x00), P(x01), P(x10), P(x11)]``.
    """
    if not 0.0 <= p_one <= 1.0:
        raise ValueError(f"p_one must be in [0, 1], got {p_one}")
    if not 0.0 <= activity <= 1.0:
        raise ValueError(f"activity must be in [0, 1], got {activity}")
    half = activity / 2.0
    if half > min(p_one, 1.0 - p_one) + 1e-12:
        raise ValueError(
            f"activity {activity} infeasible for p_one {p_one}: "
            f"need activity/2 <= min(p, 1-p)"
        )
    return np.array(
        [1.0 - p_one - half, half, half, p_one - half]
    ).clip(min=0.0)
