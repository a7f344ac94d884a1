"""Monte-Carlo switching estimation with a stopping criterion.

The statistically-simulative baseline (Burch, Najm & Trick style):
simulate in rounds and stop when the half-width of the normal-theory
confidence interval for the mean circuit activity falls below a target
relative error.  Unlike the fixed-budget ground truth in
:mod:`repro.baselines.simulation`, the sample size here is adaptive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.baselines.simulation import simulate_switching
from repro.circuits.netlist import Circuit
from repro.core.inputs import InputModel
from repro.core.states import N_STATES, LineResult


@dataclass
class MonteCarloResult(LineResult):
    """Adaptive Monte-Carlo estimate with convergence metadata."""

    n_pairs: int
    converged: bool
    half_width: float


def monte_carlo_switching(
    circuit: Circuit,
    input_model: Optional[InputModel] = None,
    relative_error: float = 0.01,
    confidence_z: float = 2.576,
    round_size: int = 4_096,
    max_pairs: int = 500_000,
    rng: Optional[np.random.Generator] = None,
) -> MonteCarloResult:
    """Simulate until the mean-activity estimate is statistically tight.

    Parameters
    ----------
    relative_error:
        Target half-width of the confidence interval, relative to the
        running mean activity.
    confidence_z:
        Normal quantile (2.576 = 99% confidence, the classic choice).
    round_size:
        Vector pairs per round.
    max_pairs:
        Hard budget; the result reports ``converged=False`` if hit.
    """
    if relative_error <= 0:
        raise ValueError("relative_error must be positive")
    rng = rng or np.random.default_rng()

    counts: Dict[str, np.ndarray] = {}
    total = 0
    per_round_means = []
    half_width = float("inf")
    converged = False

    while total < max_pairs:
        result = simulate_switching(
            circuit, input_model, n_pairs=round_size, rng=rng
        )
        for line, dist in result.distributions.items():
            counts.setdefault(line, np.zeros(N_STATES))
            counts[line] += dist * round_size
        total += round_size
        per_round_means.append(result.mean_activity())

        if len(per_round_means) >= 3:
            mean = float(np.mean(per_round_means))
            sem = float(np.std(per_round_means, ddof=1)) / np.sqrt(
                len(per_round_means)
            )
            half_width = confidence_z * sem
            if mean > 0 and half_width <= relative_error * mean:
                converged = True
                break

    distributions = {line: c / total for line, c in counts.items()}
    return MonteCarloResult(
        distributions=distributions,
        n_pairs=total,
        converged=converged,
        half_width=half_width,
    )
