"""Definitions shared by the benchmark's runner, workloads and tools.

Everything that decides *what* is measured lives here: the circuits of
each workload, the seed-independent check set, the seeded scenario
generator, the oracle keys, and the nearest-rank statistics every
metric uses.  ``repro`` is imported lazily, so the runner and
``compare.py`` load this module without the package on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
ORACLES_PATH = BENCH_DIR / "oracles.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: ``query_many`` calls per circuit in one sweep round; under
#: ``backend="auto"`` c17 and pcler8 compile to one Bayesian network,
#: the rest are segmented.  Chosen so each circuit takes 12-25% of a
#: round (about 6 s on a 2-core x86 VM), so a change to any one
#: circuit's path moves the round time visibly.
SWEEP_CALLS = {"c17": 210, "alu": 16, "comp": 16, "voter": 21, "pcler8": 42, "c432s": 1}

#: Scenarios per ``query_many`` call.
SWEEP_K = 64

#: Distinct scenarios per call in ``sweep-repeat`` (each appears
#: ``SWEEP_K // SWEEP_REPEAT_UNIQUE`` times).
SWEEP_REPEAT_UNIQUE = 16

#: Circuits of ``serve-open``, drawn uniformly per request.
SERVE_CIRCUITS = ("c17", "comp", "voter", "alu")

#: Open-loop arrival rate of ``serve-open`` in requests per second,
#: about 15% of the closed-loop capacity (125-160 req/s with the server
#: pinned to one of 2 x86 vCPUs and the load generator to the other):
#: requests arrive alone, so every one pays the per-request path and the
#: batcher linger.  At 60 req/s (40-50% of capacity) queueing amplified
#: the VM's speed drift into 16-29% run-to-run spread of the median.
SERVE_RATE = 20.0

#: Share of ``--seconds`` spent in the open-loop phase; the rest is the
#: closed-loop capacity phase (3 s of it spread 10-23% across runs, 6 s
#: spread 8%).
SERVE_OPEN_SHARE = 0.5

#: Closed-loop senders (and keep-alive connections) of ``serve-open``.
SERVE_SENDERS = 2

#: Latency limit of ``serve-open``'s SLO share, in seconds.
SERVE_SLO_SECONDS = 0.050

#: Circuits and per-round single ``query`` calls of ``refine-scale``.
REFINE_CALLS = {"layered500": 1, "c432s": 3}
REFINE_ITERATIONS = 2

#: Largest |activity - oracle| per circuit before a segmented or
#: Monte-Carlo-checked answer counts as wrong: 1.5x the worst error of
#: any workload's path when the oracles were made, rounded up to a
#: multiple of 0.05 (voter 0.148, c432s 0.039 with refine=2, layered500
#: 0.344; the rest ~0).  Exact answers (one Bayesian network against
#: variable elimination) get ``EXACT_TOLERANCE``.  The accuracy
#: *metrics* catch smaller drifts.
APPROX_TOLERANCE = {
    "c17": 0.05, "alu": 0.05, "comp": 0.05, "voter": 0.25, "pcler8": 0.05,
    "c432s": 0.1, "layered500": 0.55,
}
EXACT_TOLERANCE = 1e-9

PHI = 0.6180339887498949


def load_circuit(name: str):
    """Build one benchmark circuit by name (``layered500`` is generated)."""
    if name == "layered500":
        from repro.circuits.generate import scale_circuit

        return scale_circuit(500, seed=2024, name="layered500")
    from repro.circuits.suite import load_circuit as suite_load

    return suite_load(name)


def check_specs(input_names: Sequence[str]) -> List[Tuple[str, dict]]:
    """The three fixed check scenarios of a circuit, as JSON specs.

    Uniform 0.5 inputs, a fixed skewed vector, and one lag-1 temporal
    model; none depends on ``--seed``.
    """
    skewed = {
        name: round(0.05 + 0.9 * (((i + 1) * PHI) % 1.0), 6)
        for i, name in enumerate(input_names)
    }
    temporal_p = {
        name: round(0.3 + 0.4 * (((i + 1) * 0.7548776662466927) % 1.0), 6)
        for i, name in enumerate(input_names)
    }
    temporal_a = {
        name: round(2.0 * min(p, 1.0 - p) * 0.25, 6) for name, p in temporal_p.items()
    }
    return [
        ("uniform", {"kind": "independent", "p_one": 0.5}),
        ("skewed", {"kind": "independent", "p_one": skewed}),
        ("temporal", {"kind": "temporal", "p_one": temporal_p, "activity": temporal_a}),
    ]


def random_specs(rng, input_names: Sequence[str], count: int, start: int = 0) -> List[dict]:
    """``count`` seeded scenario specs: per-input ``p_one`` ~ U[0.05, 0.95];
    every 4th scenario (by global index ``start + i``) is lag-1 temporal
    with activity ``2 min(p, 1 - p) U[0, 1]``."""
    import numpy as np

    names = list(input_names)
    specs = []
    for i in range(count):
        p = rng.uniform(0.05, 0.95, len(names))
        p_one = dict(zip(names, p.tolist()))
        if (start + i) % 4 == 3:
            a = 2.0 * np.minimum(p, 1.0 - p) * rng.uniform(0.0, 1.0, len(names))
            specs.append(
                {"kind": "temporal", "p_one": p_one, "activity": dict(zip(names, a.tolist()))}
            )
        else:
            specs.append({"kind": "independent", "p_one": p_one})
    return specs


def spec_model(spec: dict):
    """The :class:`~repro.core.inputs.InputModel` a spec describes."""
    from repro.core.inputs import input_model_from_spec

    return input_model_from_spec(spec)


def cpds_ms(rng, circuits, weights, samples=64) -> float:
    """Bench-timed ``input_cpds_trusted`` per scenario in ms, averaged over
    ``circuits`` (name -> circuit) with ``weights`` (name -> weight)."""
    total = 0.0
    for name, circuit in circuits.items():
        models = [spec_model(s) for s in random_specs(rng, circuit.inputs, samples)]
        start = time.perf_counter()
        for model in models:
            model.input_cpds_trusted(circuit.inputs)
        total += weights[name] * (time.perf_counter() - start) / samples
    return 1e3 * total / sum(weights[name] for name in circuits)


def canonical(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def oracle_key(circuit, spec: dict) -> str:
    """Oracle entry key: netlist fingerprint plus the canonical spec."""
    from repro.core.backend.cache import circuit_fingerprint

    material = circuit_fingerprint(circuit) + "\n" + canonical(spec)
    return hashlib.sha256(material.encode()).hexdigest()


class StaleOracle(Exception):
    """An oracle entry is missing or was made for another netlist/spec."""


def load_oracles(path: Path = ORACLES_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def oracle_entries(oracles: dict, circuits: dict) -> dict:
    """``{(circuit name, check label): entry}`` for every check scenario
    of ``circuits`` (name -> circuit); raises :class:`StaleOracle`."""
    return {
        (name, label): oracle_for(oracles, circuit, label, spec)
        for name, circuit in circuits.items()
        for label, spec in check_specs(circuit.inputs)
    }


def oracle_for(oracles: dict, circuit, label: str, spec: dict) -> dict:
    """The oracle entry of one check scenario; refuses a stale one."""
    entry = oracles.get("entries", {}).get(f"{circuit.name}/{label}")
    if entry is None:
        raise StaleOracle(f"no oracle for {circuit.name}/{label}; run bench/make_oracles.py")
    key = oracle_key(circuit, spec)
    if entry.get("key") != key:
        raise StaleOracle(
            f"stale oracle for {circuit.name}/{label}: made for key "
            f"{str(entry.get('key'))[:12]}, the netlist and spec now give {key[:12]}; "
            "run bench/make_oracles.py"
        )
    return entry


def check_answer(name, label, method, activity, entry, errors, failures) -> None:
    """Score one check answer against its oracle ``entry``.

    ``activity(line)`` reads the answer; every ``|activity - oracle|``
    is appended to ``errors[name]`` and a line past the tolerance to
    ``failures``.
    """
    exact = entry["method"] == "variable-elimination" and method == "single-bn"
    tolerance = EXACT_TOLERANCE if exact else APPROX_TOLERANCE[name]
    for line, truth in entry["activity"].items():
        error = abs(activity(line) - truth)
        errors.setdefault(name, []).append(error)
        if not error <= tolerance:
            failures.append(f"{name}/{label}/{line}: |{activity(line)} - {truth}| > {tolerance}")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[min(len(ordered) - 1, max(rank - 1, 0))]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def error_summary(errors: Dict[str, List[float]]) -> Dict[str, float]:
    """``max_abs_error``/``mean_abs_error`` over every check line."""
    pooled = [e for values in errors.values() for e in values]
    return {"max_abs_error": max(pooled), "mean_abs_error": sum(pooled) / len(pooled)}


def latency_p50_ms(per_circuit: Dict[str, List[float]]) -> float:
    """The geometric mean over circuits of each circuit's median call
    latency (seconds in, milliseconds out), so every circuit weighs the
    same however many calls it gets."""
    return 1e3 * geomean([percentile(v, 50) for v in per_circuit.values()])


def latency_detail(per_circuit: Dict[str, List[float]]) -> Dict[str, dict]:
    """Per-circuit call count, p50 and p90 in milliseconds."""
    return {
        name: {"calls": len(v), "p50_ms": 1e3 * percentile(v, 50), "p90_ms": 1e3 * percentile(v, 90)}
        for name, v in per_circuit.items()
    }
