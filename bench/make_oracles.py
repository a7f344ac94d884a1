"""Write ``bench/oracles.json``: per-line switching activity of the check set.

Exact circuits (c17, alu, comp, voter, pcler8) are answered by variable
elimination on the LIDAG -- an exact engine independent of the junction
tree.  c432s and layered500 are beyond it and get a seeded Monte Carlo
simulation of 2^22 (4.2M) vector pairs, with each line's 99% half-width
stored next to its activity.  Each entry is keyed by the circuit's
netlist fingerprint plus the canonical scenario spec, so ``run.py``
refuses an entry once either changes.

Run from the repository root (takes a few minutes)::

    PYTHONPATH=src python bench/make_oracles.py
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

import common

#: circuits answered exactly by variable elimination
EXACT = ("c17", "alu", "comp", "voter", "pcler8")
#: circuits answered by Monte Carlo
SAMPLED = ("c432s", "layered500")
MC_PAIRS = 1 << 22
MC_Z = 2.576


def exact_activity(circuit, model):
    from repro.bayesian.elimination import posterior_marginals
    from repro.core import build_lidag

    marginals = posterior_marginals(build_lidag(circuit, model), variables=circuit.lines)
    return {"activity": {line: float(f.values[1] + f.values[2]) for line, f in marginals.items()}}


def sampled_activity(circuit, model, seed):
    from repro.baselines.montecarlo import monte_carlo_switching

    # A relative-error target of 1e-300 never converges, so the run always
    # spends the full MC_PAIRS budget.
    result = monte_carlo_switching(
        circuit,
        model,
        relative_error=1e-300,
        round_size=1 << 16,
        max_pairs=MC_PAIRS,
        rng=np.random.default_rng(seed),
    )
    activity = {line: result.switching(line) for line in circuit.lines}
    return {
        "activity": activity,
        "pairs": result.n_pairs,
        "half_width_99": {
            line: MC_Z * math.sqrt(a * (1.0 - a) / result.n_pairs) for line, a in activity.items()
        },
    }


def make(names):
    entries = {}
    for name in names:
        circuit = common.load_circuit(name)
        for label, spec in common.check_specs(circuit.inputs):
            start = time.perf_counter()
            key = common.oracle_key(circuit, spec)
            model = common.spec_model(spec)
            if name in EXACT:
                entry = {"method": "variable-elimination", **exact_activity(circuit, model)}
            else:
                entry = {"method": "monte-carlo", **sampled_activity(circuit, model, int(key[:8], 16))}
            entry.update(key=key, spec=spec)
            entries[f"{name}/{label}"] = entry
            print(
                f"{name}/{label}: {entry['method']} {time.perf_counter() - start:.1f}s",
                file=sys.stderr,
            )
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(common.ORACLES_PATH))
    args = parser.parse_args(argv)
    document = {
        "schema": "repro.bench.oracles/v1",
        "entries": make(EXACT + SAMPLED),
    }
    with open(args.out, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
