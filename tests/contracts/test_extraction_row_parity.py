"""Extraction row parity, in a fresh interpreter.

Marginals are read straight from each clique's storage layout through
K-stable BLAS chains and packed reductions, and packed separators hold
only their live entries: at an odd row count every row of one
``query_many`` call must equal a single query of its scenario, bitwise.
Every third row pins some inputs to probability 0 or 1, so live
separator entries go to zero.  The rows are the call's own: later
calls (the single queries and a second ``query_many``) leave them
unchanged.  Runs in a fresh process so no engine, plan or cache state
from other tests is reused.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

CIRCUITS = ("alu", "voter", "comp", "pcler8")

SCRIPT = """
import numpy as np
from repro.circuits import suite
from repro.core.backend import compile_model
from repro.core.inputs import IndependentInputs
for name in {circuits!r}:
    circuit = suite.load_circuit(name)
    model = compile_model(circuit, cache=None)
    rng = np.random.default_rng(33)
    models = []
    for k in range(33):
        p = rng.uniform(0.05, 0.95, len(circuit.inputs))
        if k % 3 == 2:
            pinned = rng.random(p.size) < 0.3
            p[pinned] = rng.integers(0, 2, int(pinned.sum()))
        models.append(IndependentInputs(dict(zip(circuit.inputs, p))))
    many = model.query_many(models)
    kept = [result.table.copy() for result in many]
    for k, scenario in enumerate(models):
        one = model.query(scenario)
        for line in circuit.lines:
            assert np.array_equal(
                many[k].distributions[line], one.distributions[line]
            ), (name, k, line)
    model.query_many(models[::-1])
    for k, result in enumerate(many):
        assert np.array_equal(result.table, kept[k]), (name, k)
    print(f"{{name}}: 33 distinct scenarios (11 with 0/1 inputs), every row "
          "bitwise-equal to its single query and unchanged by later calls")
"""


def test_extraction_row_parity_fresh_process():
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(circuits=CIRCUITS)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == list(CIRCUITS), proc.stdout
