"""The memory budget: ``row_bytes``, split passes and the typed failure.

A compiled model records ``row_bytes``, the bytes one scenario row of
``query_many`` needs.  A call whose rows do not fit
``MEMORY_BUDGET_BYTES`` is split into passes that do; a model whose
single row does not fit fails to compile with ``MemoryBudgetExceeded``.
"""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.bayesian import propagation
from repro.circuits import suite
from repro.core.backend import MemoryBudgetExceeded, backends, compile_model, estimate
from repro.core.inputs import IndependentInputs, TemporalInputs
from repro.errors import CompileError


def _counted(compile, calls, name):
    def wrapper(self, *args, **kwargs):
        calls[name] += 1
        return compile(self, *args, **kwargs)

    return wrapper


def _scenarios(k):
    models = []
    for i in range(k):
        p = 0.07 + 0.86 * ((i * 0.618) % 1.0)
        if i % 4 == 3:
            models.append(TemporalInputs(p, 0.3 * min(p, 1.0 - p)))
        else:
            models.append(IndependentInputs(p))
    return models


class TestTypedFailure:
    def test_tiny_budget_raises_and_auto_segments(self, monkeypatch):
        # voter's two segments need well under half its one tree's row
        # (the tree holds its 16384-state cliques).  pcler8's split is
        # no smaller than its tree (about 72 kB per row either way under
        # tracemalloc), so no budget below pcler8's tree admits it.
        circuit = suite.load_circuit("voter")
        tree = compile_model(circuit, backend="junction-tree", cache=None)
        monkeypatch.setattr(
            propagation, "MEMORY_BUDGET_BYTES", tree.row_bytes - 1
        )
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            compile_model(circuit, backend="junction-tree", cache=None)
        assert isinstance(excinfo.value, CompileError)
        assert "voter" in str(excinfo.value)

        model = compile_model(circuit, backend="auto", cache=None)
        assert model.backend_name == "segmented"
        assert model.estimator.num_segments > 1
        assert model.row_bytes <= propagation.MEMORY_BUDGET_BYTES
        result = model.query(IndependentInputs(0.4))
        assert all(np.isfinite(d).all() for d in result.distributions.values())

    def test_auto_segments_once_then_raises(self, monkeypatch):
        # A budget one byte below c432s's 4^10 segmented row fits
        # neither its tree nor that segmentation.  ``auto`` builds each
        # once and raises; it does not segment again at 4^9.
        circuit = suite.load_circuit("c432s")
        row = compile_model(
            circuit, backend="segmented", max_clique_states=4 ** 10, cache=None
        ).row_bytes
        monkeypatch.setattr(propagation, "MEMORY_BUDGET_BYTES", row - 1)
        calls = {"junction-tree": 0, "segmented": 0}
        for name, cls in (
            ("junction-tree", backends.JunctionTreeBackend),
            ("segmented", backends.SegmentedBackend),
        ):
            monkeypatch.setattr(cls, "compile", _counted(cls.compile, calls, name))
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            estimate(circuit, backend="auto", cache=None)
        assert "c432s" in str(excinfo.value)
        assert calls == {"junction-tree": 1, "segmented": 1}
        # An explicit budget is the caller's, too.
        with pytest.raises(MemoryBudgetExceeded):
            compile_model(
                circuit, backend="auto", max_clique_states=4 ** 10, cache=None
            )
        assert calls == {"junction-tree": 2, "segmented": 2}

    def test_describe_reports_the_budget_split(self, monkeypatch):
        model = compile_model(suite.load_circuit("c17"), cache=None)
        monkeypatch.setattr(
            propagation, "MEMORY_BUDGET_BYTES", 5 * model.row_bytes + 1
        )
        info = model.describe()
        assert info["row_bytes"] == model.row_bytes > 0
        assert info["rows_per_pass"] == 5


class TestRowBytesBoundsPeak:
    @pytest.mark.parametrize("name", ["c17", "alu", "c432s"])
    def test_one_call_peak_is_within_row_bytes_times_rows(self, name):
        """A fresh model's first ``query_many`` allocates every engine,
        install table and result row; ``row_bytes`` times the rows of
        its largest pass must bound that.  c432s is called with one row
        more than a pass holds, so the call takes two."""
        model = compile_model(suite.load_circuit(name), cache=None)
        k = model.rows_per_pass + 1 if name == "c432s" else 16
        rows = min(k, model.rows_per_pass)
        if name == "c432s":
            assert rows < k
        models = _scenarios(k)
        tracemalloc.start()
        try:
            model.query_many(models)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= model.row_bytes * rows, (
            f"{name}: peak {peak} > {rows} x {model.row_bytes}"
        )


#: Address space the child may add on top of its size after compiling:
#: two budgets, while c2670s's unsplit K=8 call needs about 900 MB.
_HEADROOM = 512 * 2**20

_CHILD = textwrap.dedent(
    """
    import resource, sys
    import numpy as np
    from repro.circuits import suite
    from repro.core.backend import compile_model
    from repro.core.inputs import IndependentInputs
    from repro.errors import MemoryBudgetExceeded

    def vm_size():
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmSize:"):
                    return int(line.split()[1]) * 1024

    circuit = suite.load_circuit("c2670s")
    try:
        model = compile_model(circuit, backend="junction-tree", cache=None)
    except MemoryBudgetExceeded:
        print("typed")
        sys.exit(0)
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = vm_size() + int(sys.argv[1])
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    models = [IndependentInputs(0.1 + 0.1 * i) for i in range(8)]
    try:
        many = model.query_many(models)
    except MemoryBudgetExceeded:
        print("typed")
        sys.exit(0)
    for k, scenario in enumerate(models):
        one = model.query_many([scenario])[0]
        for line, dist in one.distributions.items():
            if not np.array_equal(many[k].distributions[line], dist):
                print(f"scenario {k} line {line} differs")
                sys.exit(1)
    print("bitwise")
    """
)


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads VmSize from /proc"
)
def test_c2670s_sweep_under_an_address_space_limit():
    """c2670s as one junction tree needs about 110 MB per scenario row.
    Under an ``RLIMIT_AS`` the unsplit K=8 call cannot fit, the call
    must return answers bitwise-equal to K=1 calls (or fail with the
    typed error), never a numpy ``MemoryError`` or a kill."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(_HEADROOM)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() in ("bitwise", "typed"), proc.stdout
