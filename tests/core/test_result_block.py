"""The result block: a ``query_many`` answer is rows of one array.

Every estimator answers K scenarios with one ``(K, n, 4)`` block that
the call allocates, and each :class:`SwitchingEstimate` is a row of it
(``table``) behind a read-only line mapping (``distributions``).  These
tests pin what that must not change -- every row bitwise equal to its
single query, activities equal to :func:`switching_probability` -- and
what it newly promises: rows of one call survive a later call, no two
rows share memory, and the mapping behaves like the dict it replaced.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.bayesian import propagation
from repro.circuits import suite
from repro.core.backend import compile_model
from repro.core.estimator import SwitchingEstimate
from repro.core.inputs import IndependentInputs, TemporalInputs
from repro.core.states import switching_probability

#: (circuit, backend): the six sweep circuits on ``auto`` (c432s is
#: segmented) and one enumeration-backed model.
CASES = [
    ("c17", "auto"),
    ("alu", "auto"),
    ("comp", "auto"),
    ("voter", "auto"),
    ("pcler8", "auto"),
    ("c432s", "auto"),
    ("c17", "enumeration"),
]

_MODELS = {}


def _model(name, backend):
    key = (name, backend)
    if key not in _MODELS:
        _MODELS[key] = compile_model(
            suite.load_circuit(name), backend=backend, cache=None
        )
    return _MODELS[key]


def _batch(circuit, seed=64):
    """A K=64 batch: 48 distinct scenarios, a quarter of them temporal
    and every third one with some inputs pinned to 0 or 1, then 16
    repeats.  Returns ``(models, source)``: row ``k`` is distinct
    scenario ``source[k]``."""
    rng = np.random.default_rng(seed)
    models = []
    for k in range(48):
        p = rng.uniform(0.05, 0.95, len(circuit.inputs))
        if k % 3 == 2:
            pinned = rng.random(p.size) < 0.3
            p[pinned] = rng.integers(0, 2, int(pinned.sum()))
        spec = dict(zip(circuit.inputs, p))
        if k % 4 == 1:
            lag = {name: 0.5 * min(v, 1.0 - v) for name, v in spec.items()}
            models.append(TemporalInputs(spec, lag))
        else:
            models.append(IndependentInputs(spec))
    source = list(range(48)) + [int(i) for i in rng.integers(0, 48, 16)]
    return [models[i] for i in source], source


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def answered(request):
    """One model, its K=64 batch, the batch's answers and one single
    query per distinct scenario."""
    model = _model(*request.param)
    models, source = _batch(model.circuit)
    many = model.query_many(models)
    singles = {i: model.query(models[k]) for k, i in enumerate(source) if k == i}
    return model, models, source, many, singles


class TestRowsEqualSingleQueries:
    def test_every_row_is_its_single_query_bitwise(self, answered):
        model, _, source, many, singles = answered
        assert len(many) == 64
        for k, result in enumerate(many):
            one = singles[source[k]]
            assert result.lines == one.lines
            for line in model.circuit.lines:
                assert np.array_equal(
                    result.distributions[line], one.distributions[line]
                ), (k, line)

    def test_activities_are_switching_probabilities_bitwise(self, answered):
        model, _, _, many, _ = answered
        for result in many:
            activities = result.activities
            expect = {
                line: switching_probability(result.distributions[line])
                for line in result.distributions
            }
            assert list(activities) == list(expect)
            for line, value in expect.items():
                assert activities[line] == value, line
                assert result.switching(line) == value
            mean = float(np.mean(list(expect.values())))
            assert result.mean_activity() == mean


class TestOwnership:
    def test_rows_of_one_call_survive_the_next(self, answered):
        model, models, _, many, _ = answered
        kept = [result.table.copy() for result in many]
        again = model.query_many(list(reversed(models)))
        assert len(again) == len(many)
        for result, table in zip(many, kept):
            assert np.array_equal(result.table, table)
        for result, other in zip(many, reversed(again)):
            assert not np.shares_memory(result.table, other.table)

    def test_duplicate_rows_do_not_share_memory(self, answered):
        _, _, source, many, _ = answered
        first = {}
        for k, i in enumerate(source):
            if i in first:
                assert not np.shares_memory(many[k].table, many[first[i]].table)
                assert np.array_equal(many[k].table, many[first[i]].table)
            first.setdefault(i, k)

    @pytest.mark.parametrize("name", ["comp", "c432s"])
    def test_chunked_call_rows_are_pairwise_disjoint(self, name, monkeypatch):
        """With the budget lowered so K=64 takes several passes, the
        scattered rows -- duplicates included -- are each their own
        memory, and still equal a one-pass answer bitwise."""
        model = _model(name, "auto")
        models, _ = _batch(model.circuit, seed=7)
        whole = [result.table.copy() for result in model.query_many(models)]
        monkeypatch.setattr(
            propagation, "MEMORY_BUDGET_BYTES", 20 * model.row_bytes
        )
        assert model.rows_per_pass == 20
        many = model.query_many(models)
        for a, b in itertools.combinations(range(len(many)), 2):
            assert not np.shares_memory(many[a].table, many[b].table), (a, b)
        for result, table in zip(many, whole):
            assert np.array_equal(result.table, table)


class TestMapping:
    def test_iteration_order_and_lookup(self, answered):
        model, _, _, many, singles = answered
        circuit = model.circuit
        result = many[0]
        lines = list(result.distributions)
        if result.segments > 1:
            # Segmented tables follow publication order: the inputs,
            # then each segment's owned lines.
            assert sorted(lines) == sorted(circuit.lines)
            assert lines[: len(circuit.inputs)] == list(circuit.inputs)
        else:
            assert lines == list(circuit.lines)
        assert all(list(r.distributions) == lines for r in many)
        assert all(list(r.distributions) == lines for r in singles.values())
        assert len(result.distributions) == len(circuit.lines)
        assert circuit.lines[-1] in result.distributions
        assert "no-such-line" not in result.distributions
        with pytest.raises(KeyError):
            result.distributions["no-such-line"]
        assert result.distributions.get("no-such-line") is None
        row = result.lines.index(circuit.outputs[0])
        assert np.shares_memory(
            result.distributions[circuit.outputs[0]], result.table[row]
        )

    def test_dict_round_trip(self, answered):
        _, _, _, many, _ = answered
        result = many[5]
        plain = dict(result.distributions)
        assert list(plain) == list(result.lines)
        rebuilt = SwitchingEstimate(
            distributions=plain, compile_seconds=0.0, propagate_seconds=0.0
        )
        assert rebuilt.lines == result.lines
        assert np.array_equal(rebuilt.table, result.table)
        assert not np.shares_memory(rebuilt.table, result.table)
        assert rebuilt.activities == result.activities
        assert rebuilt.mean_activity() == result.mean_activity()

    def test_mapping_is_read_only(self, answered):
        result = answered[3][0]
        with pytest.raises(TypeError):
            result.distributions[result.lines[0]] = np.zeros(4)
