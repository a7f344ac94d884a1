"""``InputStack`` against the per-model oracle.

The stack groups K scenarios by exact model class and builds each
class's rows in one call.  The contract is bitwise: its marginals and
CPD tables equal, byte for byte, what ``marginal_distribution`` and
``input_cpds`` give one ``(model, name)`` at a time, and a batch with
invalid rows raises for the first row a one-at-a-time build would
reject, with that row's own error text.
"""

import numpy as np
import pytest

from repro.bayesian import TabularCPD
from repro.core.inputs import (
    CorrelatedGroupInputs,
    IndependentInputs,
    InputModel,
    InputStack,
    TemporalInputs,
    TraceInputs,
)
from repro.errors import InputModelError

NAMES = ["a", "b", "c", "d", "e", "f"]


def _oracle_marginals(models, names):
    rows = [[m.marginal_distribution(n) for n in names] for m in models]
    return np.array(rows, dtype=np.float64).reshape(len(models), len(names), 4)


def _oracle_tables(models, names):
    sets = [m.input_cpds(list(names)) for m in models]
    tables = {
        cpd.variable: np.stack([cpds[i].factor.values for cpds in sets])
        for i, cpd in enumerate(sets[0])
    }
    return tables, {cpd.variable: cpd.parents for cpd in sets[0] if cpd.parents}


def _assert_matches_oracle(stack, models, names=NAMES):
    expect = _oracle_marginals(models, NAMES)
    assert stack.marginals.shape == expect.shape
    assert stack.marginals.tobytes() == expect.tobytes()
    tables, parents = stack.tables(names)
    expect_tables, expect_parents = _oracle_tables(models, names)
    assert list(tables) == list(expect_tables)
    for name, table in tables.items():
        assert table.shape == expect_tables[name].shape, name
        assert table.tobytes() == expect_tables[name].tobytes(), name
    assert parents == expect_parents


def _probability(rng):
    """A p_one value: interior, an exact 0 or 1, or an int."""
    roll = rng.random()
    if roll < 0.1:
        return float(rng.integers(0, 2))
    if roll < 0.2:
        return int(rng.integers(0, 2))
    return float(rng.uniform(0.0, 1.0))


def _p_spec(rng, values):
    """A scalar spec, or a mapping that omits some names (default 0.5)."""
    if rng.random() < 0.3:
        return values[0]
    return {n: v for n, v in zip(NAMES, values) if rng.random() < 0.8}


def _random_model(rng):
    p = [_probability(rng) for _ in NAMES]
    if rng.random() < 0.5:
        return IndependentInputs(_p_spec(rng, p))
    spec = _p_spec(rng, p)
    probe = IndependentInputs(spec)
    # Activity up to the feasibility edge 2 min(p, 1 - p), some exactly
    # on it and some inside the 1e-12 slack past it.
    activity = {}
    for name in NAMES:
        p_name = probe._p(name)
        edge = 2.0 * min(p_name, 1.0 - p_name)
        roll = rng.random()
        if roll < 0.2:
            activity[name] = edge
        elif roll < 0.3:
            activity[name] = min(edge + 1e-13, 1.0)
        else:
            activity[name] = edge * float(rng.random())
    if isinstance(spec, float):
        activity = min(activity.values())
    return TemporalInputs(p_one=spec, activity=activity)


def _trace(rng, names=NAMES):
    cycles = int(rng.integers(2, 30))
    return TraceInputs(rng.integers(0, 2, (cycles, len(names))), names)


class TestBitwiseParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_mixed_batches(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 40))
        models = [_random_model(rng) for _ in range(k)]
        for slot in rng.choice(k, size=min(3, k), replace=False):
            models[slot] = _trace(rng)
        stack = InputStack(models, NAMES)
        _assert_matches_oracle(stack, models)
        _assert_matches_oracle(stack, models, ["e", "a"])

    def test_edge_values(self):
        models = [
            IndependentInputs(0),
            IndependentInputs(1),
            IndependentInputs({"a": 0, "b": 1, "c": 0.25}),
            TemporalInputs(p_one=0.3, activity=0.6),
            # Inside the slack: p - activity/2 is a hair below 0 and
            # clips to exactly 0, as the scalar path does.
            TemporalInputs(p_one=0.3, activity=0.6 + 1e-13),
            TemporalInputs(p_one={"a": 1, "b": 0}, activity=0),
            TemporalInputs(p_one=0.5, activity=1),
        ]
        stack = InputStack(models, NAMES)
        _assert_matches_oracle(stack, models)
        assert stack.marginal("a")[4, 3] == 0.0

    def test_single_scenario(self):
        model = TemporalInputs(p_one={"a": 0.2, "c": 0.7}, activity=0.3)
        _assert_matches_oracle(InputStack([model], NAMES), [model])
        trusted = model.input_cpds_trusted(NAMES)
        for cpd, ref in zip(trusted, model.input_cpds(NAMES)):
            assert cpd.variable == ref.variable and cpd.parents == ref.parents
            assert cpd.factor.values.tobytes() == ref.factor.values.tobytes()

    @pytest.mark.parametrize("subset", [NAMES, ["a", "c", "d", "f"], ["c", "d"]])
    def test_correlated_parent_present_and_absent(self, subset):
        groups = [("a", "b", "c"), ("d", "e")]
        models = [
            CorrelatedGroupInputs(groups, rho=0.3, base=IndependentInputs(0.4)),
            CorrelatedGroupInputs(
                groups, rho=0.8, base=TemporalInputs(p_one={"a": 0.6}, activity=0.2)
            ),
            CorrelatedGroupInputs(groups, rho=1.0),
        ]
        stack = InputStack(models, subset)
        expect = _oracle_marginals(models, subset)
        assert stack.marginals.tobytes() == expect.tobytes()
        tables, parents = stack.tables(subset)
        expect_tables, expect_parents = _oracle_tables(models, subset)
        assert parents == expect_parents
        assert list(tables) == list(expect_tables)
        for name, table in tables.items():
            assert table.tobytes() == expect_tables[name].tobytes(), name

    def test_subclass_takes_the_fallback(self):
        class Flipped(IndependentInputs):
            def marginal_distribution(self, name):
                return super().marginal_distribution(name)[::-1].copy()

        models = [IndependentInputs(0.2), Flipped(0.2), TemporalInputs(0.5, 0.4)]
        stack = InputStack(models, NAMES)
        _assert_matches_oracle(stack, models)
        assert not np.array_equal(stack.marginals[0], stack.marginals[1])

    def test_third_party_model(self):
        class Skewed(InputModel):
            def marginal_distribution(self, name):
                return np.array([0.1, 0.2, 0.3, 0.4])

            def input_cpds(self, input_names):
                return [
                    TabularCPD.prior(n, self.marginal_distribution(n))
                    for n in input_names
                ]

            def sample_pairs(self, input_names, n_pairs, rng):
                raise NotImplementedError

        models = [Skewed(), IndependentInputs({"b": 0.9}), Skewed()]
        _assert_matches_oracle(InputStack(models, NAMES), models)

    def test_take_after_build(self):
        groups = [("a", "b")]
        models = [
            CorrelatedGroupInputs(groups, rho=rho, base=IndependentInputs(p))
            for rho, p in ((0.1, 0.2), (0.5, 0.5), (0.9, 0.7))
        ]
        stack = InputStack(models, NAMES)
        stack.tables(NAMES)  # caches the conditional stacks
        rows = [2, 0, 2]
        _assert_matches_oracle(stack.take(rows), [models[r] for r in rows])
        untouched = InputStack(models, NAMES).take([1, 2])
        _assert_matches_oracle(untouched, models[1:])
        flat = [_random_model(np.random.default_rng(9)) for _ in range(5)]
        picked = InputStack(flat, NAMES).take([4, 1])
        _assert_matches_oracle(picked, [flat[4], flat[1]])


def _first_failure(models, names=NAMES):
    """``(row, error)`` of the first model whose one-at-a-time build fails."""
    for row, model in enumerate(models):
        try:
            for name in names:
                model.marginal_distribution(name)
        except Exception as exc:  # noqa: BLE001 - the oracle records any error
            return row, exc
    return None


class TestLocatedErrors:
    def test_first_bad_row_across_classes(self):
        # The Independent group builds first, but its bad row (5) comes
        # after the Temporal group's (3): row 3 must raise.
        models = [IndependentInputs(0.5)] * 3 + [
            TemporalInputs(p_one=0.05, activity=0.9),
            TemporalInputs(0.5, 0.5),
            IndependentInputs({"c": 1.5}),
        ]
        row, error = _first_failure(models)
        assert row == 3
        with pytest.raises(InputModelError) as excinfo:
            InputStack(models, NAMES)
        assert str(excinfo.value) == f"scenario 3: {error}"
        assert isinstance(excinfo.value, ValueError)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_batches_raise_the_first_bad_row(self, seed):
        rng = np.random.default_rng(100 + seed)
        models = [_random_model(rng) for _ in range(24)]
        for slot in rng.choice(24, size=3, replace=False):
            if rng.random() < 0.5:
                models[slot] = IndependentInputs({NAMES[slot % 6]: 1.0 + rng.random()})
            else:
                models[slot] = TemporalInputs(p_one=0.1, activity={"b": 0.5})
        row, error = _first_failure(models)
        with pytest.raises(InputModelError) as excinfo:
            InputStack(models, NAMES)
        assert str(excinfo.value) == f"scenario {row}: {error}"

    def test_single_scenario_keeps_the_text(self):
        model = IndependentInputs({"b": -0.25})
        with pytest.raises(InputModelError) as excinfo:
            InputStack([model], NAMES)
        assert str(excinfo.value) == "p_one for 'b' out of [0, 1]: -0.25"
        with pytest.raises(InputModelError, match="out of"):
            model.input_cpds_trusted(NAMES)

    def test_slack_row_passes(self):
        ok = TemporalInputs(p_one=0.3, activity=0.6 + 5e-13)
        bad = TemporalInputs(p_one=0.3, activity=0.6 + 1e-11)
        InputStack([IndependentInputs(0.5), ok], NAMES)
        with pytest.raises(InputModelError, match="^scenario 2: activity"):
            InputStack([IndependentInputs(0.5), ok, bad], NAMES)

    def test_unconvertible_value(self):
        models = [IndependentInputs(0.5), IndependentInputs({"d": "high"})]
        with pytest.raises(InputModelError) as excinfo:
            InputStack(models, NAMES)
        assert str(excinfo.value) == (
            "scenario 1: could not convert string to float: 'high'"
        )

    def test_correlated_base_error_names_the_row(self):
        models = [
            CorrelatedGroupInputs([("a", "b")], rho=0.5),
            CorrelatedGroupInputs([("a", "b")], rho=0.5, base=IndependentInputs(2.0)),
        ]
        with pytest.raises(InputModelError, match=r"^scenario 1: p_one for 'a'"):
            InputStack(models, NAMES)

    def test_trace_missing_input_stays_a_key_error(self):
        rng = np.random.default_rng(3)
        models = [IndependentInputs(0.5), _trace(rng, NAMES[:4])]
        with pytest.raises(KeyError, match="not in the trace") as excinfo:
            InputStack(models, NAMES)
        assert "raised by scenario 1" in excinfo.value.__notes__
        with pytest.raises(KeyError, match="not in the trace"):
            InputStack(models[1:], NAMES)
