"""The segment graph and iterative boundary refinement (PR 8).

Covers the `repro.core.segments` package surface: the explicit
:class:`SegmentGraph`, the typed boundary errors, the refinement
accuracy contract on the seeded demo circuits (DESIGN.md section 14),
batched/serialized parity under refinement, reproducibility across
processes, and the compile options threading through the backend layer.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import examples, generate, suite
from repro.core.backend import compile_model
from repro.core.backend.backends import SegmentedBackend
from repro.core.enumeration import EnumerationSegment
from repro.core.estimator import exact_switching_by_enumeration
from repro.core.inputs import IndependentInputs, InputStack, TemporalInputs
from repro.core.segments import (
    FixedMarginalInputs,
    SegmentGraph,
    SegmentedEstimator,
    TreeBoundaryInputs,
)
from repro.errors import ReproError, SegmentBoundaryError, ValidationError

P = 0.4


def _demo(name, refine, **overrides):
    """A refinement-demo estimator: small segments, no lookback."""
    circuit = suite.load_circuit(name)
    kwargs = dict(max_gates_per_segment=10, lookback=0, refine=refine)
    kwargs.update(overrides)
    return circuit, SegmentedEstimator(
        circuit, input_model=IndependentInputs(P), **kwargs
    )


def _max_err(circuit, result, oracle=None):
    if oracle is None:
        oracle = exact_switching_by_enumeration(circuit, IndependentInputs(P))
    return max(
        float(np.abs(np.asarray(result.distributions[line]) - dist).max())
        for line, dist in oracle.items()
    )


class TestBoundaryErrors:
    """Satellite 1: bare ValueErrors re-parented into repro.errors."""

    def test_unknown_boundary_mode(self):
        circuit = examples.c17()
        with pytest.raises(SegmentBoundaryError, match="unknown boundary mode"):
            SegmentedEstimator(circuit, boundary="magic")
        # The historical message text survives the typed re-parenting.
        with pytest.raises(ValueError, match="unknown boundary mode 'magic'"):
            SegmentedEstimator(circuit, boundary="magic")

    def test_boundary_tree_cycle(self):
        priors = {n: np.full(4, 0.25) for n in ("a", "b")}
        parent_of = {"a": "b", "b": "a"}
        conds = {n: np.full((4, 4), 0.25) for n in ("a", "b")}
        model = TreeBoundaryInputs(priors, parent_of, conds)
        with pytest.raises(SegmentBoundaryError, match="boundary tree contains a cycle"):
            model.sample_pairs(["a", "b"], 4, np.random.default_rng(0))

    def test_fixed_marginal_validation(self):
        with pytest.raises(SegmentBoundaryError, match="must have length"):
            FixedMarginalInputs({"x": np.array([0.5, 0.5])})
        with pytest.raises(SegmentBoundaryError, match="does not sum to 1"):
            FixedMarginalInputs({"x": np.array([0.5, 0.5, 0.5, 0.5])})

    def test_hierarchy(self):
        # Typed errors remain catchable at every historical level.
        assert issubclass(SegmentBoundaryError, ValidationError)
        assert issubclass(SegmentBoundaryError, ReproError)
        assert issubclass(SegmentBoundaryError, ValueError)

    def test_refine_validation(self):
        circuit = examples.c17()
        with pytest.raises(ValueError, match="refine"):
            SegmentedEstimator(circuit, refine=-1)
        with pytest.raises(SegmentBoundaryError, match="refine requires"):
            SegmentedEstimator(circuit, refine=1, boundary="independent")
        with pytest.raises(ValueError, match="refine_tol"):
            SegmentedEstimator(circuit, refine=1, refine_tol=0.0)


class TestSegmentGraph:
    def test_graph_structure(self):
        circuit = generate.random_layered_circuit(6, 40, seed=3)
        seg = SegmentedEstimator(circuit, max_gates_per_segment=8)
        seg.compile()
        graph = seg.graph
        assert isinstance(graph, SegmentGraph)
        assert len(graph) == seg.num_segments
        # Every owned gate appears exactly once across the graph.
        owned = [g for node in graph for g in node.owned]
        assert sorted(owned) == sorted(circuit.gates)
        # Registration order is topological, which the one serial pass
        # relies on: every segment input owned by another segment is
        # owned by a lower index.
        cut_lines = 0
        for index, node in enumerate(graph):
            for line in node.segment.inputs:
                owner = graph.owner.get(line)
                if owner is not None and owner != index:
                    assert owner < index, (line, owner, index)
                    cut_lines += 1
        assert cut_lines > 0


class TestRefinementAccuracy:
    """The PR's acceptance contract on the seeded demo circuits."""

    @pytest.mark.parametrize("name", ["refineA", "refineB"])
    def test_refine_halves_error(self, name):
        circuit, base = _demo(name, refine=0)
        oracle = exact_switching_by_enumeration(circuit, IndependentInputs(P))
        err0 = _max_err(circuit, base.estimate(), oracle)
        circuit, refined = _demo(name, refine=3)
        result = refined.estimate()
        err3 = _max_err(circuit, result, oracle)
        assert result.refine_iterations >= 2
        assert err3 <= err0 / 2, (err0, err3)

    @pytest.mark.parametrize("name", ["refineA", "refineB"])
    def test_error_does_not_blow_up_with_iterations(self, name):
        # Satellite 3 property: more refinement never substantially
        # degrades accuracy (oscillation is bounded; see DESIGN.md
        # section 14 -- strict monotonicity does not hold per-step).
        circuit = suite.load_circuit(name)
        oracle = exact_switching_by_enumeration(circuit, IndependentInputs(P))
        errors = []
        for refine in (0, 1, 2, 3):
            _, est = _demo(name, refine=refine)
            errors.append(_max_err(circuit, est.estimate(), oracle))
        for prev, curr in zip(errors, errors[1:]):
            assert curr <= prev * 1.1 + 1e-9, errors
        assert errors[-1] < errors[0], errors

    def test_refine_zero_matches_legacy_path(self):
        # refine=0 must not perturb the pre-refactor estimate: the
        # plain boundary forest is built, no glue edges exist.
        circuit, legacy = _demo("refineA", refine=0)
        legacy_result = legacy.estimate()
        assert legacy._refiner is None
        circuit, refined = _demo("refineA", refine=2)
        refined.compile()
        assert refined._refiner is not None and refined._refiner.edges
        for node in refined.graph:
            assert node.glue_children is not None
        # Re-estimating with refinement then comparing refine=0 again
        # reproduces the legacy numbers exactly.
        circuit, again = _demo("refineA", refine=0)
        for line in circuit.lines:
            np.testing.assert_array_equal(
                legacy_result.distributions[line],
                again.estimate().distributions[line],
            )

    def test_convergence_stops_early(self):
        _, est = _demo("refineA", refine=10)
        result = est.estimate()
        # The fixed point is reached long before the iteration cap.
        assert result.refine_iterations < 10
        assert result.refine_delta <= est.refine_tol

    def test_refine_budget_caps_iterations(self):
        _, est = _demo("refineA", refine=1)
        result = est.estimate()
        assert result.refine_iterations == 1


_SMALL_SEGMENTS = dict(backend="segmented", max_gates_per_segment=10, lookback=0)


class TestRefinementParity:
    def test_estimate_many_matches_single(self):
        circuit, est = _demo("refineB", refine=2)
        models = [IndependentInputs(p) for p in (0.1, 0.35, 0.6, 0.9)]
        batched = est.estimate_many(models)
        for model, got in zip(models, batched):
            _, single = _demo("refineB", refine=2)
            single.update_inputs(model)
            ref = single.estimate()
            for line in circuit.lines:
                np.testing.assert_allclose(
                    got.distributions[line],
                    ref.distributions[line],
                    atol=1e-9,
                )

    @pytest.mark.parametrize(
        "name, refine, options",
        [
            ("refineB", 2, _SMALL_SEGMENTS),
            ("c432s", 2, {}),
            # Most rows stop at iteration 3 with a delta above the prune
            # threshold while one row goes on: stopped rows must stay put.
            ("refineB", 4, dict(_SMALL_SEGMENTS, refine_tol=0.3)),
        ],
    )
    def test_refined_query_many_rows_equal_single_queries_bitwise(
        self, name, refine, options
    ):
        # Glue joints are enumerated and calibrated as one stack per
        # iteration; every row must still equal its own single query.
        # Every third row pins some inputs to probability 0 or 1.
        circuit = suite.load_circuit(name)
        model = compile_model(circuit, cache=None, refine=refine, **options)
        rng = np.random.default_rng(7)
        models = []
        for k in range(7):
            p = rng.uniform(0.05, 0.95, len(circuit.inputs))
            if k % 3 == 2:
                pinned = rng.random(p.size) < 0.3
                p[pinned] = rng.integers(0, 2, int(pinned.sum()))
            models.append(IndependentInputs(dict(zip(circuit.inputs, p))))
        many = model.query_many(models)
        assert many[0].refine_iterations >= 1
        for k, scenario in enumerate(models):
            one = model.query(scenario)
            assert one.refine_iterations == many[k].refine_iterations
            assert one.refine_delta == many[k].refine_delta
            for line in circuit.lines:
                assert np.array_equal(
                    many[k].distributions[line], one.distributions[line]
                ), (name, k, line)

    def test_estimate_independent_of_hash_seed(self):
        # Boundary forests must not depend on set iteration order, which
        # the interpreter's hash seed decides.
        script = (
            "import hashlib\n"
            "from repro.circuits import suite\n"
            "from repro.core.inputs import IndependentInputs\n"
            "from repro.core.segments import SegmentedEstimator\n"
            "circuit = suite.load_circuit('refineB')\n"
            "result = SegmentedEstimator(circuit, "
            f"input_model=IndependentInputs({P}), max_gates_per_segment=10, "
            "lookback=0, refine=1).estimate()\n"
            "digest = hashlib.sha256()\n"
            "for line in sorted(result.distributions):\n"
            "    digest.update(line.encode())\n"
            "    digest.update(result.distributions[line].tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        digests = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, env.get("PYTHONPATH")])
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
                timeout=300,
            )
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]


class TestPublishedJoints:
    """Every segment publishes its boundary joints with its marginals."""

    @staticmethod
    def _mixed(refine):
        # A tight clique budget sends some of voter's segments to the
        # enumeration fallback, so both segment kinds publish joints.
        circuit = suite.load_circuit("voter")
        est = SegmentedEstimator(
            circuit, max_gates_per_segment=20, max_clique_states=4 ** 4,
            refine=refine,
        ).compile()
        kinds = {
            isinstance(node.estimator, EnumerationSegment)
            for node in est.graph
            if node.boundary_pairs
        }
        assert kinds == {True, False}
        return circuit, est

    @staticmethod
    def _models(circuit):
        rng = np.random.default_rng(5)
        return [
            IndependentInputs(
                {n: float(p) for n, p in zip(circuit.inputs, rng.uniform(0.1, 0.9, len(circuit.inputs)))}
            )
            for _ in range(3)
        ] + [TemporalInputs(p_one=0.4, activity=0.3)]

    def test_refined_batch_equals_single_bitwise(self):
        circuit, est = self._mixed(refine=2)
        assert len(est._refiner) > 0
        models = self._models(circuit)
        batched = est.estimate_many(models)
        assert batched[0].refine_iterations >= 1
        for model, got in zip(models, batched):
            est.update_inputs(model)
            ref = est.estimate()
            for line in circuit.lines:
                assert np.array_equal(got.distributions[line], ref.distributions[line])

    def test_junction_tree_joint_is_tree_read(self):
        circuit, est = self._mixed(refine=0)
        stack = InputStack(self._models(circuit), circuit.inputs)
        known = {name: stack.marginal(name) for name in circuit.inputs}
        joints = {}
        checked = 0
        for index, node in enumerate(est.graph):
            marginals, published = est._propagate_segment_batch(
                index, known, joints, stack
            )
            assert set(published) == set(node.boundary_pairs)
            if not isinstance(node.estimator, EnumerationSegment):
                tree = node.estimator.junction_tree
                for pair in node.boundary_pairs:
                    assert np.array_equal(
                        published[pair], tree.joint_marginal_batch(list(pair))
                    )
                    checked += 1
            known.update(marginals)
            joints.update(published)
        assert checked > 0

    def test_boundary_pairs_exclude_glue_children(self):
        _, est = self._mixed(refine=2)
        published = {pair for node in est.graph for pair in node.boundary_pairs}
        for node in est.graph:
            for child, parent in node.parent_of.items():
                if child in node.glue_children:
                    continue
                assert (parent, child) in published


class TestBackendThreading:
    def test_backend_compile_with_refine(self):
        circuit = suite.load_circuit("refineA")
        model = SegmentedBackend().compile(
            circuit,
            IndependentInputs(P),
            max_gates_per_segment=10,
            lookback=0,
            refine=2,
        )
        result = model.query(IndependentInputs(P))
        assert result.refine_iterations == 2
        assert _max_err(circuit, result) < 0.1

    def test_cache_token_keys_on_refine(self):
        backend = SegmentedBackend()
        assert backend.cache_token(refine=2) != backend.cache_token()
        assert backend.cache_token(refine=2, refine_tol=1e-4) != backend.cache_token(
            refine=2
        )

    def test_facade_threads_refine_options(self):
        circuit = suite.load_circuit("refineA")
        model = compile_model(
            circuit,
            IndependentInputs(P),
            backend="segmented",
            max_gates_per_segment=10,
            lookback=0,
            refine=2,
            refine_tol=1e-6,
        )
        result = model.query(IndependentInputs(P))
        assert result.refine_iterations == 2

    def test_serialization_round_trip_with_refiner(self):
        circuit = suite.load_circuit("refineA")
        model = SegmentedBackend().compile(
            circuit,
            IndependentInputs(P),
            max_gates_per_segment=10,
            lookback=0,
            refine=2,
        )
        direct = model.query(IndependentInputs(P))
        revived = type(model).from_bytes(model.to_bytes())
        loaded = revived.query(IndependentInputs(P))
        assert loaded.refine_iterations == direct.refine_iterations
        for line in circuit.lines:
            np.testing.assert_allclose(
                loaded.distributions[line],
                direct.distributions[line],
                atol=1e-12,
            )

    def test_estimate_reports_refine_telemetry(self):
        _, est = _demo("refineA", refine=2)
        result = est.estimate()
        assert result.refine_iterations == 2
        assert result.refine_delta >= 0.0
        # And the unrefined estimate reports the defaults.
        _, plain = _demo("refineA", refine=0)
        unrefined = plain.estimate()
        assert unrefined.refine_iterations == 0
        assert unrefined.refine_delta == 0.0

    def test_segment_stats_report_glue_edges(self):
        _, est = _demo("refineA", refine=2)
        est.compile()
        stats = est.segment_stats()
        assert sum(entry["glue_edges"] for entry in stats) == len(
            est._refiner.edges
        )


class TestScaleSuite:
    """Satellite 2: the scale tier rides the suite registry."""

    def test_scale_suite_names(self):
        assert suite.SCALE_SUITE == [
            "layered2k",
            "layered10k",
            "refineA",
            "refineB",
        ]
        # Table 1 is untouched: its consumers iterate FULL_SUITE.
        assert len(suite.FULL_SUITE) == 20
        assert not set(suite.SCALE_SUITE) & set(suite.FULL_SUITE)
        for name in suite.SCALE_SUITE:
            assert name in suite.available_circuits()
            assert suite.is_standin(name)

    def test_layered2k_shape(self):
        circuit = suite.load_circuit("layered2k")
        assert circuit.num_gates == 2000
        assert circuit.num_inputs == 64

    def test_scale_circuit_generator(self):
        circuit = generate.scale_circuit(2000, seed=2024)
        assert circuit.num_inputs == 64
        assert circuit.num_gates == 2000
        assert generate.scale_circuit(10000, seed=2025).num_inputs == 128
        with pytest.raises(ValueError, match="n_gates >= 64"):
            generate.scale_circuit(32)

    def test_layered2k_segmented_compile(self):
        # The whole point of the scale tier: far past any single-network
        # clique budget, yet the segment graph compiles and estimates.
        circuit = suite.load_circuit("layered2k")
        est = SegmentedEstimator(
            circuit, input_model=IndependentInputs(P)
        )
        result = est.estimate()
        assert est.num_segments > 50
        assert set(result.distributions) == set(circuit.lines)
        assert 0.0 < result.mean_activity() < 1.0
