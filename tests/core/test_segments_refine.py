"""The segment graph and iterative boundary refinement (PR 8).

Covers the `repro.core.segments` package surface: the explicit
:class:`SegmentGraph`, the typed boundary errors, the refinement
accuracy contract on the seeded demo circuits (DESIGN.md section 14),
batched/parallel/serialized parity under refinement, and the compile
options threading through the backend layer.
"""

import numpy as np
import pytest

from repro.circuits import examples, generate, suite
from repro.core.backend import compile_model
from repro.core.backend.backends import SegmentedBackend
from repro.core.estimator import exact_switching_by_enumeration
from repro.core.inputs import IndependentInputs
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
        with pytest.raises(ValueError, match="max_iters"):
            SegmentedEstimator(circuit, refine=1, max_iters=0)


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
        # Dependencies respect the level schedule: a segment's inputs
        # are produced by strictly earlier levels.
        level_of = graph.levels()
        for index in range(len(graph)):
            for dep in graph.dependencies(index):
                assert level_of[dep] < level_of[index]
        # Boundary edges point from owner to consumer along cut lines.
        for owner, consumer, line in graph.boundary_edges():
            assert graph.owner[line] == owner
            assert line in graph.nodes[consumer].segment.inputs


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

    def test_max_iters_caps_refinement(self):
        _, est = _demo("refineA", refine=10, max_iters=1)
        result = est.estimate()
        assert result.refine_iterations == 1


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

    def test_parallel_matches_serial(self):
        circuit, serial = _demo("refineB", refine=2)
        circuit, parallel = _demo("refineB", refine=2, parallelism=2)
        a = serial.estimate()
        b = parallel.estimate()
        for line in circuit.lines:
            np.testing.assert_allclose(
                a.distributions[line], b.distributions[line], atol=1e-12
            )


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
            max_iters=2,
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
            circuit, input_model=IndependentInputs(P), parallelism=4
        )
        result = est.estimate()
        assert est.num_segments > 50
        assert set(result.distributions) == set(circuit.lines)
        assert 0.0 < result.mean_activity() < 1.0
