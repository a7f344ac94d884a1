"""Live-server integration tests: one in-process server per class.

Responses travel the full path (HTTP parse -> pool -> batcher ->
engine replica -> JSON), so the bitwise comparisons below also pin
that JSON float round-tripping is exact (``json`` emits ``repr``
floats, which round-trip float64 exactly).
"""

import numpy as np
import pytest

from repro import estimate
from repro.circuits import suite
from repro.core.inputs import input_model_from_spec
from repro.obs import validate_report
from repro.serve import EstimationServer, ServeClient, ServerConfig, run_load
from repro.serve.client import ServeRequestError, scenario_spec


@pytest.fixture(scope="module")
def server():
    config = ServerConfig(
        port=0, cache=None, max_batch=8, linger_ms=1.0, workers=2
    )
    with EstimationServer(config) as live:
        yield live


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.address, timeout=30.0)


class TestEstimate:
    def test_matches_local_estimate_bitwise(self, client):
        spec = {"kind": "independent", "p_one": 0.37}
        response = client.estimate("c17", spec, detail="distributions")
        expect = estimate(
            suite.load_circuit("c17"), input_model_from_spec(spec),
            backend="auto", cache=None,
        )
        assert response["circuit"] == "c17"
        assert response["method"] == expect.method
        assert response["mean_activity"] == float(expect.mean_activity())
        for line, activity in expect.activities.items():
            assert response["activities"][line] == float(activity)
        for line, dist in expect.distributions.items():
            assert np.array_equal(
                np.asarray(response["distributions"][line]), dist
            )

    def test_default_scenario_and_detail(self, client):
        response = client.estimate("c17")
        assert "activities" in response
        assert "distributions" not in response
        expect = estimate(
            suite.load_circuit("c17"), input_model_from_spec(
                {"kind": "independent", "p_one": 0.5}
            ),
            backend="auto", cache=None,
        )
        assert response["mean_activity"] == float(expect.mean_activity())

    def test_detail_mean_omits_activities(self, client):
        response = client.estimate("c17", detail="mean")
        assert "activities" not in response
        assert "mean_activity" in response

    def test_estimate_many_round_trip(self, client):
        specs = [scenario_spec(i) for i in range(5)]
        response = client.estimate_many("c17", specs)
        assert response["circuit"] == "c17"
        assert len(response["results"]) == 5
        for spec, result in zip(specs, response["results"]):
            expect = estimate(
                suite.load_circuit("c17"), input_model_from_spec(spec),
                backend="auto", cache=None,
            )
            assert result["mean_activity"] == float(expect.mean_activity())

    def test_explicit_backend_is_honored(self, client):
        response = client.estimate("c17", backend="enumeration")
        assert response["backend"] == "enumeration"
        assert response["method"] == "enumeration"


class TestErrors:
    def test_unknown_circuit_is_400(self, client):
        with pytest.raises(ServeRequestError) as excinfo:
            client.estimate("no-such-circuit")
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "UnknownCircuitError"

    def test_malformed_scenario_is_400(self, client):
        with pytest.raises(ServeRequestError) as excinfo:
            client.estimate("c17", {"kind": "independent", "p_one": "high"})
        assert excinfo.value.status == 400

    def test_out_of_range_probability_is_400(self, client):
        with pytest.raises(ServeRequestError) as excinfo:
            client.estimate("c17", {"kind": "independent", "p_one": 1.5})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "independent", "p_one": {"1": 0.5, "3": "high"}},
             "could not convert string to float: 'high'"),
            ({"kind": "independent", "p_one": {"3": 1.5}},
             "p_one for '3' out of [0, 1]: 1.5"),
            ({"kind": "temporal", "p_one": 0.05, "activity": 0.9},
             "activity 0.9 infeasible for p_one 0.05: need activity/2 <= min(p, 1-p)"),
            ({"kind": "trace", "trace": [[0, 1], [1, 1]], "input_names": ["1", "2"]},
             "\"input '3' not in the trace\""),
        ],
    )
    def test_admission_rejects_invalid_inputs(self, client, spec, message):
        # Admission builds the scenario's one-row input stack, so values
        # the batch build would reject fail with a 400 before batching.
        with pytest.raises(ServeRequestError) as excinfo:
            client.estimate("c17", spec)
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "ReproError"
        assert str(excinfo.value) == f"malformed scenario spec: {message}"

    def test_admission_accepts_the_feasibility_edge(self, client):
        spec = {"kind": "temporal", "p_one": 0.3, "activity": 0.6 + 1e-13}
        assert "mean_activity" in client.estimate("c17", spec)

    def test_unknown_detail_is_400(self, client):
        with pytest.raises(ServeRequestError) as excinfo:
            client.estimate("c17", detail="everything")
        assert excinfo.value.status == 400

    def test_empty_scenarios_is_400(self, client):
        with pytest.raises(ServeRequestError) as excinfo:
            client.estimate_many("c17", [])
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "options, message",
        [({"bogus": 1}, "'bogus'"), ({"kernel": "dense"}, "'kernel'"),
         ([1, 2], "must be an object")],
    )
    def test_bad_options_are_400(self, client, options, message):
        # Unknown compile options and non-object options used to reach
        # backend.compile(**options) and surface as a 500 TypeError.
        with pytest.raises(ServeRequestError) as excinfo:
            client._request(
                "POST", "/estimate", {"circuit": "c17", "options": options}
            )
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "UnknownOptionError"
        assert message in str(excinfo.value)

    def test_known_options_are_honored(self, client):
        response = client.estimate(
            "c17", backend="junction-tree", options={"heuristic": "min_degree"}
        )
        assert response["backend"] == "junction-tree"

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeRequestError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_invalid_json_body_is_400(self, client):
        connection = client._connection()
        connection.request(
            "POST", "/estimate", body="{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        response.read()
        assert response.status == 400


class TestMetrics:
    def test_metrics_report_is_valid_obs_document(self, client):
        client.estimate("c17")
        report = client.metrics()
        validate_report(report)  # raises on schema violations
        meta = report["meta"]
        assert meta["kind"] == "repro-serve"
        assert meta["pool"]["resident"] >= 1
        assert meta["batcher"]["items"] >= 1
        metrics = report["metrics"]
        assert "serve.requests.estimate" in metrics["counters"]
        assert "serve.latency.estimate" in metrics["histograms"]

    def test_health_endpoint(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0


class TestLoadGenerator:
    def test_closed_loop_report(self, server):
        report = run_load(
            server.address, "c17", mode="closed", concurrency=4, requests=16
        )
        assert report.errors == 0
        assert report.requests == 16
        assert report.scenarios_per_sec > 0
        assert report.p50_latency_seconds <= report.p99_latency_seconds
        row = report.to_row()
        assert row["mode"] == "closed" and "rate" not in row

    def test_open_loop_counts_queueing_delay(self, server):
        report = run_load(
            server.address, "c17", mode="open", concurrency=2,
            requests=10, rate=200.0,
        )
        assert report.errors == 0
        assert report.to_row()["rate"] == 200.0

    def test_scenario_stream_is_deterministic(self):
        assert scenario_spec(3) == scenario_spec(3)
        assert scenario_spec(3) != scenario_spec(4)
        p = scenario_spec(12345)["p_one"]
        assert 0.05 <= p <= 0.95
