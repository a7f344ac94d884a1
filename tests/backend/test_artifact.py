"""CompiledModel serialization: save/load round-trips exactly."""

import pickle

import pytest

from repro.circuits import suite
from repro.core.backend import (
    ARTIFACT_SCHEMA,
    ArtifactSchemaError,
    CompiledModel,
    compile_model,
)
from repro.core.inputs import IndependentInputs, TemporalInputs

#: (circuit, backend) pairs covering single-BN, segmented (with its
#: junction-tree and enumeration segment kinds), and whole-circuit
#: enumeration artifacts.
ROUND_TRIP_CASES = [
    ("c17", "junction-tree"),
    ("pcler8", "auto"),
    ("voter", "auto"),
    ("alu", "auto"),
    ("comp", "auto"),
    ("c17", "enumeration"),
    ("c432s", "segmented"),
]


@pytest.mark.parametrize("name,backend", ROUND_TRIP_CASES)
def test_save_load_round_trip_matches_fresh_compile(tmp_path, name, backend):
    circuit = suite.load_circuit(name)
    model = compile_model(circuit, backend=backend)
    fresh = model.query()

    path = tmp_path / f"{name}.repro.pkl"
    model.save(path)
    loaded = CompiledModel.load(path)
    replayed = loaded.query()

    assert replayed.method == fresh.method
    assert replayed.segments == fresh.segments
    assert set(replayed.distributions) == set(fresh.distributions)
    for line in fresh.distributions:
        assert replayed.switching(line) == pytest.approx(
            fresh.switching(line), abs=1e-12
        )


def test_loaded_model_accepts_new_inputs(tmp_path):
    circuit = suite.load_circuit("c17")
    model = compile_model(circuit, IndependentInputs(0.5), backend="junction-tree")
    path = tmp_path / "c17.repro.pkl"
    model.save(path)

    loaded = CompiledModel.load(path)
    at_low = loaded.query(IndependentInputs(0.2))
    fresh = compile_model(
        circuit, IndependentInputs(0.2), backend="junction-tree"
    ).query()
    for line in fresh.distributions:
        assert at_low.switching(line) == pytest.approx(
            fresh.switching(line), abs=1e-12
        )


def test_temporal_input_model_round_trips(tmp_path):
    circuit = suite.load_circuit("c17")
    inputs = TemporalInputs(p_one=0.5, activity=0.2)
    model = compile_model(circuit, inputs, backend="junction-tree")
    fresh = model.query()
    path = tmp_path / "c17t.repro.pkl"
    model.save(path)
    replayed = CompiledModel.load(path).query()
    for line in fresh.distributions:
        assert replayed.switching(line) == pytest.approx(
            fresh.switching(line), abs=1e-12
        )


def test_envelope_rejects_wrong_schema(tmp_path):
    circuit = suite.load_circuit("c17")
    model = compile_model(circuit, backend="junction-tree")
    data = model.to_bytes()
    envelope = pickle.loads(data)
    assert envelope["schema"] == ARTIFACT_SCHEMA

    envelope["schema"] = "repro.compiled/v0"
    with pytest.raises(ArtifactSchemaError):
        CompiledModel.from_bytes(pickle.dumps(envelope))


def test_from_bytes_rejects_garbage():
    with pytest.raises(ArtifactSchemaError):
        CompiledModel.from_bytes(b"not a pickle at all")


def test_read_envelope_reports_without_unpickling_payload():
    circuit = suite.load_circuit("c17")
    model = compile_model(circuit, backend="junction-tree")
    envelope = CompiledModel.read_envelope(model.to_bytes())
    assert envelope["backend"] == "junction-tree"
    assert envelope["circuit"] == "c17"
    assert isinstance(envelope["blob"], bytes)


def test_envelope_rejects_previous_schema_version():
    # v6 artifacts pickle segmented estimators with a glue-cone
    # support budget attribute; loading one must fail typed rather
    # than unpickle a stale layout.
    circuit = suite.load_circuit("c17")
    model = compile_model(circuit, backend="junction-tree")
    envelope = pickle.loads(model.to_bytes())
    envelope["schema"] = "repro.compiled/v6"
    with pytest.raises(ArtifactSchemaError, match="v6"):
        CompiledModel.from_bytes(pickle.dumps(envelope))
