"""Profile store: round-trip, ref resolution, corruption hardening."""

import json

import pytest

from repro.errors import PerfProfileError
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.perf.store import (
    STORE_DIR_ENV,
    PerfStore,
    default_store_dir,
    load_profiles_file,
    validate_profile,
    write_history,
)

from .conftest import make_profile


class TestRoundTrip:
    def test_append_then_read(self, tmp_path):
        store = PerfStore(tmp_path / "store")
        store.append(make_profile(sha="a" * 40))
        store.append(make_profile(sha="b" * 40))
        profiles = store.profiles()
        assert [p["git"]["sha"][0] for p in profiles] == ["a", "b"]

    def test_empty_store_reads_empty(self, tmp_path):
        assert PerfStore(tmp_path / "nowhere").profiles() == []

    def test_env_var_overrides_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "via-env"))
        assert default_store_dir() == tmp_path / "via-env"
        store = PerfStore()
        store.append(make_profile())
        assert (tmp_path / "via-env" / "profiles.jsonl").is_file()

    def test_fingerprint_filter(self, tmp_path):
        store = PerfStore(tmp_path)
        local = make_profile(sha="a" * 40)
        foreign = make_profile(sha="b" * 40)
        foreign["fingerprint"]["digest"] = "0123456789abcdef"
        store.append(local)
        store.append(foreign)
        mine = store.profiles(fingerprint_digest="feedfacefeedface")
        assert [p["git"]["sha"][0] for p in mine] == ["a"]

    def test_append_rejects_invalid(self, tmp_path):
        store = PerfStore(tmp_path)
        with pytest.raises(PerfProfileError):
            store.append({"schema": "nope"})
        assert not store.path.exists()


class TestResolve:
    def test_latest_and_sha_prefix(self, tmp_path):
        store = PerfStore(tmp_path)
        store.append(make_profile(sha="a" * 40, note="old"))
        store.append(make_profile(sha="b" * 40, note="new"))
        assert store.resolve("latest")["note"] == "new"
        assert store.resolve("a" * 7)["note"] == "old"

    def test_newest_match_wins(self, tmp_path):
        store = PerfStore(tmp_path)
        store.append(make_profile(sha="a" * 40, note="first"))
        store.append(make_profile(sha="a" * 40, note="second"))
        assert store.resolve("a" * 7)["note"] == "second"

    def test_file_ref_takes_last_profile(self, tmp_path):
        history = tmp_path / "PERF_HISTORY.json"
        write_history(
            history,
            [make_profile(sha="a" * 40), make_profile(sha="b" * 40, note="hit")],
        )
        assert PerfStore(tmp_path).resolve(str(history))["note"] == "hit"

    def test_unresolvable_ref_raises(self, tmp_path):
        store = PerfStore(tmp_path)
        with pytest.raises(PerfProfileError, match="no profiles"):
            store.resolve("latest")
        store.append(make_profile(sha="a" * 40))
        with pytest.raises(PerfProfileError, match="matches ref"):
            store.resolve("ffff")


class TestCorruptionHardening:
    def _store_with_damage(self, tmp_path, damage):
        store = PerfStore(tmp_path)
        store.append(make_profile(sha="a" * 40))
        store.append(make_profile(sha="b" * 40))
        damage(store.path)
        return store

    def test_byte_chopped_tail_is_skipped(self, tmp_path):
        def chop(path):
            raw = path.read_bytes()
            path.write_bytes(raw[: len(raw) - 40])  # mid-JSON truncation

        store = self._store_with_damage(tmp_path, chop)
        with pytest.warns(UserWarning, match="corrupt profile entry"):
            profiles = store.profiles()
        assert [p["git"]["sha"][0] for p in profiles] == ["a"]

    def test_garbage_line_is_skipped(self, tmp_path):
        def garble(path):
            lines = path.read_text().splitlines()
            lines.insert(1, "\x00\xff not json at all")
            path.write_text("\n".join(lines) + "\n")

        store = self._store_with_damage(tmp_path, garble)
        with pytest.warns(UserWarning):
            profiles = store.profiles()
        assert len(profiles) == 2  # both real profiles survive

    def test_corrupt_counter_increments_when_enabled(self, tmp_path):
        def chop(path):
            raw = path.read_bytes()
            path.write_bytes(raw[: len(raw) - 40])

        store = self._store_with_damage(tmp_path, chop)
        registry = MetricsRegistry(enabled=True)
        previous = set_metrics(registry)
        try:
            with pytest.warns(UserWarning):
                store.profiles()
        finally:
            set_metrics(previous)
        assert registry.snapshot()["counters"]["perf.store.corrupt"] == 1

    def test_schema_drift_counts_as_corrupt(self, tmp_path):
        store = PerfStore(tmp_path)
        store.append(make_profile(sha="a" * 40))
        stale = make_profile(sha="b" * 40)
        stale["schema"] = "repro.perf/v0"
        with open(store.path, "a") as fh:
            fh.write(json.dumps(stale) + "\n")
        with pytest.warns(UserWarning, match="schema"):
            profiles = store.profiles()
        assert len(profiles) == 1


class TestHistoryDocument:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "PERF_HISTORY.json"
        write_history(path, [make_profile(sha="a" * 40)])
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.perf/v2"
        loaded = load_profiles_file(path)
        assert len(loaded) == 1 and loaded[0]["git"]["sha"] == "a" * 40

    def test_load_single_profile_document(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(make_profile()))
        assert len(load_profiles_file(path)) == 1

    def test_load_jsonl(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with open(path, "w") as fh:
            for sha in ("a" * 40, "b" * 40):
                fh.write(json.dumps(make_profile(sha=sha)) + "\n")
        assert len(load_profiles_file(path)) == 2

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(PerfProfileError, match="cannot read"):
            load_profiles_file(tmp_path / "nope.json")

    def test_strict_load_raises_on_an_invalid_entry(self, tmp_path):
        path = tmp_path / "old.json"
        stale = make_profile()
        stale["schema"] = "repro.perf/v1"
        path.write_text(json.dumps(stale))
        with pytest.warns(UserWarning):
            assert load_profiles_file(path) == []
        with pytest.raises(PerfProfileError, match="schema"):
            load_profiles_file(path, strict=True)


class TestValidateProfile:
    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda p: p.pop("schema"), "schema"),
            (lambda p: p.update(schema_version=99), "schema_version"),
            (lambda p: p["git"].pop("sha"), "git.sha"),
            (lambda p: p["git"].update(dirty="yes"), "git.dirty"),
            (lambda p: p["fingerprint"].pop("digest"), "fingerprint"),
            (lambda p: p.update(rows=[]), "measurements"),
            (lambda p: p["rows"][0].update(value="x"), "neither"),
            (lambda p: p.update(obs="not a dict"), "obs"),
            (lambda p: p.update(benchmark="bench"), "benchmark"),
            (lambda p: p.pop("config"), "config"),
            (lambda p: p["rows"].append(dict(p["rows"][0])), "repeats"),
            (lambda p: p["rows"][0].update(extra=1), "unknown fields"),
            (lambda p: p["rows"][0].update(key={"K": [64]}), "flat object"),
            (lambda p: p["rows"][0].update(samples=[0.1, "x"]), "samples"),
        ],
    )
    def test_rejections(self, mutate, match):
        profile = make_profile()
        mutate(profile)
        with pytest.raises(PerfProfileError, match=match):
            validate_profile(profile)

    def test_valid_profile_returned_unchanged(self, profile):
        assert validate_profile(profile) is profile
