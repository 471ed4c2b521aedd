"""Tests for the content-addressed result cache (repro.engine.cache)."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro
from repro.engine.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    default_cache_dir,
    request_cache_key,
)
from repro.obs import TraceRecorder, use_recorder


def key_for(experiment_id, parameters, seed, version=None):
    """A request key with the seed inside the parameter mapping, the layout
    every spec-normalized request has."""
    return request_cache_key(experiment_id, {**parameters, "seed": seed}, version=version)


def old_style_key(experiment_id, parameters, seed):
    """The key encoding of releases before 2.3 (raw parameters plus a
    top-level seed field, no schema marker); such entries may still sit in
    old cache directories."""
    fields = {
        "experiment_id": experiment_id,
        "parameters": parameters,
        "seed": seed,
        "version": repro.__version__,
    }
    encoded = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf8")).hexdigest()


class TestCacheKey:
    def test_stable_for_identical_inputs(self):
        a = key_for("E1", {"trials": 100, "sizes": [9]}, seed=0)
        b = key_for("E1", {"sizes": [9], "trials": 100}, seed=0)
        assert a == b  # canonical encoding is key-order insensitive

    def test_sensitive_to_every_field(self):
        base = key_for("E1", {"trials": 100}, seed=0)
        assert key_for("E2", {"trials": 100}, seed=0) != base
        assert key_for("E1", {"trials": 101}, seed=0) != base
        assert key_for("E1", {"trials": 100}, seed=1) != base
        assert key_for("E1", {"trials": 100}, seed=0, version="0.0.0-other") != base

    def test_version_defaults_to_package_version(self):
        assert key_for("E1", {}, 0) == key_for("E1", {}, 0, version=repro.__version__)

    def test_tuples_and_lists_key_identically(self):
        assert key_for("E1", {"sizes": (9, 12)}, 0) == key_for("E1", {"sizes": [9, 12]}, 0)


class TestRequestCacheKeyCanonicalization:
    """The spec-derived key scheme: same logical request → same key, version
    bump invalidates, and the legacy key space can never be re-entered."""

    PARAMS = {"f_values": [1, 2], "n": 60, "trials": 100, "seed": 0, "engine": "auto"}

    def test_identical_across_dict_orderings(self):
        reordered = dict(reversed(list(self.PARAMS.items())))
        assert list(reordered) != list(self.PARAMS)  # genuinely different orderings
        assert request_cache_key("E5", self.PARAMS) == request_cache_key("E5", reordered)

    def test_tuples_and_lists_key_identically(self):
        a = request_cache_key("E5", {**self.PARAMS, "f_values": (1, 2)})
        assert a == request_cache_key("E5", self.PARAMS)

    def test_sensitive_to_every_parameter(self):
        base = request_cache_key("E5", self.PARAMS)
        for name, changed in [
            ("n", 61),
            ("seed", 1),
            ("engine", "off"),
            ("f_values", [1, 3]),
        ]:
            assert request_cache_key("E5", {**self.PARAMS, name: changed}) != base
        assert request_cache_key("E6", self.PARAMS) != base

    def test_version_bump_invalidates(self):
        assert request_cache_key("E5", self.PARAMS) == request_cache_key(
            "E5", self.PARAMS, version=repro.__version__
        )
        assert request_cache_key("E5", self.PARAMS, version="0.0.0-other") != request_cache_key(
            "E5", self.PARAMS
        )

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_never_collides_with_old_style_keys(self, seed):
        """The old encoding always carries a top-level seed field and no
        schema marker, so for any parameter mapping and any old seed the
        two schemes hash different field sets: an entry an older release
        left in the cache directory can never be served as a hit."""
        for parameters in ({}, self.PARAMS, {"schema": 2}):
            assert request_cache_key("E5", parameters) != old_style_key("E5", parameters, seed)

    def test_spec_cache_key_agrees_with_request_cache_key(self):
        from repro.harness.registry import REGISTRY

        spec = REGISTRY["E5"]
        normalized = spec.validate({"trials": 100, "n": 60})
        assert spec.cache_key({"trials": 100, "n": 60}) == request_cache_key("E5", normalized)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = key_for("E1", {"trials": 10}, 0)
        assert cache.get(key) is None
        assert key not in cache
        cache.put(key, {"rows": [1, 2, 3]}, key_fields={"experiment_id": "E1"})
        assert key in cache
        assert cache.get(key) == {"rows": [1, 2, 3]}
        assert len(cache) == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = key_for("E1", {}, 0)
        cache.put(key, {"rows": []})
        cache.path_for(key).write_text("{not json", encoding="utf8")
        assert cache.get(key) is None

    def test_entry_file_is_inspectable_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = key_for("E5", {"f_values": [1, 2]}, 3)
        cache.put(key, {"ok": True}, key_fields={"experiment_id": "E5", "seed": 3})
        entry = json.loads(cache.path_for(key).read_text(encoding="utf8"))
        assert entry["key"] == key
        assert entry["key_fields"]["experiment_id"] == "E5"
        assert entry["payload"] == {"ok": True}

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(3):
            cache.put(key_for("E1", {"i": index}, 0), {"i": index})
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_missing_directory_is_empty(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert len(cache) == 0
        assert cache.get("deadbeef") is None
        assert cache.clear() == 0

    def test_entry_deleted_after_contains_reads_as_miss(self, tmp_path):
        """An entry deleted between ``__contains__`` and ``get`` (the
        smallest version of a read racing a clear) is a miss, not a crash."""
        cache = ResultCache(tmp_path)
        key = key_for("E1", {}, 0)
        path = cache.put(key, {"rows": []})
        assert key in cache
        path.unlink()
        assert cache.get(key) is None


class TestCacheStats:
    """Cache traffic is read from the ambient recorder's ``cache.*``
    counters (what ``--metrics`` and the service's ``/v1/metrics`` show)."""

    def test_traffic_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = key_for("E1", {"trials": 10}, 0)
        with use_recorder(TraceRecorder()) as recorder:
            cache.get(key)  # miss
            cache.put(key, {"rows": []})
            cache.get(key)  # hit
            cache.get(key_for("E1", {"trials": 11}, 0))  # miss
        assert recorder.counters == {"cache.hit": 1, "cache.miss": 2, "cache.write": 1}

    def test_corrupt_entries_counted_as_corrupt_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        unparsable = key_for("E1", {"i": 0}, 0)
        cache.put(unparsable, {"rows": []})
        cache.path_for(unparsable).write_text("{not json", encoding="utf8")
        wrong_shape = key_for("E1", {"i": 1}, 0)
        wrong_path = cache.path_for(wrong_shape)
        wrong_path.parent.mkdir(parents=True, exist_ok=True)
        wrong_path.write_text('{"payload": [1, 2]}', encoding="utf8")
        with use_recorder(TraceRecorder()) as recorder:
            assert cache.get(unparsable) is None
            assert cache.get(wrong_shape) is None
            assert recorder.counters["cache.corrupt"] == 2
            assert recorder.counters["cache.miss"] == 2  # corrupt entries are also misses
            # A plain absent key is a miss but not corrupt.
            assert cache.get(key_for("E1", {"i": 2}, 0)) is None
        assert recorder.counters["cache.miss"] == 3
        assert recorder.counters["cache.corrupt"] == 2

    def test_describe_reports_disk_shape(self, tmp_path):
        cache = ResultCache(tmp_path)
        shape = cache.describe()
        assert shape["directory"] == str(tmp_path)
        assert shape["entries"] == 0
        assert shape["total_bytes"] == 0
        assert shape["shards"] == 0
        cache.put(key_for("E1", {}, 0), {"rows": [1]})
        shape = cache.describe()
        assert shape["entries"] == 1
        assert shape["total_bytes"] > 0
        assert shape["shards"] == 1

    def test_describe_is_robust_to_a_missing_directory(self, tmp_path):
        shape = ResultCache(tmp_path / "never-created").describe()
        assert shape["entries"] == 0
        assert shape["total_bytes"] == 0
        assert shape["shards"] == 0


class TestShardedLayout:
    def test_entries_land_in_two_level_shards(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = key_for("E1", {"trials": 10}, 0)
        path = cache.put(key, {"rows": []})
        assert path == tmp_path / key[:2] / f"{key}.json"
        assert path.is_file()
        assert cache.get(key) == {"rows": []}

    def test_flat_files_are_not_entries(self, tmp_path):
        """Only the sharded layout holds entries: a flat ``<key>.json`` file
        in the directory root is neither served, counted, nor cleared."""
        key = key_for("E1", {"trials": 10}, 0)
        flat = tmp_path / f"{key}.json"
        flat.write_text(
            json.dumps({"key": key, "key_fields": None, "payload": {"rows": [7]}}),
            encoding="utf8",
        )
        cache = ResultCache(tmp_path)
        assert key not in cache
        assert cache.get(key) is None
        assert len(cache) == 0
        assert cache.clear() == 0
        assert flat.is_file()

    def test_clear_removes_empty_shard_directories(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = key_for("E1", {}, 0)
        cache.put(key, {"rows": []})
        shard = tmp_path / key[:2]
        assert shard.is_dir()
        cache.clear()
        assert not shard.exists()


def _hammer_writes(directory: str, key: str, marker: int, rounds: int) -> int:
    """Worker for the concurrent-writer test: repeatedly publish a large
    payload under one shared key (top-level, hence picklable)."""
    from repro.engine.cache import ResultCache

    cache = ResultCache(Path(directory))
    payload = {"marker": marker, "blob": "x" * 50_000, "rows": list(range(500))}
    for _ in range(rounds):
        cache.put(key, payload)
    return marker


class TestConcurrentWriters:
    def test_concurrent_writes_never_leave_a_corrupt_entry(self, tmp_path):
        """Two processes hammering the same key while a reader polls: every
        read is either a miss (before the first publish) or a *complete*
        payload from one writer — never torn, never corrupt."""
        from concurrent.futures import ProcessPoolExecutor

        key = key_for("E1", {"concurrent": True}, 0)
        cache = ResultCache(tmp_path)
        recorder = TraceRecorder()
        with ProcessPoolExecutor(max_workers=2) as pool, use_recorder(recorder):
            futures = [
                pool.submit(_hammer_writes, str(tmp_path), key, marker, 20)
                for marker in (1, 2)
            ]
            observed = set()
            while not all(future.done() for future in futures):
                payload = cache.get(key)
                if payload is not None:
                    assert set(payload) == {"marker", "blob", "rows"}
                    assert len(payload["blob"]) == 50_000
                    assert payload["rows"] == list(range(500))
                    observed.add(payload["marker"])
            assert sorted(future.result() for future in futures) == [1, 2]
        # The final state is one complete entry from one of the writers.
        final = cache.get(key)
        assert final is not None and final["marker"] in (1, 2)
        assert "cache.corrupt" not in recorder.counters
        # No temp files were left behind by either writer.
        assert list(tmp_path.glob("**/*.tmp")) == []


class TestCacheStatsCLI:
    def test_cache_stats_reports_zeros_on_missing_directory(self, tmp_path):
        from io import StringIO

        from repro.cli import main

        stream = StringIO()
        code = main(["cache", "stats", "--cache-dir", str(tmp_path / "missing")], stream=stream)
        assert code == 0
        output = stream.getvalue()
        assert "entries    : 0" in output
        assert "total bytes: 0" in output
        assert "shards     : 0" in output

    def test_cache_stats_reports_zeros_on_empty_directory(self, tmp_path):
        from io import StringIO

        from repro.cli import main

        stream = StringIO()
        code = main(["cache", "stats", "--cache-dir", str(tmp_path)], stream=stream)
        assert code == 0
        assert "entries    : 0" in stream.getvalue()

    def test_cache_clear_exits_zero_on_missing_directory(self, tmp_path):
        from io import StringIO

        from repro.cli import main

        stream = StringIO()
        code = main(["cache", "clear", "--cache-dir", str(tmp_path / "missing")], stream=stream)
        assert code == 0
        assert "removed 0 cache entries" in stream.getvalue()


class TestDefaultLocation:
    def test_env_var_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_default_is_repo_local(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        assert default_cache_dir() == tmp_path / ".repro-cache"
