"""Content-addressed JSON cache for experiment results.

Repeated ``python -m repro run`` invocations recompute every grid point from
scratch even though the experiments are deterministic functions of their
parameters and seed.  :class:`ResultCache` memoises them on disk:

* **Key** — the SHA-256 digest of the canonical JSON encoding of
  ``{schema, experiment_id, parameters, version}`` (:func:`request_cache_key`),
  where ``parameters`` is the **fully normalized** mapping produced by the
  experiment's :class:`~repro.harness.registry.ExperimentSpec` (every
  parameter present, seed included when the spec declares one) and
  ``version`` is :data:`repro.__version__`.  Any change to the workload
  parameters, the seed, or the package version therefore produces a fresh
  key; bumping the package version is the (only) invalidation rule, so
  results can never leak across releases whose numerics may differ.
* **Location** — the directory given explicitly, else the
  ``REPRO_CACHE_DIR`` environment variable, else ``.repro-cache/`` under the
  current working directory.  Entries live in a **sharded two-level layout**
  — ``<dir>/<key[:2]>/<key>.json`` — so a hot cache never concentrates
  thousands of files in one directory.
* **Concurrency** — writes are atomic (unique tempfile in the target shard +
  ``os.replace``), so concurrent writers — threads of the experiment
  service, parallel CLI runs, or separate processes — each publish a
  complete entry and readers never observe a torn file.
* **Traffic** — lookups and writes are counted by the ambient
  :mod:`repro.obs` recorder (``cache.hit``/``cache.miss``/``cache.write``/
  ``cache.corrupt``), which is where the CLI's ``--metrics`` and the
  service's ``/metrics`` endpoint read them.

The cache stores plain JSON payloads (the CLI stores
:meth:`~repro.harness.results.ExperimentResult.to_dict` dumps) and is safe
to delete at any time.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional

from repro.obs import get_recorder

__all__ = [
    "ResultCache",
    "request_cache_key",
    "default_cache_dir",
]

#: Version of the key layout of :func:`request_cache_key`.  Bump when the
#: key fields change shape.
REQUEST_KEY_SCHEMA = 2

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Leading hex digits of the key that name an entry's shard directory.
SHARD_CHARS = 2


def default_cache_dir() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``./.repro-cache``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.cwd() / ".repro-cache"


def _canonical(value: object) -> object:
    """Make a parameter structure JSON-encodable and order-insensitive."""
    if isinstance(value, Mapping):
        return {
            str(key): _canonical(val)
            for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def request_cache_key(
    experiment_id: str,
    parameters: Mapping[str, object],
    version: Optional[str] = None,
) -> str:
    """The canonical content address of one run request.

    ``parameters`` must be the fully normalized mapping of the experiment's
    spec (defaults applied, sequences as lists, seed inside the mapping when
    the spec declares one); usually reached through
    :meth:`repro.harness.registry.ExperimentSpec.cache_key`.
    """
    if version is None:
        from repro import __version__ as version
    fields = {
        "schema": REQUEST_KEY_SCHEMA,
        "experiment_id": str(experiment_id),
        "parameters": _canonical(parameters),
        "version": str(version),
    }
    encoded = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf8")).hexdigest()


class ResultCache:
    """A sharded directory of content-addressed JSON results.

    Parameters
    ----------
    directory:
        Cache directory; defaults to :func:`default_cache_dir`.  Created
        lazily on the first :meth:`put`.

    Lookups and writes report to the ambient :mod:`repro.obs` recorder:
    ``cache.hit``/``cache.miss``/``cache.write``/``cache.corrupt`` counters
    plus a ``cache.lookup_seconds`` latency histogram (lookups are
    additionally wrapped in ``cache.lookup`` / ``cache.write`` spans when a
    trace recorder is installed).  An instance holds no mutable state, so
    the experiment service's worker threads share one.
    """

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()

    # ------------------------------------------------------------------ #
    def path_for(self, key: str) -> Path:
        """The sharded on-disk location of a key."""
        return self.directory / key[:SHARD_CHARS] / f"{key}.json"

    def _iter_entries(self) -> Iterator[Path]:
        """Every entry file of the sharded layout."""
        if not self.directory.is_dir():
            return
        yield from self.directory.glob(f"{'?' * SHARD_CHARS}/*.json")

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The cached payload for a key, or ``None`` on miss (a corrupt or
        truncated entry also reads as a miss rather than an error)."""
        recorder = get_recorder()
        with recorder.span("cache.lookup", key=key[:16]) as span:
            started = time.perf_counter()
            path = self.path_for(key)
            entry: object = None
            corrupt = False
            try:
                with path.open("r", encoding="utf8") as handle:
                    entry = json.load(handle)
            except FileNotFoundError:
                pass
            except (OSError, UnicodeDecodeError, json.JSONDecodeError):
                corrupt = True
            payload = entry.get("payload") if isinstance(entry, dict) else None
            if payload is not None and not isinstance(payload, dict):
                payload = None
            if payload is None and entry is not None:
                # The entry existed but did not hold a payload-shaped dict.
                corrupt = True
            recorder.histogram("cache.lookup_seconds", time.perf_counter() - started)
            if corrupt:
                recorder.counter("cache.corrupt")
            if payload is None:
                recorder.counter("cache.miss")
                span.annotate(outcome="corrupt" if corrupt else "miss")
                return None
            recorder.counter("cache.hit")
            span.annotate(outcome="hit")
            return payload

    def put(
        self,
        key: str,
        payload: Mapping[str, object],
        key_fields: Optional[Mapping[str, object]] = None,
    ) -> Path:
        """Store a payload under a key; ``key_fields`` (experiment id,
        parameters, ...) are saved alongside for human inspection."""
        recorder = get_recorder()
        with recorder.span("cache.write", key=key[:16]):
            path = self.path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            entry = {
                "key": key,
                "key_fields": _canonical(dict(key_fields)) if key_fields is not None else None,
                "payload": dict(payload),
            }
            # Unique temp name in the target shard + atomic rename:
            # concurrent writers of the same key each publish a complete
            # entry, last one wins, and readers never see a torn file.
            descriptor, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:16]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(descriptor, "w", encoding="utf8") as handle:
                    json.dump(entry, handle, indent=2, sort_keys=True)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            recorder.counter("cache.write")
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_entries())

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        removed = 0
        for path in self._iter_entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass  # a concurrent clear removed it first
        if self.directory.is_dir():
            for shard in self.directory.glob("?" * SHARD_CHARS):
                if shard.is_dir():
                    try:
                        shard.rmdir()
                    except OSError:
                        pass  # non-empty (e.g. an in-flight temp file)
        return removed

    def describe(self) -> Dict[str, object]:
        """On-disk shape of the cache (for ``python -m repro cache stats``):
        directory, entry count, total payload bytes and shard count.  Robust
        to a missing or empty directory — every count reads as zero."""
        entries = 0
        total_bytes = 0
        shards = set()
        for path in self._iter_entries():
            entries += 1
            shards.add(path.parent.name)
            try:
                total_bytes += path.stat().st_size
            except OSError:
                pass
        return {
            "directory": str(self.directory),
            "entries": entries,
            "total_bytes": total_bytes,
            "shards": len(shards),
        }
