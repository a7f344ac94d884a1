"""Content-addressed on-disk cache of compiled models.

The paper's compile cost is paid once per circuit *per process*; this
cache extends "once" across process boundaries.  Artifacts are keyed by
everything that determines the compile output:

- the circuit's structural fingerprint (gates, wiring, I/O),
- the backend name and its compile options,
- the *structure* of the input model (correlation edges are baked into
  the LIDAG at compile time; the values are refreshed on every query),
- the artifact schema version (so a code change that alters the pickled
  layout misses cleanly instead of loading garbage).

Hit/miss counts are kept on the cache object and mirrored into the
:mod:`repro.obs` metrics registry (``cache.hits`` / ``cache.misses``)
when observability is enabled.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

try:  # POSIX advisory locks; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.circuits.netlist import Circuit
from repro.core.backend.base import ARTIFACT_SCHEMA, CompiledModel
from repro.errors import ArtifactSchemaError
from repro.core.inputs import InputModel
from repro.obs.metrics import get_metrics

__all__ = [
    "CacheEntry",
    "CompileCache",
    "circuit_fingerprint",
    "compile_fingerprint",
    "default_cache_dir",
    "input_structure_signature",
]

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


#: Per-object memo for :func:`circuit_fingerprint`.  Netlists are
#: immutable after construction, and resident serving recomputes the
#: fingerprint on every request (pool admission + result-cache key),
#: so hashing a multi-hundred-gate netlist per hit dominates the hot
#: path.  Weak keys: the memo never keeps a circuit alive.
_FINGERPRINT_MEMO: "weakref.WeakKeyDictionary[Circuit, str]" = (
    weakref.WeakKeyDictionary()
)


def circuit_fingerprint(circuit: Circuit) -> str:
    """Deterministic structural digest of a netlist.

    Covers the gate list in topological order (type + input wiring),
    the primary I/O declarations, and the name.  Two circuits with the
    same fingerprint compile to interchangeable models.
    """
    try:
        memo = _FINGERPRINT_MEMO.get(circuit)
    except TypeError:  # unhashable or non-weakrefable stand-in
        memo = None
    if memo is not None:
        return memo
    digest = hashlib.sha256()
    digest.update(circuit.name.encode())
    digest.update(("|in:" + ",".join(circuit.inputs)).encode())
    digest.update(("|out:" + ",".join(circuit.outputs)).encode())
    for line in circuit.topological_order():
        gate = circuit.driver(line)
        if gate is not None:
            entry = f"|{gate.output}={gate.gate_type.name}({','.join(gate.inputs)})"
            digest.update(entry.encode())
    fingerprint = digest.hexdigest()
    try:
        _FINGERPRINT_MEMO[circuit] = fingerprint
    except TypeError:
        pass
    return fingerprint


def input_structure_signature(
    inputs: Optional[InputModel], circuit: Circuit
) -> str:
    """Digest of the input model's *edge structure*.

    Compilation bakes input-to-input correlation edges into the LIDAG;
    swapping values afterwards is free but changing the structure needs
    a recompile, so the structure is part of the cache key.  ``None``
    (backend default statistics) hashes to a fixed tag.
    """
    if inputs is None:
        return "default"
    parts = [type(inputs).__name__]
    for cpd in inputs.input_cpds(circuit.inputs):
        parts.append(f"{cpd.variable}|{cpd.cardinality}|{','.join(cpd.parents)}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()


def compile_fingerprint(
    circuit: Circuit,
    backend_name: str,
    inputs: Optional[InputModel] = None,
    options_token: str = "",
) -> str:
    """Content fingerprint of a compile: netlist hash + backend +
    input structure + options + schema version.

    This is the pure function behind :meth:`CompileCache.key_for`; it
    needs no cache directory, so result caches
    (:class:`repro.core.rcache.ResultCache`) can key on the identical
    fingerprint whether or not an on-disk compile cache is configured.
    """
    material = "\n".join(
        [
            ARTIFACT_SCHEMA,
            backend_name,
            circuit_fingerprint(circuit),
            input_structure_signature(inputs, circuit),
            options_token,
        ]
    )
    return hashlib.sha256(material.encode()).hexdigest()


@dataclass
class CacheEntry:
    """One artifact on disk, described without unpickling the model."""

    key: str
    path: Path
    size_bytes: int
    backend: str
    circuit: str

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "backend": self.backend,
            "circuit": self.circuit,
            "size_bytes": self.size_bytes,
        }


class CompileCache:
    """Content-addressed store of serialized :class:`CompiledModel`\\ s.

    Parameters
    ----------
    root:
        Cache directory (created on first write).  Defaults to
        :func:`default_cache_dir`.
    """

    SUFFIX = ".repro.pkl"

    #: wall-clock ceiling for the non-POSIX claim-file lock before a
    #: stale claim (crashed process) is stolen
    LOCK_TIMEOUT_SECONDS = 30.0

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Inter-process locking
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def _lock(self, shared: bool = False):
        """Advisory inter-process lock over the cache directory.

        Writers take it exclusive around the tmp-file write + rename,
        readers shared around the artifact read, so a reader can never
        interleave a partial view of an entry with a concurrent
        replace.  Uses ``fcntl.flock`` where available and an
        ``O_EXCL`` claim file elsewhere (exclusive-only, with a
        stale-claim timeout so a crashed writer cannot wedge the
        cache).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        if fcntl is not None:
            fd = os.open(self.root / ".lock", os.O_CREAT | os.O_RDWR, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
                yield
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
                os.close(fd)
            return
        claim = self.root / ".lock.claim"  # pragma: no cover - non-POSIX
        deadline = time.monotonic() + self.LOCK_TIMEOUT_SECONDS
        while True:
            try:
                fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                if time.monotonic() > deadline:
                    with contextlib.suppress(OSError):
                        os.unlink(claim)
                    deadline = time.monotonic() + self.LOCK_TIMEOUT_SECONDS
                time.sleep(0.005)
        try:
            yield
        finally:
            os.close(fd)
            with contextlib.suppress(OSError):
                os.unlink(claim)

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------

    def key_for(
        self,
        circuit: Circuit,
        backend_name: str,
        inputs: Optional[InputModel] = None,
        options_token: str = "",
    ) -> str:
        """Cache key: netlist hash + backend + options + schema version."""
        return compile_fingerprint(circuit, backend_name, inputs, options_token)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}{self.SUFFIX}"

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[CompiledModel]:
        """Load the artifact under ``key``; ``None`` (a miss) when it is
        absent or unreadable.  Corrupt entries are evicted."""
        path = self.path_for(key)
        if not self.root.is_dir():
            self._record(hit=False)
            return None
        try:
            with self._lock(shared=True):
                data = path.read_bytes()
        except OSError:
            self._record(hit=False)
            return None
        try:
            model = CompiledModel.from_bytes(data)
        except Exception:
            # A stale or truncated artifact must never poison callers;
            # drop it and recompile.
            path.unlink(missing_ok=True)
            self.evictions += 1
            registry = get_metrics()
            if registry.enabled:
                registry.counter("cache.evictions").inc(1)
            self._record(hit=False)
            return None
        self._record(hit=True)
        return model

    def put(self, key: str, model: CompiledModel) -> Path:
        """Atomically write ``model`` under ``key`` (tmp file + rename)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        data = model.to_bytes()
        with self._lock(shared=False):
            fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        return path

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def entries(self) -> List[CacheEntry]:
        """Describe every artifact in the cache (cheap: envelope only)."""
        found: List[CacheEntry] = []
        if not self.root.is_dir():
            return found
        for path in sorted(self.root.glob(f"*{self.SUFFIX}")):
            key = path.name[: -len(self.SUFFIX)]
            try:
                envelope = CompiledModel.read_envelope(path.read_bytes())
            except (ArtifactSchemaError, OSError):
                continue
            found.append(
                CacheEntry(
                    key=key,
                    path=path,
                    size_bytes=path.stat().st_size,
                    backend=envelope.get("backend", "?"),
                    circuit=envelope.get("circuit", "?"),
                )
            )
        return found

    def clear(self) -> int:
        """Delete every artifact; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob(f"*{self.SUFFIX}"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, int]:
        """This process's hit/miss/eviction counters for the cache object."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    # ------------------------------------------------------------------

    def _record(self, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        registry = get_metrics()
        if registry.enabled:
            registry.counter("cache.hits" if hit else "cache.misses").inc(1)

    def __repr__(self) -> str:
        return f"CompileCache(root={str(self.root)!r}, hits={self.hits}, misses={self.misses})"
