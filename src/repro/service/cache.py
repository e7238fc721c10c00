"""Content-addressed cache of verified routing results.

The cache maps a job's content hash (see
:meth:`repro.service.jobs.RoutingJob.content_hash`) to a serialised
:class:`~repro.core.result.RoutingResult`.  Two layers:

* an in-memory dict for the lifetime of a service instance, and
* an optional on-disk JSON directory (one ``<hash>.json`` per entry) so a
  second process -- or a second CLI invocation -- reuses earlier work.

Trust model: the cache trusts *nothing*.  Entries are re-verified with the
independent verifier (:func:`repro.core.verifier.verify_routing`) against the
job's own circuit and architecture on every load, and results are verified
again before being stored.  A corrupted, tampered, or stale entry therefore
degrades to a cache miss (and is evicted) instead of propagating a wrong
answer -- crucial because the on-disk layer is plain JSON anyone can edit.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

try:  # POSIX file locking; absent on some platforms -- degrade to no-op
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

from repro.circuits.qasm import circuit_to_qasm, parse_qasm
from repro.core.result import RoutingResult, RoutingStatus
from repro.core.verifier import verify_routing
from repro.service.jobs import RoutingJob

#: Bump when the serialisation layout changes; mismatched entries are misses.
CACHE_FORMAT_VERSION = 1


class _DirectoryLock:
    """An exclusive inter-process lock on a cache directory.

    Serialises the eviction scan and disk writes across the fleet's shard
    workers, which all share one cache directory.  Backed by ``flock`` on a
    ``.lock`` sentinel file; a fresh handle is opened per acquisition so the
    lock is also safe to take from multiple threads of one process (POSIX
    ``flock`` is per-open-file-description).  Degrades to a no-op when the
    cache is memory-only or the platform has no ``fcntl`` -- single-process
    behaviour is then unchanged.
    """

    def __init__(self, directory: Path | None) -> None:
        self.path = directory / ".lock" if directory is not None else None
        self._local = threading.local()

    def __enter__(self) -> "_DirectoryLock":
        self._local.handle = None
        if self.path is not None and fcntl is not None:
            try:
                handle = open(self.path, "a")
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                self._local.handle = handle
            except OSError:  # pragma: no cover - unwritable directory
                pass  # proceed unlocked; atomic renames still keep files whole
        return self

    def __exit__(self, *exc_info) -> None:
        handle = getattr(self._local, "handle", None)
        if handle is not None:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - defensive
                pass
            handle.close()
            self._local.handle = None


def result_to_payload(result: RoutingResult) -> dict:
    """Flatten a solved :class:`RoutingResult` to a JSON-serialisable dict."""
    if result.routed_circuit is None:
        raise ValueError("only results with a routed circuit can be serialised")
    return {
        "version": CACHE_FORMAT_VERSION,
        "status": result.status.value,
        "router_name": result.router_name,
        "circuit_name": result.circuit_name,
        "initial_mapping": {str(k): v for k, v in result.initial_mapping.items()},
        "final_mapping": {str(k): v for k, v in result.final_mapping.items()},
        "routed_qasm": circuit_to_qasm(result.routed_circuit),
        "routed_num_qubits": result.routed_circuit.num_qubits,
        "swap_count": result.swap_count,
        "solve_time": result.solve_time,
        "sat_calls": result.sat_calls,
        "optimal": result.optimal,
        "num_slices": result.num_slices,
        "objective_value": result.objective_value,
        "notes": result.notes,
        "stage_timings": dict(result.stage_timings),
        "clauses_streamed": result.clauses_streamed,
        "learnt_clauses_retained": result.learnt_clauses_retained,
        "solver_stats": {str(k): (str(v) if k == "backend" else int(v))
                         for k, v in result.solver_stats.items()},
    }


def payload_to_result(payload: dict) -> RoutingResult:
    """Rebuild a :class:`RoutingResult` from :func:`result_to_payload` output.

    Raises on malformed payloads; callers treat any exception as a miss.
    """
    if payload.get("version") != CACHE_FORMAT_VERSION:
        raise ValueError(f"cache format version mismatch: {payload.get('version')}")
    routed = parse_qasm(payload["routed_qasm"], name=payload["circuit_name"])
    return RoutingResult(
        status=RoutingStatus(payload["status"]),
        router_name=payload["router_name"],
        circuit_name=payload["circuit_name"],
        initial_mapping={int(k): int(v) for k, v in payload["initial_mapping"].items()},
        final_mapping={int(k): int(v) for k, v in payload["final_mapping"].items()},
        routed_circuit=routed,
        swap_count=int(payload["swap_count"]),
        solve_time=float(payload["solve_time"]),
        sat_calls=int(payload.get("sat_calls", 0)),
        optimal=bool(payload["optimal"]),
        num_slices=int(payload.get("num_slices", 1)),
        objective_value=payload.get("objective_value"),
        notes=payload.get("notes", ""),
        stage_timings={str(stage): float(seconds) for stage, seconds
                       in payload.get("stage_timings", {}).items()},
        clauses_streamed=int(payload.get("clauses_streamed", 0)),
        learnt_clauses_retained=int(payload.get("learnt_clauses_retained", 0)),
        solver_stats={str(counter): (str(value) if counter == "backend"
                                     else int(value))
                      for counter, value
                      in payload.get("solver_stats", {}).items()},
    )


def verify_cached_result(job: RoutingJob, result: RoutingResult) -> bool:
    """Re-check a result against its job with the independent verifier.

    Returns ``True`` only if the routed circuit is a valid routing of the
    job's circuit on the job's architecture *and* the recorded swap count
    equals what the verifier counts.
    """
    if not result.solved or result.routed_circuit is None:
        return False
    try:
        counted = verify_routing(job.circuit(), result.routed_circuit,
                                 result.initial_mapping, job.architecture())
    except Exception:
        return False
    return counted == result.swap_count


class ResultCache:
    """In-memory + on-disk content-addressed store of verified results.

    Parameters
    ----------
    directory:
        Where on-disk entries live; ``None`` keeps the cache memory-only.
    max_bytes:
        Upper bound on the total serialised size of the store.  When a
        ``put`` pushes the store over the limit, least-recently-used entries
        are evicted (memory and disk) until it fits again; the most recently
        stored entry always survives, even if it alone exceeds the budget.
        ``None`` (the default) keeps the store unbounded.  Recency is the
        last hit or store; for disk entries written by other processes it
        falls back to the file's mtime, which ``get`` refreshes on a hit, so
        the LRU order also holds across server restarts.
    owner:
        Optional writer identity (the fleet uses ``"shard-<k>"``) stamped
        into every stored payload as ``stored_by`` -- provenance for a disk
        directory shared by many processes.  Readers ignore the stamp.

    The disk layer is safe to share between processes: entries are written
    to a unique temp file and atomically renamed into place, and writers
    (including the LRU eviction scan) serialise through an exclusive
    ``flock`` on the directory's ``.lock`` file.
    """

    def __init__(self, directory: str | Path | None = None,
                 max_bytes: int | None = None,
                 owner: str | None = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None for unbounded)")
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.owner = owner
        self._lock = _DirectoryLock(self.directory)
        self._memory: dict[str, dict] = {}
        self._recency: dict[str, float] = {}  # key -> last hit/store timestamp
        self._sizes: dict[str, int] = {}  # serialised bytes per memory entry
        # Running byte total so the common paths (stores under budget,
        # stats/metrics scrapes) are O(1); seeded from disk once here and
        # resynced by a full scan whenever the budget is actually exceeded,
        # which also picks up entries other processes wrote meanwhile.
        self._total_bytes = 0
        if self.directory is not None:
            for path in self.directory.glob("*.json"):
                try:
                    self._total_bytes += path.stat().st_size
                except OSError:  # pragma: no cover - racing deletion
                    pass
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.rejected = 0  # entries that failed deserialisation or verification
        self.evictions = 0  # entries dropped to stay under max_bytes

    # -------------------------------------------------------------- helpers

    def _path_for(self, key: str) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"{key}.json"

    def _load_payload(self, key: str) -> dict | None:
        payload = self._memory.get(key)
        if payload is not None:
            return payload
        path = self._path_for(key)
        if path is None or not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return payload

    def _evict(self, key: str) -> None:
        size = self._sizes.pop(key, None)
        self._memory.pop(key, None)
        self._recency.pop(key, None)
        path = self._path_for(key)
        if path is not None and path.exists():
            if size is None:
                try:
                    size = path.stat().st_size
                except OSError:  # pragma: no cover - racing deletion
                    size = None
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        self._total_bytes = max(0, self._total_bytes - (size or 0))

    def _touch(self, key: str) -> None:
        """Mark ``key`` as most recently used (memory clock + file mtime)."""
        self._recency[key] = time.time()
        path = self._path_for(key)
        if path is not None and path.exists():
            try:
                os.utime(path)
            except OSError:  # pragma: no cover - best-effort bookkeeping
                pass

    def _entry_inventory(self) -> dict[str, tuple[float, int]]:
        """Every known entry as ``key -> (recency, serialised bytes)``.

        Iterates over snapshots of the internal dicts: the server's metrics
        endpoint reads this from the event-loop thread while a worker thread
        may be storing results.
        """
        inventory: dict[str, tuple[float, int]] = {}
        if self.directory is not None:
            for path in list(self.directory.glob("*.json")):
                try:
                    stat = path.stat()
                except OSError:  # pragma: no cover - racing deletion
                    continue
                key = path.stem
                inventory[key] = (self._recency.get(key, stat.st_mtime),
                                  stat.st_size)
        for key, payload in list(self._memory.items()):
            if key not in inventory:
                if key not in self._sizes:
                    self._sizes[key] = len(json.dumps(payload, sort_keys=True))
                inventory[key] = (self._recency.get(key, 0.0), self._sizes[key])
        return inventory

    def total_bytes(self) -> int:
        """Total serialised size of the store, from the running counter."""
        return self._total_bytes

    def _enforce_budget(self) -> None:
        """Evict least-recently-used entries until the store fits max_bytes.

        The most recently used entry is never evicted, so a single oversized
        result still lands in the cache instead of thrashing forever.  The
        O(1) running total gates the check; the full directory scan (which
        also resyncs the counter against other writers) only happens when
        the budget is actually exceeded.
        """
        if self.max_bytes is None or self._total_bytes <= self.max_bytes:
            return
        inventory = self._entry_inventory()
        self._total_bytes = sum(size for _, size in inventory.values())
        if self._total_bytes <= self.max_bytes:
            return
        by_age = sorted(inventory, key=lambda key: inventory[key][0])
        for key in by_age[:-1]:  # keep the newest entry no matter what
            if self._total_bytes <= self.max_bytes:
                break
            self._evict(key)  # maintains the running total
            self.evictions += 1

    # ------------------------------------------------------------------ API

    def get(self, job: RoutingJob) -> RoutingResult | None:
        """Return the verified cached result for ``job``, or ``None``.

        Any failure along the way -- unreadable file, malformed payload,
        verification failure -- evicts the entry and counts as a miss.
        """
        key = job.content_hash()
        payload = self._load_payload(key)
        if payload is None:
            self.misses += 1
            return None
        try:
            result = payload_to_result(payload)
        except Exception:
            self.rejected += 1
            self.misses += 1
            self._evict(key)
            return None
        if not verify_cached_result(job, result):
            self.rejected += 1
            self.misses += 1
            self._evict(key)
            return None
        self._memory.setdefault(key, payload)
        self._touch(key)
        self.hits += 1
        result.notes = (result.notes + "; " if result.notes else "") + "cache-hit"
        return result

    def put(self, job: RoutingJob, result: RoutingResult) -> bool:
        """Store a result after verifying it; returns whether it was stored.

        Unsolved results and results that fail the independent verifier are
        refused (counted in ``rejected``) -- the cache only ever serves
        answers that have been checked against the job they claim to solve.
        """
        if not verify_cached_result(job, result):
            self.rejected += 1
            return False
        key = job.content_hash()
        payload = result_to_payload(result)
        if self.owner is not None:
            payload["stored_by"] = self.owner
        self._memory[key] = payload
        serialised = json.dumps(payload, sort_keys=True, indent=1)
        old_size = self._sizes.get(key)
        if old_size is None and self.directory is not None:
            # overwriting an entry this instance never measured (written by
            # an earlier process): account for the bytes it replaces
            path = self._path_for(key)
            try:
                old_size = path.stat().st_size if path.exists() else None
            except OSError:  # pragma: no cover - racing deletion
                old_size = None
        self._sizes[key] = len(serialised)
        self._total_bytes += len(serialised) - (old_size or 0)
        path = self._path_for(key)
        with self._lock:
            if path is not None:
                # Unique temp name per writer: two processes storing the same
                # key must never truncate each other's half-written file, and
                # os.replace makes the final entry appear atomically.
                tmp = path.parent / (f".{key}.{os.getpid()}."
                                     f"{threading.get_ident()}.tmp")
                try:
                    tmp.write_text(serialised)
                    os.replace(tmp, path)
                except OSError:
                    # a full disk or vanished cache dir must not fail the
                    # batch; the entry still lives in the memory layer
                    try:
                        tmp.unlink()
                    except OSError:
                        pass
            self.stores += 1
            self._touch(key)
            # Inside the directory lock: two shards over budget at once must
            # not scan-and-evict concurrently, or both could delete the other
            # writer's freshest entries mid-rename.
            self._enforce_budget()
        return True

    def __contains__(self, job: RoutingJob) -> bool:
        return self._load_payload(job.content_hash()) is not None

    def __len__(self) -> int:
        keys = set(self._memory)
        if self.directory is not None:
            keys.update(p.stem for p in self.directory.glob("*.json"))
        return len(keys)

    def clear_memory(self) -> None:
        """Drop the in-memory layer (disk entries survive); used in tests."""
        self._memory.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "rejected": self.rejected,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "entries": len(self),
            "total_bytes": self._total_bytes,
            "max_bytes": self.max_bytes if self.max_bytes is not None else 0,
        }
