"""Structured operational event logging: leveled, field-typed JSONL.

An :class:`EventLog` replaces ad-hoc prints with queryable records: every
job failure, worker restart, cache eviction, and admission rejection
becomes one JSON object with a level, a wall-clock timestamp, typed fields,
and -- when a span is active on the calling thread -- the trace/span ids
that correlate the event to its trace.  Records land in a bounded
in-memory ring (served at ``/v1/events``) and, when a directory is given,
in size-rotated JSONL files via :class:`~repro.obs.export.JsonlWriter`
(per-``owner`` filenames, so a fleet shares one ``--events-dir`` safely).
Every emit is counted per ``(level, event)`` before the level filter, so a
log set to ``info`` still counts the debug-level job lifecycle steps the
batch service emits without keeping them.

Emitting is cheap and never raises into the caller: a failing file sink
disables itself and counts the failure rather than aborting the job that
triggered the event.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from pathlib import Path

from repro.obs.export import JsonlWriter, read_jsonl
from repro.obs.trace import current_span

__all__ = ["EventLog", "LEVELS", "read_events"]

#: Severity order; emit() counts but does not keep levels below the threshold.
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def _coerce(value):
    """Force a field value to a JSON scalar (field-typed, never lossy-crashy)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


class EventLog:
    """Bounded in-memory event ring with an optional rotating JSONL sink.

    Parameters
    ----------
    directory:
        When set, events append to ``events.jsonl`` under it (size-rotated;
        see :class:`~repro.obs.export.JsonlWriter`).  ``None`` keeps events
        in memory only.
    owner:
        Per-writer tag for shared directories (fleet workers pass
        ``shard-N``, the dispatcher ``dispatcher``).
    level:
        Minimum severity kept in the ring and the sink (``debug`` keeps
        everything); lower levels are still counted.
    max_events:
        In-memory ring capacity; the file sink is unaffected.
    """

    def __init__(self, directory: str | Path | None = None,
                 filename: str = "events.jsonl",
                 max_bytes: int = 16 * 1024 * 1024,
                 owner: str | None = None, level: str = "debug",
                 max_events: int = 2048, clock=time.time) -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}; "
                             f"pick one of {sorted(LEVELS)}")
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self.level = level
        self.owner = owner
        self._clock = clock
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=max_events)
        #: Emitted events per (level, event) pair, kept or not; exact
        #: despite eviction.
        self.counts: dict[tuple[str, str], int] = {}
        self.dropped = 0  # below-threshold emits (counted, not kept)
        self.sink_errors = 0
        self._sink = (JsonlWriter(directory, filename=filename,
                                  max_bytes=max_bytes, owner=owner)
                      if directory is not None else None)

    @property
    def path(self) -> Path | None:
        return self._sink.path if self._sink is not None else None

    # -------------------------------------------------------------- emitting

    def emit(self, event: str, level: str = "info", **fields) -> dict | None:
        """Count one event and keep it; returns the record, or ``None`` if
        it is below the log's level (counted, but not kept).

        The active span (if any) stamps ``trace_id``/``span_id`` onto the
        record so ``repro trace`` and the event stream cross-reference;
        explicit ``trace_id=...`` fields win over the ambient span.
        """
        severity = LEVELS.get(level)
        if severity is None:
            raise ValueError(f"unknown level {level!r}")
        with self._lock:
            key = (level, event)
            self.counts[key] = self.counts.get(key, 0) + 1
            if severity < LEVELS[self.level]:
                self.dropped += 1
                return None
        record = {"ts": self._clock(), "level": level, "event": event,
                  "pid": os.getpid()}
        if self.owner is not None:
            record["owner"] = self.owner
        span = current_span()
        if span is not None:
            record["trace_id"] = span.trace_id
            record["span_id"] = span.span_id
        for key, value in fields.items():
            record[key] = _coerce(value)
        with self._lock:
            self._ring.append(record)
        if self._sink is not None:
            try:
                self._sink.write_record(record)
            except OSError:
                # A full or vanished disk must not fail the job that was
                # merely being narrated; keep the ring, drop the sink.
                self.sink_errors += 1
                self._sink = None
        return record

    # --------------------------------------------------------------- queries

    def tail(self, limit: int = 50, level: str | None = None,
             event: str | None = None) -> list[dict]:
        """Most recent matching events, oldest first."""
        if level is not None and level not in LEVELS:
            raise ValueError(f"unknown level {level!r}")
        floor = LEVELS[level] if level is not None else 0
        with self._lock:
            records = list(self._ring)
        matching = [record for record in records
                    if LEVELS[record["level"]] >= floor
                    and (event is None or record["event"] == event)]
        return matching[-limit:] if limit > 0 else []

    def counts_by_level(self) -> dict[str, int]:
        with self._lock:
            totals: dict[str, int] = {}
            for (level, _), count in self.counts.items():
                totals[level] = totals.get(level, 0) + count
        return totals

    def counts_by_event(self) -> dict[str, int]:
        with self._lock:
            totals: dict[str, int] = {}
            for (_, event), count in self.counts.items():
                totals[event] = totals.get(event, 0) + count
        return totals

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


def read_events(directory: str | Path,
                filename: str = "events.jsonl") -> list[dict]:
    """Load every event record any log left under ``directory``."""
    return read_jsonl(directory, filename)
