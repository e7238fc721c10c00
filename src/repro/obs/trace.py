"""Nested spans, tracers, and cross-process span context.

A :class:`Span` is one timed region of a job's life: it has a name, a
wall-clock start, a duration measured on the monotonic clock, free-form
attributes (SAT counters, swap counts, router names), and children.  A
:class:`Tracer` assembles spans into per-job trees and keeps the most recent
finished trees in a bounded store.

Two propagation mechanisms cover the whole pipeline:

* **In-process** -- :func:`activate` installs a tracer in a
  :class:`contextvars.ContextVar`, and the module-level :func:`span` /
  :func:`record` / :func:`add_attributes` helpers attach to the active
  tracer's current span.  When no tracer is active they are no-ops (a single
  context-variable read), so instrumented library code costs nothing in
  untraced runs.
* **Cross-process** -- a span's :meth:`Span.context` is a small dict
  (``trace_id`` + ``span_id``) that survives pickling inside a job payload.
  The worker builds its own subtree under a fresh tracer, serialises it with
  :meth:`Span.to_dict`, and the parent process grafts it back with
  :meth:`Tracer.attach_tree`.  Wall-clock starts come from ``time.time()``
  (one machine-wide clock, comparable across processes); durations come from
  ``time.monotonic()`` differences, so spans never go negative when NTP
  steps the wall clock.

:func:`validate_trace` checks the structural invariant the CI smoke gate
relies on -- every child interval nests inside its parent's -- and
:func:`render_trace` prints the indented tree ``repro trace`` shows.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = [
    "Span",
    "Tracer",
    "activate",
    "add_attributes",
    "current_tracer",
    "current_span",
    "find_span",
    "record",
    "render_trace",
    "span",
    "span_names",
    "validate_trace",
]

#: Process-unique id prefix: spans minted by different processes (pool
#: workers) must never collide when grafted into one tree.
_ID_PREFIX = f"{os.getpid():x}"
_ID_COUNTER = itertools.count(1)


def _new_id() -> str:
    return f"{_ID_PREFIX}-{next(_ID_COUNTER):x}"


class Span:
    """One timed, attributed, nestable region of work.

    ``start`` is wall-clock epoch seconds (``time.time()``); ``duration`` is
    seconds measured from the monotonic clock.  A span is *open* until
    :meth:`finish` stamps its duration.
    """

    __slots__ = ("name", "trace_id", "span_id", "start", "duration",
                 "attributes", "children", "_mono_start")

    def __init__(self, name: str, trace_id: str | None = None,
                 span_id: str | None = None, start: float | None = None,
                 duration: float | None = None, attributes: dict | None = None,
                 ) -> None:
        self.name = name
        self.trace_id = trace_id or _new_id()
        self.span_id = span_id or _new_id()
        now = time.time()
        self.start = now if start is None else float(start)
        self.duration = duration
        self.attributes: dict = dict(attributes or {})
        self.children: list[Span] = []
        # A span opened with an explicit earlier start (the gateway stamps
        # roots with the request arrival time) anchors its monotonic base
        # back by the same offset, so finish() measures from that start.
        self._mono_start = time.monotonic() - max(0.0, now - self.start)

    # ------------------------------------------------------------- lifecycle

    def finish(self, **attributes) -> "Span":
        """Stamp the duration (idempotent) and merge final attributes."""
        if self.duration is None:
            self.duration = time.monotonic() - self._mono_start
        if attributes:
            self.attributes.update(attributes)
        return self

    def set(self, **attributes) -> "Span":
        """Merge attributes into the span."""
        self.attributes.update(attributes)
        return self

    def add_child(self, child: "Span") -> "Span":
        child.trace_id = self.trace_id
        self.children.append(child)
        return child

    # --------------------------------------------------------------- queries

    @property
    def end(self) -> float:
        """Wall-clock end; open spans report their start."""
        return self.start + (self.duration or 0.0)

    @property
    def finished(self) -> bool:
        return self.duration is not None

    def context(self) -> dict:
        """The serialisable propagation context for this span."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def walk(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in list(self.children):
            yield from child.walk()

    def find(self, span_id: str) -> "Span | None":
        for candidate in self.walk():
            if candidate.span_id == span_id:
                return candidate
        return None

    # --------------------------------------------------------- serialisation

    def to_dict(self) -> dict:
        """Recursive plain-data form (JSON-serialisable)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in list(self.children)],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        span_obj = cls(
            name=str(payload.get("name", "span")),
            trace_id=payload.get("trace_id"),
            span_id=payload.get("span_id"),
            start=float(payload.get("start", 0.0)),
            duration=payload.get("duration"),
            attributes=payload.get("attributes") or {},
        )
        for child in payload.get("children", []):
            span_obj.children.append(cls.from_dict(child))
        return span_obj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration:.6f}s" if self.finished else "open"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class Tracer:
    """Builds span trees and stores the most recent finished traces.

    The tracer is thread-safe at the level the gateway needs: the asyncio
    loop thread reads (``/metrics``, ``/v1/jobs/<id>/trace``) while one
    executor thread writes.  The per-thread *current span* stack backs the
    context-manager API; explicit-parent calls bypass it, which is what the
    batch service uses when several jobs' spans interleave in one thread.
    """

    def __init__(self, max_traces: int = 512) -> None:
        self.max_traces = max(1, max_traces)
        self._traces: dict[str, Span] = {}
        self._order: list[str] = []
        self._lock = threading.Lock()
        self._stack = threading.local()

    # ----------------------------------------------------------- span store

    def _register(self, root: Span) -> None:
        with self._lock:
            if root.trace_id in self._traces:
                return
            self._traces[root.trace_id] = root
            self._order.append(root.trace_id)
            while len(self._order) > self.max_traces:
                dropped = self._order.pop(0)
                self._traces.pop(dropped, None)

    def get(self, trace_id: str) -> Span | None:
        with self._lock:
            return self._traces.get(trace_id)

    def discard(self, trace_id: str) -> bool:
        """Drop a stored root (tail sampling evicts unsampled traces)."""
        with self._lock:
            if trace_id not in self._traces:
                return False
            del self._traces[trace_id]
            try:
                self._order.remove(trace_id)
            except ValueError:  # pragma: no cover - defensive
                pass
            return True

    def traces(self) -> list[Span]:
        """Stored roots, oldest first."""
        with self._lock:
            return [self._traces[tid] for tid in self._order
                    if tid in self._traces]

    def latest(self, name: str | None = None, **attr_filter) -> Span | None:
        """Most recent stored root matching ``name`` and attribute equality."""
        for root in reversed(self.traces()):
            if name is not None and root.name != name:
                continue
            if all(root.attributes.get(key) == value
                   for key, value in attr_filter.items()):
                return root
        return None

    # -------------------------------------------------------- span creation

    def start_trace(self, name: str, trace_id: str | None = None,
                    start: float | None = None, **attributes) -> Span:
        """Create, register, and return a new root span."""
        root = Span(name, trace_id=trace_id, start=start,
                    attributes=attributes)
        self._register(root)
        return root

    def start_span(self, name: str, parent: Span, start: float | None = None,
                   **attributes) -> Span:
        """Create an open child span under an explicit parent."""
        child = Span(name, trace_id=parent.trace_id, start=start,
                     attributes=attributes)
        with self._lock:
            parent.children.append(child)
        return child

    def record(self, name: str, parent: Span, start: float,
               duration: float, **attributes) -> Span:
        """Attach an already-measured (closed) span under ``parent``."""
        child = Span(name, trace_id=parent.trace_id, start=start,
                     duration=max(0.0, float(duration)),
                     attributes=attributes)
        with self._lock:
            parent.children.append(child)
        return child

    def attach_tree(self, tree: dict, trace_id: str | None = None,
                    parent_span_id: str | None = None) -> Span | None:
        """Graft a serialised subtree (a worker's) into a stored trace.

        Returns the attached :class:`Span`, or ``None`` when the target
        trace/parent is unknown (the subtree is then silently dropped --
        tracing must never fail a job).
        """
        subtree = Span.from_dict(tree)
        trace_id = trace_id or subtree.trace_id
        root = self.get(trace_id)
        if root is None:
            return None
        with self._lock:
            parent = root.find(parent_span_id) if parent_span_id else root
            if parent is None:
                parent = root
            subtree.trace_id = root.trace_id
            parent.children.append(subtree)
        return subtree

    # -------------------------------------------------- thread-current stack

    def _current_stack(self) -> list[Span]:
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = []
            self._stack.spans = stack
        return stack

    def current_span(self) -> Span | None:
        stack = self._current_stack()
        return stack[-1] if stack else None

    def push(self, span_obj: Span) -> None:
        """Make ``span_obj`` the thread's current span (for nested helpers)."""
        self._current_stack().append(span_obj)

    def pop(self, span_obj: Span) -> None:
        stack = self._current_stack()
        if stack and stack[-1] is span_obj:
            stack.pop()

    @contextmanager
    def span(self, name: str, parent: Span | None = None, **attributes):
        """Open a span as the thread's current; finish it on exit.

        With no explicit ``parent``, the span attaches under the current one
        (and becomes a new root trace if there is none).
        """
        parent = parent if parent is not None else self.current_span()
        if parent is None:
            child = self.start_trace(name, **attributes)
        else:
            child = self.start_span(name, parent, **attributes)
        self.push(child)
        try:
            yield child
        finally:
            child.finish()
            self.pop(child)


# ------------------------------------------------------------ active tracer

#: The active tracer for the current thread/context.  ``ContextVar`` values
#: are per-thread (each pool thread sees its own), which is exactly the
#: isolation a thread-mode worker pool needs.
_ACTIVE: ContextVar[Tracer | None] = ContextVar("repro_obs_tracer",
                                               default=None)


def current_tracer() -> Tracer | None:
    """The tracer installed by :func:`activate`, or ``None``."""
    return _ACTIVE.get()


def current_span() -> Span | None:
    tracer = _ACTIVE.get()
    return tracer.current_span() if tracer is not None else None


@contextmanager
def activate(tracer: Tracer, root: Span | None = None):
    """Install ``tracer`` (and optionally ``root`` as current) for the block."""
    token = _ACTIVE.set(tracer)
    if root is not None:
        tracer.push(root)
    try:
        yield tracer
    finally:
        if root is not None:
            tracer.pop(root)
        _ACTIVE.reset(token)


class _NoopSpan:
    """Inert stand-in so ``with span(...) as s: s.set(...)`` always works."""

    __slots__ = ()

    def set(self, **attributes) -> "_NoopSpan":
        return self

    def finish(self, **attributes) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


@contextmanager
def _noop_cm():
    yield _NOOP_SPAN


def span(name: str, **attributes):
    """Context manager: a child span of the current one, if tracing is on."""
    tracer = _ACTIVE.get()
    if tracer is None or tracer.current_span() is None:
        return _noop_cm()
    return tracer.span(name, **attributes)


def record(name: str, start: float, duration: float, **attributes) -> None:
    """Attach a closed span under the current one, if tracing is on."""
    tracer = _ACTIVE.get()
    if tracer is None:
        return
    parent = tracer.current_span()
    if parent is None:
        return
    tracer.record(name, parent, start, duration, **attributes)


def add_attributes(**attributes) -> None:
    """Merge attributes into the current span, if tracing is on."""
    tracer = _ACTIVE.get()
    if tracer is None:
        return
    parent = tracer.current_span()
    if parent is not None:
        parent.set(**attributes)


# --------------------------------------------------------------- tree tools

def _as_dict(tree: "Span | dict") -> dict:
    return tree.to_dict() if isinstance(tree, Span) else tree


def find_span(tree: "Span | dict", name: str) -> dict | None:
    """First span named ``name`` in the (serialised) tree, depth first."""
    payload = _as_dict(tree)
    if payload.get("name") == name:
        return payload
    for child in payload.get("children", []):
        found = find_span(child, name)
        if found is not None:
            return found
    return None


def span_names(tree: "Span | dict") -> list[str]:
    """Every span name in the tree, depth first (duplicates preserved)."""
    payload = _as_dict(tree)
    names = [payload.get("name", "")]
    for child in payload.get("children", []):
        names.extend(span_names(child))
    return names


def validate_trace(tree: "Span | dict", epsilon: float = 0.05) -> list[str]:
    """Structural problems of a finished trace tree (empty list = valid).

    Checks that every span is finished with a non-negative duration and that
    every child's ``[start, end]`` interval nests inside its parent's,
    within ``epsilon`` seconds of slack (two processes timestamp against the
    same system clock, but context switches between taking the wall-clock
    and monotonic readings make exact equality too strict).
    """
    problems: list[str] = []

    def visit(payload: dict, path: str) -> None:
        name = payload.get("name", "?")
        label = f"{path}/{name}"
        duration = payload.get("duration")
        if duration is None:
            problems.append(f"{label}: span is not finished")
            duration = 0.0
        elif duration < 0:
            problems.append(f"{label}: negative duration {duration}")
        start = float(payload.get("start", 0.0))
        end = start + float(duration or 0.0)
        for child in payload.get("children", []):
            child_start = float(child.get("start", 0.0))
            child_end = child_start + float(child.get("duration") or 0.0)
            child_name = child.get("name", "?")
            if child_start < start - epsilon:
                problems.append(
                    f"{label}: child {child_name!r} starts "
                    f"{start - child_start:.6f}s before its parent")
            if child_end > end + epsilon:
                problems.append(
                    f"{label}: child {child_name!r} ends "
                    f"{child_end - end:.6f}s after its parent")
            visit(child, label)

    visit(_as_dict(tree), "")
    return problems


#: Attribute keys surfaced inline by the renderer, in display order.
_RENDER_ATTRS = ("status", "router", "strategy", "slice", "iteration",
                 "swaps", "conflicts", "propagations", "decisions",
                 "restarts", "learnt_retained", "clauses_streamed",
                 "cache_hit", "dedup", "solved")


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_trace(tree: "Span | dict", indent: str = "  ",
                 slow_threshold: float | None = None) -> str:
    """Human-readable indented tree with durations and key attributes.

    Each finished span also shows its share of the root's duration, so the
    bottleneck stage is visible without manual division.  With a
    ``slow_threshold`` (seconds), spans at or over it are flagged ``!slow``
    -- ``repro trace --slow-ms`` drives this.
    """
    root = _as_dict(tree)
    root_duration = root.get("duration") or 0.0
    lines: list[str] = []

    def visit(payload: dict, depth: int) -> None:
        duration = payload.get("duration")
        if duration is not None:
            timing = f"{duration * 1000.0:10.3f} ms"
            share = (f"{100.0 * duration / root_duration:5.1f}%"
                     if root_duration > 0 else "     -")
        else:
            timing = "      open"
            share = "     -"
        attrs = payload.get("attributes") or {}
        shown = [f"{key}={_format_value(attrs[key])}"
                 for key in _RENDER_ATTRS if key in attrs]
        extra = [f"{key}={_format_value(value)}"
                 for key, value in sorted(attrs.items())
                 if key not in _RENDER_ATTRS]
        detail = " ".join(shown + extra)
        line = (f"{timing} {share}  {indent * depth}{payload.get('name', '?')}"
                + (f"  [{detail}]" if detail else ""))
        if (slow_threshold is not None and duration is not None
                and duration >= slow_threshold):
            line += "  !slow"
        lines.append(line)
        for child in payload.get("children", []):
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def trace_to_jsonl(tree: "Span | dict") -> str:
    """One-line JSON form of a trace tree (what the JSONL writer appends)."""
    return json.dumps(_as_dict(tree), sort_keys=True, separators=(",", ":"))
