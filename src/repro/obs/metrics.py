"""Counters, gauges, and fixed-bucket histograms with Prometheus exposition.

The server's ``/metrics`` endpoint renders one :class:`MetricsRegistry`:
the batch service's per-job histograms live on it, and the gateway's own
counters are instruments on it from the start, so ``/v1/stats`` and
``/metrics`` read the same values.  Instruments are
created (or looked up) with :meth:`MetricsRegistry.counter` /
:meth:`~MetricsRegistry.gauge` / :meth:`~MetricsRegistry.histogram`; the
registry renders the whole collection as Prometheus text exposition format
(``# HELP`` / ``# TYPE`` pairs, escaped label values, cumulative
``_bucket{le=...}`` lines ending in ``+Inf``, then ``_sum`` and ``_count``).

Everything is plain Python with a lock per instrument -- no third-party
client library, matching the repository's stdlib-only rule.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
    "format_value",
    "quantile_from_counts",
    "render_families",
]

#: Latency-style buckets (seconds): sub-millisecond ticks through the
#: multi-minute budgets the routers run under.
DEFAULT_SECONDS_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5,
                           1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)

#: Count-style buckets (conflicts, propagations per solve): powers of ten
#: with a mid-decade step.
DEFAULT_COUNT_BUCKETS = (0.0, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0,
                         1000.0, 5000.0, 10000.0, 50000.0, 100000.0,
                         500000.0, 1000000.0)


def format_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``.

    The existing gateway tests assert exact substrings like
    ``repro_cache_stores_total 1``, so whole numbers must not grow a
    decimal point when they move onto the registry.
    """
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def quantile_from_counts(bounds: tuple[float, ...], counts: list[int],
                         q: float) -> float | None:
    """Estimate quantile ``q`` from per-bucket counts over fixed ``bounds``.

    ``counts`` has ``len(bounds) + 1`` slots: one per finite bound plus the
    overflow bucket.  The estimate interpolates linearly within the bucket
    the target rank lands in (the Prometheus ``histogram_quantile``
    convention), with the first bucket anchored at ``min(0, bounds[0])``.
    Ranks landing in the overflow bucket clamp to the highest finite bound
    -- there is no upper edge to interpolate toward.  Returns ``None`` when
    the histogram is empty.

    Shared by :meth:`Histogram.quantile`, the SLO tracker, and the ``repro
    top`` dashboard, so every layer reports the same numbers for the same
    buckets.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    running = 0.0
    for index, bound in enumerate(bounds):
        count = counts[index]
        if count and running + count >= rank:
            lower = bounds[index - 1] if index > 0 else min(0.0, bound)
            fraction = (rank - running) / count
            return lower + (bound - lower) * max(0.0, fraction)
        running += count
    return bounds[-1]


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format spec."""
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def escape_help(text: str) -> str:
    """Escape HELP text (backslash and newline only; quotes stay)."""
    return str(text).replace("\\", r"\\").replace("\n", r"\n")


def _render_labels(labels: dict | None) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{escape_label_value(value)}"'
                     for key, value in labels.items())
    return "{" + inner + "}"


def _labels_key(labels: dict | None) -> tuple:
    return tuple(sorted((labels or {}).items()))


class _Instrument:
    """Shared name/help/type plumbing for the three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help or name
        self._lock = threading.Lock()

    def render(self) -> list[str]:
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing counter with optional label sets."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[tuple, float] = {}
        self._labels: dict[tuple, dict] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _labels_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount
            self._labels.setdefault(key, dict(labels))

    def set_total(self, value: float, **labels) -> None:
        """Overwrite the running total (for mirroring an external count)."""
        key = _labels_key(labels)
        with self._lock:
            self._values[key] = float(value)
            self._labels.setdefault(key, dict(labels))

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_labels_key(labels), 0.0)

    def total(self) -> float:
        """The count summed over every label set."""
        with self._lock:
            return sum(self._values.values())

    def render(self) -> list[str]:
        with self._lock:
            items = [(self._labels[key], value)
                     for key, value in sorted(self._values.items())]
        if not items:
            items = [({}, 0.0)]
        return [f"{self.name}{_render_labels(labels)} {format_value(value)}"
                for labels, value in items]


class Gauge(_Instrument):
    """A value that can go up and down (queue depth, cache bytes)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[tuple, float] = {}
        self._labels: dict[tuple, dict] = {}
        self._callback = None

    def set(self, value: float, **labels) -> None:
        key = _labels_key(labels)
        with self._lock:
            self._values[key] = float(value)
            self._labels.setdefault(key, dict(labels))

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _labels_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount
            self._labels.setdefault(key, dict(labels))

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def set_function(self, callback) -> None:
        """Sample ``callback()`` at render time (unlabeled gauges only)."""
        self._callback = callback

    def value(self, **labels) -> float:
        if self._callback is not None and not labels:
            return float(self._callback())
        with self._lock:
            return self._values.get(_labels_key(labels), 0.0)

    def render(self) -> list[str]:
        if self._callback is not None:
            return [f"{self.name} {format_value(float(self._callback()))}"]
        with self._lock:
            items = [(self._labels[key], value)
                     for key, value in sorted(self._values.items())]
        if not items:
            items = [({}, 0.0)]
        return [f"{self.name}{_render_labels(labels)} {format_value(value)}"
                for labels, value in items]


class _HistogramSeries:
    """Per-labelset bucket counts (stored per-bucket, rendered cumulative)."""

    __slots__ = ("labels", "counts", "sum", "count")

    def __init__(self, labels: dict, num_bounds: int) -> None:
        self.labels = labels
        self.counts = [0] * (num_bounds + 1)  # last slot = > max bound
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Fixed-bucket histogram with cumulative Prometheus rendering.

    Observations may carry labels (``observe(1.2, stage="encode")``); each
    distinct labelset is its own series sharing the family's bucket bounds.
    Rendered buckets are *cumulative* (each ``le`` line counts every
    observation ``<=`` its bound, ending with ``+Inf`` == ``_count``),
    followed by per-series ``_sum`` and ``_count``.  A histogram with no
    observations still renders one empty unlabeled series, so registered
    families are always present in the exposition.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("duplicate bucket bounds")
        self.bounds = bounds
        self._series: dict[tuple, _HistogramSeries] = {}

    def _series_for(self, labels: dict) -> _HistogramSeries:
        if "le" in labels:
            raise ValueError("'le' is reserved for the bucket label")
        key = _labels_key(labels)
        series = self._series.get(key)
        if series is None:
            series = _HistogramSeries(dict(labels), len(self.bounds))
            self._series[key] = series
        return series

    def observe(self, value: float, **labels) -> None:
        value = float(value)
        with self._lock:
            series = self._series_for(labels)
            series.sum += value
            series.count += 1
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    series.counts[index] += 1
                    return
            series.counts[-1] += 1

    @property
    def count(self) -> int:
        """Total observations across every series."""
        with self._lock:
            return sum(series.count for series in self._series.values())

    @property
    def sum(self) -> float:
        """Total observed value across every series."""
        with self._lock:
            return sum(series.sum for series in self._series.values())

    def quantile(self, q: float, **labels) -> float | None:
        """Estimate quantile ``q`` by interpolating within bucket bounds.

        With labels, only that series is consulted; without, every series in
        the family is merged first (the family shares one set of bounds, so
        counts sum directly).  Returns ``None`` for an empty histogram.
        """
        with self._lock:
            if labels:
                series = self._series.get(_labels_key(labels))
                counts = (list(series.counts) if series
                          else [0] * (len(self.bounds) + 1))
            else:
                counts = [0] * (len(self.bounds) + 1)
                for series in self._series.values():
                    for index, count in enumerate(series.counts):
                        counts[index] += count
        return quantile_from_counts(self.bounds, counts, q)

    def snapshot(self, **labels) -> dict:
        """Cumulative bucket counts (keyed by ``le``) for one series."""
        with self._lock:
            series = self._series.get(_labels_key(labels))
            counts = list(series.counts) if series else [0] * (len(self.bounds) + 1)
            total = series.count if series else 0
            total_sum = series.sum if series else 0.0
        cumulative: dict[str, int] = {}
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            cumulative[format_value(bound)] = running
        cumulative["+Inf"] = total
        return {"buckets": cumulative, "sum": total_sum, "count": total}

    def render(self) -> list[str]:
        with self._lock:
            all_series = [self._series[key] for key in sorted(self._series)]
        if not all_series:
            all_series = [_HistogramSeries({}, len(self.bounds))]
        lines: list[str] = []
        for series in all_series:
            running = 0
            for bound, count in zip(self.bounds, series.counts):
                running += count
                merged = dict(series.labels)
                merged["le"] = format_value(bound)
                lines.append(f"{self.name}_bucket{_render_labels(merged)} "
                             f"{running}")
            merged = dict(series.labels)
            merged["le"] = "+Inf"
            lines.append(f"{self.name}_bucket{_render_labels(merged)} "
                         f"{series.count}")
            label_text = _render_labels(series.labels)
            lines.append(f"{self.name}_sum{label_text} "
                         f"{format_value(series.sum)}")
            lines.append(f"{self.name}_count{label_text} {series.count}")
        return lines


def render_families(instruments) -> str:
    """Render instruments as exposition text, in the order given."""
    lines: list[str] = []
    for instrument in instruments:
        lines.append(f"# HELP {instrument.name} {escape_help(instrument.help)}")
        lines.append(f"# TYPE {instrument.name} {instrument.kind}")
        lines.extend(instrument.render())
    return "\n".join(lines) + "\n"


class MetricsRegistry:
    """Named instruments rendered together as one exposition document.

    Creation is idempotent: asking for an existing name returns the existing
    instrument (kind mismatches raise).  Registration order is preserved so
    callers can pin, say, an ``_info`` family first.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}")
                return existing
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
                  ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> _Instrument | None:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return list(self._instruments)

    def histograms(self) -> list[Histogram]:
        with self._lock:
            return [inst for inst in self._instruments.values()
                    if isinstance(inst, Histogram)]

    def render(self, first: tuple[str, ...] = ()) -> str:
        """Exposition text; families named in ``first`` lead the document."""
        with self._lock:
            ordered = [self._instruments[name] for name in first
                       if name in self._instruments]
            ordered.extend(inst for name, inst in self._instruments.items()
                           if name not in first)
        return render_families(ordered)
