"""Small statistics helpers: medians, the tail-percentile rule, peak RSS."""

from __future__ import annotations

import math
import os
import statistics
import threading
from pathlib import Path

#: Percentiles the tail rule may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank of percentile ``pct`` among ``count`` samples."""
    # Rounding first keeps 10000 * 99.9 / 100 from ceiling to 9991.
    return min(count, max(1, math.ceil(round(count * pct / 100.0, 6))))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), pct) - 1]


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest ladder percentile
    with at least :data:`MIN_BEYOND` samples beyond it.

    With fewer than ``2 * MIN_BEYOND`` samples no percentile qualifies and
    the median is reported (percentile 50), so the figure never rests on a
    handful of outliers.  Beyond means strictly above the nearest rank.
    """
    values = list(values)
    count = len(values)
    for pct in TAIL_LADDER:
        if count - _rank(count, pct) >= MIN_BEYOND:
            return percentile(values, pct), pct, count
    return median(values), 50.0, count


def _rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants(pid: int) -> list[int]:
    found = []
    stack = [pid]
    while stack:
        current = stack.pop()
        for task in Path(f"/proc/{current}/task").glob("*/children"):
            try:
                children = [int(part) for part in task.read_text().split()]
            except (OSError, ValueError):
                continue
            found.extend(children)
            stack.extend(children)
    return found


class PeakRss:
    """Samples the RSS of this process plus all its descendants.

    The peak of the sum is kept; the process's own ``ru_maxrss`` is folded
    in at the end so a spike between samples still counts for this process.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        pid = os.getpid()
        total = _rss_kib(pid) + sum(_rss_kib(child) for child in _descendants(pid))
        self.peak_kib = max(self.peak_kib, total)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "PeakRss":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._sample()

    @property
    def peak_mb(self) -> float:
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(self.peak_kib, own) / 1024.0
