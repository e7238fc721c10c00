"""Batch dispatch order and progress reporting.

When a batch of heterogeneous jobs is fanned out over a fixed number of
workers, scheduling the expensive jobs first minimises the makespan (the
classic longest-processing-time rule); :func:`dispatch_order` therefore
sorts jobs by the cheap size estimate from :meth:`RoutingJob.estimated_cost`,
costliest first.  The sort is stable, so ties keep submission order and two
runs of the same batch always dispatch identically.

The service hands the ordered list to the worker pool in one go, and
results are re-assembled in *submission* order so callers see deterministic
output regardless of worker count or completion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.service.jobs import RoutingJob


@dataclass
class BatchProgress:
    """Progress snapshot passed to batch callbacks after every completion."""

    completed: int
    total: int
    job: RoutingJob
    solved: bool

    @property
    def fraction(self) -> float:
        return self.completed / self.total if self.total else 1.0

    def format(self) -> str:
        mark = "ok" if self.solved else "!!"
        return (f"[{self.completed:>3}/{self.total}] {mark} "
                f"{self.job.name} ({self.job.router})")


ProgressCallback = Callable[[BatchProgress], None]


def dispatch_order(jobs: list[RoutingJob]) -> list[int]:
    """Indices of ``jobs`` in dispatch order: costliest first, ties stable."""
    return sorted(range(len(jobs)), key=lambda index: -jobs[index].estimated_cost())
