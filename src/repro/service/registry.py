"""Deprecated shim over :mod:`repro.api`'s single router registry.

This module used to hold its own name->factory table.  It now delegates to
:mod:`repro.api.registry`, so ``"satmap"`` (or any spec string such as
``"satmap:slice_size=10"``) means the same thing everywhere: library, CLI,
worker pool, portfolio, harness.

Only the service-policy constants live here: which routers race by default
and which one rescues timed-out jobs.  New code should import
:func:`repro.api.get_router` / :func:`repro.api.list_routers` directly.
"""

from __future__ import annotations

from repro.api.registry import display_name as _api_display_name
from repro.api.registry import get_router, list_routers
from repro.api.spec import RouterSpec

#: Default racing line-up: the anytime MaxSAT router plus two fast heuristics
#: with very different search styles, so at least one entrant finishes early
#: on every instance while SATMAP chases optimality.  Entries are router
#: *specs*, so configured entrants like ``"satmap:slice_size=10"`` are valid.
DEFAULT_PORTFOLIO: tuple[str, ...] = ("satmap", "sabre", "tket")

#: The router used to guarantee a feasible best-so-far answer when the
#: primary router times out: single shortest-path SWAP chains, never fails on
#: a connected architecture and runs in milliseconds.
FALLBACK_ROUTER = "naive"


def router_names() -> list[str]:
    """All registry names, sorted for stable CLI choices."""
    return list_routers()


def build_router(name: str, time_budget: float, options: dict | None = None):
    """Instantiate the router a name/spec string describes.

    ``options`` merge over the spec's own options; unknown names raise
    ``KeyError`` (and unknown options ``ValueError``) early so misconfigured
    jobs fail at submission, not in a worker.  Deprecated: call
    :func:`repro.api.get_router` with a :class:`~repro.api.RouterSpec`.
    """
    spec = RouterSpec.parse(name)
    if options:
        spec = spec.with_options(**options)
    return get_router(spec, time_budget=time_budget)


def display_name(name: str, options: dict | None = None) -> str:
    """Deprecated alias of :func:`repro.api.display_name`."""
    return _api_display_name(name, options)
