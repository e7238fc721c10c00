"""Solver-backend registry: pure-Python reference vs. compiled core.

Two interchangeable CDCL implementations live behind :func:`create_solver`:

* ``"python"`` — :class:`repro.sat.solver.SatSolver`, the always-available
  reference implementation;
* ``"native"`` — :class:`repro.sat.native.NativeSatSolver`, a thin driver
  over the optional C extension :mod:`repro.sat._native.core`.

``"auto"`` (the default everywhere) resolves to native when the extension
imported, python otherwise — so a wheel built without a C toolchain, or an
environment with ``REPRO_SAT_DISABLE_NATIVE=1``, silently runs the
reference solver with identical results.

Selection precedence, highest first:

1. an explicit backend passed in code / ``RouterSpec`` option /
   ``--solver-backend`` CLI flag;
2. the ``REPRO_SAT_BACKEND`` environment variable;
3. ``"auto"``.

Both backends make the same verdicts, find the same optima through the
MaxSAT search, and produce the same routing results; only solver-depth
counters (conflicts/decisions/...) may differ because the two cores take
different search paths.  ``REPRO_SAT_CROSSCHECK=1`` additionally replays
every native UNSAT verdict and final model through the pure-Python core
(see :mod:`repro.sat.native`).
"""

from __future__ import annotations

import os

from repro.sat._native import load_core
from repro.sat.solver import SatSolver

#: Environment variable consulted when no explicit backend was requested.
BACKEND_ENV = "REPRO_SAT_BACKEND"
#: Set to a truthy value to verify native answers against the python core.
CROSSCHECK_ENV = "REPRO_SAT_CROSSCHECK"
#: Set to a truthy value to pretend the compiled core is not installed.
DISABLE_NATIVE_ENV = "REPRO_SAT_DISABLE_NATIVE"

#: Names accepted anywhere a backend can be chosen.
BACKEND_CHOICES = ("python", "native", "auto")


def native_available() -> bool:
    """Whether the compiled core can actually be imported right now."""
    return load_core() is not None


def available_backends() -> list[str]:
    """Concrete (non-``auto``) backends usable in this environment."""
    backends = ["python"]
    if native_available():
        backends.append("native")
    return backends


def resolve_backend(name: str | None = None) -> str:
    """Resolve a requested backend to a concrete one (python | native).

    ``name=None`` or ``"auto"`` (an explicit non-preference) falls back to
    ``$REPRO_SAT_BACKEND``, then ``"auto"``.  Requesting ``"native"``
    explicitly when the extension is unavailable is an error; ``"auto"``
    silently degrades to python.
    """
    if name is None or str(name).lower() == "auto":
        name = os.environ.get(BACKEND_ENV) or "auto"
    name = str(name).lower()
    if name not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown solver backend {name!r}; expected one of "
            f"{', '.join(BACKEND_CHOICES)}"
        )
    if name == "auto":
        return "native" if native_available() else "python"
    if name == "native" and not native_available():
        raise RuntimeError(
            "solver backend 'native' was requested but the compiled core "
            "(repro.sat._native.core) is not importable; rebuild with "
            "`python setup.py build_ext --inplace` or use backend 'auto'"
        )
    return name


def crosscheck_enabled() -> bool:
    """Whether native answers should be replayed through the python core."""
    return bool(os.environ.get(CROSSCHECK_ENV))


def create_solver(backend: str | None = None, **solver_kwargs):
    """Build a solver for ``backend`` (resolved per the precedence rules).

    Returns a :class:`~repro.sat.solver.SatSolver` or a
    :class:`~repro.sat.native.NativeSatSolver`; both expose the same
    interface (``add_clause``/``solve``/``stats``/...).
    """
    resolved = resolve_backend(backend)
    if resolved == "native":
        from repro.sat.native import NativeSatSolver

        return NativeSatSolver(**solver_kwargs)
    return SatSolver(**solver_kwargs)


def describe_backends() -> dict:
    """Flat summary for ``repro info`` / ``repro routers``."""
    return {
        "available": available_backends(),
        "default": resolve_backend(None),
        "env": os.environ.get(BACKEND_ENV) or "",
        "crosscheck": crosscheck_enabled(),
    }


__all__ = [
    "BACKEND_ENV",
    "CROSSCHECK_ENV",
    "DISABLE_NATIVE_ENV",
    "BACKEND_CHOICES",
    "native_available",
    "available_backends",
    "resolve_backend",
    "crosscheck_enabled",
    "create_solver",
    "describe_backends",
]
