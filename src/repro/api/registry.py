"""The single, capability-aware router registry.

One mapping from registry names to routers serves every surface: the library
(:func:`repro.api.route`), the CLI, the batch service's worker processes, the
portfolio racer, and the experiment harness.  Each :class:`RouterEntry`
couples a name to a factory, a per-option schema (so specs are validated and
coerced *before* a job reaches a worker), and a set of capability tags --
``noise_aware``, ``optimal``, ``anytime``, ... -- that callers can filter on
without instantiating anything.

Router classes are imported lazily inside the factories: the registry is
imported by every baseline module (via :mod:`repro.api`), so importing the
router modules at the top level here would be circular.

Capability vocabulary used by the built-in entries:

* ``anytime``     -- returns its best solution so far when the budget expires;
* ``optimal``     -- can prove optimality (of the possibly-relaxed instance);
* ``noise_aware`` -- optimises estimated fidelity, not just SWAP count;
* ``heuristic``   -- polynomial-time search, no optimality guarantee;
* ``exact``       -- exhaustive/complete search;
* ``incremental`` -- reuses live SAT sessions across re-solves;
* ``cyclic``      -- supports the cyclic (repeated-block) relaxation;
* ``fallback``    -- cheap and complete enough to rescue timed-out jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.api.spec import RouterSpec, SpecError, parse_scalar


class UnknownRouterError(KeyError):
    """A spec names a router no one has registered."""

    def __init__(self, name: str, known: Iterable[str]) -> None:
        super().__init__(
            f"unknown router {name!r}; known routers: {', '.join(sorted(known))}")
        self.router_name = name


@dataclass(frozen=True)
class OptionField:
    """Schema of one router option: name, scalar type, default, doc line."""

    name: str
    type: str  # "int" | "float" | "bool" | "str"
    default: Any = None
    help: str = ""
    allow_none: bool = False

    _TYPES = ("int", "float", "bool", "str")

    def __post_init__(self) -> None:
        if self.type not in self._TYPES:
            raise ValueError(f"option type must be one of {self._TYPES}")

    def coerce(self, value: Any) -> Any:
        """Check/convert one value against this field, or raise SpecError."""
        if value is None:
            if self.allow_none:
                return None
            raise SpecError(f"option {self.name!r} may not be none")
        if isinstance(value, str) and self.type != "str":
            value = parse_scalar(value)
        if self.type == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise SpecError(f"option {self.name!r} expects an int, "
                                f"got {value!r}")
            return value
        if self.type == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SpecError(f"option {self.name!r} expects a number, "
                                f"got {value!r}")
            return float(value)
        if self.type == "bool":
            if not isinstance(value, bool):
                raise SpecError(f"option {self.name!r} expects a bool, "
                                f"got {value!r}")
            return value
        if not isinstance(value, str):
            raise SpecError(f"option {self.name!r} expects a string, got {value!r}")
        return value

    def describe(self) -> dict[str, Any]:
        return {"name": self.name, "type": self.type, "default": self.default,
                "help": self.help, "allow_none": self.allow_none}


@dataclass(frozen=True)
class RouterEntry:
    """One registered router: factory, option schema, capabilities."""

    name: str
    factory: Callable[..., Any]
    summary: str = ""
    capabilities: frozenset[str] = frozenset()
    options: tuple[OptionField, ...] = ()

    def option(self, name: str) -> OptionField | None:
        for option_field in self.options:
            if option_field.name == name:
                return option_field
        return None

    def validate_options(self, options: Mapping[str, Any]) -> dict[str, Any]:
        """Coerce ``options`` against the schema; unknown names are rejected."""
        validated: dict[str, Any] = {}
        for key in sorted(options):
            option_field = self.option(key)
            if option_field is None:
                known = ", ".join(f.name for f in self.options) or "(no options)"
                raise SpecError(f"router {self.name!r} has no option {key!r}; "
                                f"valid options: {known}")
            validated[key] = option_field.coerce(options[key])
        return validated

    def build_options(self, options: Mapping[str, Any]) -> dict[str, Any]:
        """Validated options with schema defaults filled in for the factory."""
        merged = {f.name: f.default for f in self.options}
        merged.update(self.validate_options(options))
        return merged

    def describe(self) -> dict[str, Any]:
        """JSON-ready description for CLI listings and dashboards."""
        return {
            "name": self.name,
            "summary": self.summary,
            "capabilities": sorted(self.capabilities),
            "options": [f.describe() for f in self.options],
        }


_REGISTRY: dict[str, RouterEntry] = {}


def register_router(
    name: str,
    factory: Callable[..., Any],
    summary: str = "",
    capabilities: Iterable[str] = (),
    options: Iterable[OptionField] = (),
    replace: bool = False,
) -> RouterEntry:
    """Register a router under ``name``; returns the entry.

    ``factory`` is called with keyword arguments only (validated options with
    schema defaults filled in) and must return an object satisfying the
    :class:`repro.api.Router` protocol.  Registering an existing name raises
    unless ``replace=True``.
    """
    if not name or not isinstance(name, str):
        raise ValueError("router name must be a non-empty string")
    if name in _REGISTRY and not replace:
        raise ValueError(f"router {name!r} is already registered "
                         f"(pass replace=True to override)")
    entry = RouterEntry(name=name, factory=factory, summary=summary,
                        capabilities=frozenset(capabilities),
                        options=tuple(options))
    _REGISTRY[name] = entry
    return entry


def unregister_router(name: str) -> None:
    """Remove a registration (mainly for tests and plugin teardown)."""
    _REGISTRY.pop(name, None)


def router_entry(name: str) -> RouterEntry:
    """The entry registered under ``name``; raises :class:`UnknownRouterError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownRouterError(name, _REGISTRY) from None


def list_routers(capability: str | Iterable[str] | None = None) -> list[str]:
    """Sorted registry names, optionally filtered by capability tag(s)."""
    if capability is None:
        required: frozenset[str] = frozenset()
    elif isinstance(capability, str):
        required = frozenset((capability,))
    else:
        required = frozenset(capability)
    return sorted(name for name, entry in _REGISTRY.items()
                  if required <= entry.capabilities)


def router_capabilities(name: str) -> frozenset[str]:
    return router_entry(name).capabilities


def describe_routers(capability: str | Iterable[str] | None = None) -> list[dict]:
    """JSON-ready entry descriptions (the payload behind ``repro routers``)."""
    return [router_entry(name).describe() for name in list_routers(capability)]


def get_router(spec: RouterSpec | str | Mapping[str, Any], **defaults: Any):
    """Instantiate the router a spec describes.

    ``defaults`` fill options the spec leaves unset (the service passes its
    per-job ``time_budget`` this way), the spec's own options win, and the
    entry's schema supplies everything else.  Validation happens here, so a
    misconfigured spec fails at submission rather than inside a worker.
    """
    parsed = RouterSpec.parse(spec)
    entry = router_entry(parsed.name)
    if defaults:
        parsed = parsed.with_defaults(**defaults)
    return entry.factory(**entry.build_options(parsed.options))


def display_name(spec: RouterSpec | str | Mapping[str, Any],
                 options: Mapping[str, Any] | None = None) -> str:
    """The router's self-reported display name (``'satmap'`` -> ``'SATMAP'``).

    Experiment records are keyed by the name routers stamp on their results;
    synthetic records (e.g. a hard-timeout entry) must use the same name or
    they fragment the comparison tables.  Falls back to the registry name
    when construction fails.
    """
    try:
        parsed = RouterSpec.parse(spec)
    except Exception:
        return str(spec)
    try:
        if options:
            parsed = parsed.with_options(**options)
        return get_router(parsed, time_budget=1.0).name
    except Exception:
        return parsed.name


# --------------------------------------------------------------------------
# Built-in registrations.  Router classes import lazily inside the factories;
# see the module docstring for why.
# --------------------------------------------------------------------------

def _common_options(time_budget: float = 60.0) -> tuple[OptionField, ...]:
    return (
        OptionField("time_budget", "float", time_budget,
                    "wall-clock budget in seconds"),
        OptionField("verify", "bool", True,
                    "run the independent verifier on every solution"),
    )


_SATMAP_OPTIONS = (
    OptionField("swaps_per_gate", "int", 1,
                "SWAP slots available before each two-qubit gate"),
    OptionField("backtrack_limit", "int", 10,
                "max backtracking steps of the local relaxation"),
    OptionField("collapse_repeated_pairs", "bool", True,
                "merge adjacent repeats of the same interaction"),
    OptionField("solver_backend", "str", None, allow_none=True,
                help="SAT solve core: 'python', 'native', or 'auto' "
                     "(default: $REPRO_SAT_BACKEND, then auto)"),
)


def _make_satmap(**options):
    from repro.core.satmap import SatMapRouter

    return SatMapRouter(**options)


def _make_noise_satmap(**options):
    from repro.core.noise_aware import NoiseAwareSatMapRouter

    return NoiseAwareSatMapRouter(**options)


def _make_cyclic(**options):
    from repro.core.cyclic import CyclicRouter

    return CyclicRouter(**options)


def _make_hybrid(**options):
    from repro.core.hybrid import HybridSatMapRouter

    return HybridSatMapRouter(**options)


def _baseline_factory(class_name: str):
    def make(**options):
        import repro.baselines as baselines

        return getattr(baselines, class_name)(**options)

    return make


def _register_builtins() -> None:
    register_router(
        "satmap", _make_satmap,
        summary="SATMAP with the locally optimal (slicing) relaxation",
        capabilities=("anytime", "optimal", "incremental"),
        options=_common_options() + _SATMAP_OPTIONS + (
            OptionField("slice_size", "int", 25, allow_none=True,
                        help="two-qubit gates per slice (none disables slicing)"),
        ),
    )
    register_router(
        "nl-satmap", _make_satmap,
        summary="SATMAP on the whole circuit as one MaxSAT instance",
        capabilities=("anytime", "optimal", "incremental"),
        options=_common_options() + _SATMAP_OPTIONS + (
            OptionField("slice_size", "int", None, allow_none=True,
                        help="two-qubit gates per slice (default: no slicing)"),
        ),
    )
    register_router(
        "noise-satmap", _make_noise_satmap,
        summary="SATMAP with the weighted fidelity-maximising objective",
        capabilities=("anytime", "optimal", "incremental", "noise_aware"),
        options=_common_options() + _SATMAP_OPTIONS + (
            OptionField("slice_size", "int", None, allow_none=True,
                        help="two-qubit gates per slice (none disables slicing)"),
            OptionField("noise", "str", "uniform",
                        "noise profile built per architecture: 'uniform' or "
                        "'synthetic'"),
            OptionField("two_qubit_error", "float", 0.02,
                        "edge error rate of the 'uniform' profile"),
            OptionField("single_qubit_error", "float", 0.001,
                        "qubit error rate of the 'uniform' profile"),
            OptionField("seed", "int", 2019, "seed of the 'synthetic' profile"),
        ),
    )
    register_router(
        "cyclic", _make_cyclic,
        summary="cyclic relaxation: route one block, stitch it `cycles` times",
        capabilities=("anytime", "cyclic", "incremental"),
        options=_common_options() + (
            OptionField("cycles", "int", 1,
                        "how many times the input block repeats"),
            OptionField("slice_size", "int", None, allow_none=True,
                        help="slice size of the fallback block solve"),
            OptionField("swaps_per_gate", "int", 1,
                        "SWAP slots available before each two-qubit gate"),
            OptionField("fallback_reset", "bool", True,
                        "on cyclic UNSAT/timeout, route plainly and append "
                        "reset swaps"),
            OptionField("solver_backend", "str", None, allow_none=True,
                        help="SAT solve core: 'python', 'native', or 'auto'"),
        ),
    )
    register_router(
        "hybrid", _make_hybrid,
        summary="optimal MaxSAT placement followed by SABRE routing",
        capabilities=("anytime", "heuristic"),
        options=_common_options() + (
            OptionField("placement_share", "float", 0.5,
                        "fraction of the budget spent on MaxSAT placement"),
            OptionField("solver_backend", "str", None, allow_none=True,
                        help="SAT solve core: 'python', 'native', or 'auto'"),
        ),
    )
    register_router(
        "sabre", _baseline_factory("SabreRouter"),
        summary="SABRE: bidirectional initial map, lookahead-scored swaps",
        capabilities=("heuristic", "anytime"),
        options=_common_options() + (
            OptionField("lookahead_size", "int", 20,
                        "gates in the extended (lookahead) layer"),
            OptionField("lookahead_weight", "float", 0.5,
                        "weight of the lookahead layer in the swap score"),
            OptionField("decay_factor", "float", 0.001,
                        "per-use decay added to a qubit's swap score"),
            OptionField("decay_reset_interval", "int", 5,
                        "swaps between decay resets"),
            OptionField("bidirectional_passes", "int", 3,
                        "forward/backward passes refining the initial map"),
            OptionField("seed", "int", 0, "tie-breaking seed"),
        ),
    )
    register_router(
        "tket", _baseline_factory("TketLikeRouter"),
        summary="tket-style: greedy graph placement, windowed distance scoring",
        capabilities=("heuristic",),
        options=_common_options() + (
            OptionField("window_size", "int", 15,
                        "gates scored per routing window"),
            OptionField("window_discount", "float", 0.7,
                        "geometric discount of later window gates"),
        ),
    )
    register_router(
        "astar", _baseline_factory("AStarLayerRouter"),
        summary="MQT-style A* over swap sequences between layers",
        capabilities=("heuristic",),
        options=_common_options() + (
            OptionField("expansion_limit", "int", 20000,
                        "A* node expansions per layer"),
        ),
    )
    register_router(
        "bmt", _baseline_factory("BmtLikeRouter"),
        summary="BMT-style: subgraph isomorphism + approximate token swapping",
        capabilities=("heuristic",),
        options=_common_options() + (
            OptionField("max_embedding_attempts", "int", 20_000,
                        "bound on subgraph-embedding search steps"),
        ),
    )
    register_router(
        "naive", _baseline_factory("NaiveShortestPathRouter"),
        summary="no-lookahead shortest-path swaps; the cost-ratio anchor",
        capabilities=("heuristic", "fallback"),
        options=_common_options() + (
            OptionField("smart_initial_mapping", "bool", False,
                        "greedy interaction placement instead of identity"),
        ),
    )
    register_router(
        "olsq", _baseline_factory("OlsqStyleRouter"),
        summary="TB-OLSQ-style SAT model, iterative deepening on swap count",
        capabilities=("exact", "optimal"),
        options=_common_options() + (
            OptionField("swaps_per_gate", "int", 1,
                        "SWAP slots available before each two-qubit gate"),
            OptionField("max_bound", "int", None, allow_none=True,
                        help="stop deepening past this swap bound"),
        ),
    )
    register_router(
        "exact", _baseline_factory("ExhaustiveOptimalRouter"),
        summary="EX-MQT-style exact search over (gate, mapping) states",
        capabilities=("exact", "optimal"),
        options=_common_options() + (
            OptionField("expansion_limit", "int", 2_000_000,
                        "bound on search-state expansions"),
        ),
    )


_register_builtins()
