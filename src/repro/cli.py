"""Command-line interface: ``python -m repro <command>``.

The subcommands cover the common workflows:

* ``route``    -- map and route an OpenQASM 2.0 file onto a named architecture
  (SATMAP by default, any router spec via ``--router``) and write the routed
  circuit next to the input; ``--json`` for scriptable output;
* ``compare``  -- run SATMAP and the heuristic baselines over a QASM file (or
  the built-in tiny suite) and print Table I / Fig. 12 style summaries
  (``--json`` for the raw records);
* ``batch``    -- route many QASM files (or a generated suite) through the
  parallel :class:`~repro.service.BatchRoutingService`: worker pool,
  optional portfolio racing, and an on-disk result cache;
* ``serve``    -- run the JSON-over-HTTP routing gateway
  (:mod:`repro.server`): concurrent submissions, cross-client dedup,
  admission quotas, ``/metrics``, graceful drain on SIGTERM;
* ``submit``   -- submit a QASM file to a running gateway and wait for the
  routed result;
* ``trace``    -- fetch a finished job's span tree from a running gateway
  and print it as an indented timing tree (``--json`` for the raw spans,
  ``--slow-ms`` to flag spans past a wall-clock threshold);
* ``top``      -- live terminal dashboard over a running gateway or fleet:
  per-shard throughput, queue depth, cache hit rate, tail latencies, and
  SLO error-budget status, repainted every ``--interval`` seconds;
* ``routers``  -- list every registered router: capabilities and option
  schemas, straight from the :mod:`repro.api` registry;
* ``info``     -- print the properties of a named architecture;
* ``devices``  -- list every architecture in the device catalogue;
* ``draw``     -- print a text diagram of a QASM circuit;
* ``generate`` -- write a benchmark circuit (QFT, GHZ, QAOA, random) to QASM;
* ``version``  -- print the package version (also ``repro --version``).

Anywhere a router is named, a full *spec string* is accepted --
``--router satmap:slice_size=10,swaps_per_gate=2`` -- and validated against
the registry's option schemas at argument-parsing time.

The CLI is intentionally thin: every subcommand is a small wrapper over the
public library API, so anything it does can also be done programmatically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from repro.analysis.experiments import run_many_routers
from repro.analysis.reporting import (
    render_cost_ratio_summary,
    render_solve_rate_table,
    render_table,
)
from repro.analysis.suite import tiny_suite
from repro.api import RouterSpec, describe_routers, get_router, list_routers
from repro.circuits.drawer import circuit_summary, draw_circuit
from repro.circuits.library import BenchmarkCircuit
from repro.circuits.named_circuits import ghz_circuit, qft_circuit
from repro.circuits.qaoa import maxcut_qaoa_circuit
from repro.circuits.qasm import load_qasm, save_qasm
from repro.circuits.random_circuits import random_circuit
from repro.hardware.architecture import Architecture
from repro.hardware.devices import (
    architecture_record,
    device_records,
    named_architectures,
)
from repro.service import BatchRoutingService, RoutingJob


def available_architectures() -> dict[str, Architecture]:
    """Named architectures selectable from the command line.

    Thin alias of :func:`repro.hardware.devices.named_architectures` -- the
    same table the network gateway resolves architecture names against.
    """
    return named_architectures()


def _router_spec(text: str) -> str:
    """argparse type for ``--router``: validate a spec string, keep the text.

    Validation against the registry (unknown routers *and* unknown/ill-typed
    options) and the router's own constructor checks happen at parse time,
    so ``repro route --router no-such``, ``--router satmap:slize_size=9`` or
    ``--router satmap:swaps_per_gate=0`` exit with a usage error instead of
    failing mid-run.
    """
    try:
        get_router(RouterSpec.from_string(text))
    except Exception as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text


def _slo_objective(text: str) -> dict:
    """argparse type for ``serve --slo``: ``[route:]pQQ<SECONDS[@AVAIL]``.

    Examples: ``p95<2`` (all traffic, p95 within 2s, 99% availability),
    ``satmap:p99<5@0.995`` (one route, explicit availability floor).
    Returned as a plain dict so the objective pickles into worker processes
    (:class:`repro.obs.slo.SloObjective` normalises it on the other side).
    """
    from repro.obs.slo import SloObjective

    spec = text.strip()
    route, _, rest = spec.rpartition(":")
    route = route or "*"
    rest, _, avail = rest.partition("@")
    quantile_text, sep, latency_text = rest.partition("<")
    try:
        if not sep or not quantile_text.startswith("p"):
            raise ValueError("expected [route:]p<quantile><<seconds>[@avail]")
        objective = SloObjective(
            route=route,
            quantile=float(quantile_text[1:]) / 100.0,
            latency_target=float(latency_text),
            availability_target=float(avail) if avail else 0.99,
        )
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"bad SLO spec {text!r}: {error}") from None
    return objective.to_dict()


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Qubit mapping and routing via MaxSAT (SATMAP reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    route = subparsers.add_parser("route", help="route an OpenQASM 2.0 file")
    route.add_argument("qasm", type=Path, help="input OpenQASM 2.0 file")
    route.add_argument("--arch", default="tokyo", choices=sorted(available_architectures()))
    route.add_argument("--router", default="satmap", type=_router_spec,
                       help="router spec, e.g. satmap or "
                            "satmap:slice_size=10,swaps_per_gate=2 "
                            "(default: satmap with slicing; see `repro routers`)")
    route.add_argument("--slice-size", type=int, default=25,
                       help="two-qubit gates per slice (0 disables slicing; satmap only)")
    route.add_argument("--time-budget", type=float, default=60.0)
    route.add_argument("--swaps-per-gate", type=int, default=1)
    route.add_argument("--solver-backend", default=None,
                       choices=["python", "native", "auto"],
                       help="SAT solve core (default: $REPRO_SAT_BACKEND, "
                            "then auto: native when built, else python)")
    route.add_argument("--output", type=Path, default=None,
                       help="output path (default: <input>.routed.qasm)")
    route.add_argument("--json", action="store_true",
                       help="print a machine-readable JSON result instead of text")

    compare = subparsers.add_parser("compare",
                                    help="compare SATMAP against heuristic baselines")
    compare.add_argument("qasm", type=Path, nargs="?", default=None,
                         help="optional OpenQASM file; omit to use the built-in suite")
    compare.add_argument("--arch", default="tokyo8",
                         choices=sorted(available_architectures()))
    compare.add_argument("--time-budget", type=float, default=10.0)
    compare.add_argument("--json", action="store_true",
                         help="print the raw experiment records as JSON")

    batch = subparsers.add_parser(
        "batch", help="route a batch of circuits through the parallel service")
    batch.add_argument("qasm", type=Path, nargs="*",
                       help="OpenQASM 2.0 files; omit to route the built-in tiny suite")
    batch.add_argument("--arch", default="tokyo8",
                       choices=sorted(available_architectures()))
    batch.add_argument("--router", default="satmap", type=_router_spec,
                       help="router spec executed per job (default: satmap)")
    batch.add_argument("--suite-size", type=int, default=8,
                       help="number of built-in circuits when no files are given")
    batch.add_argument("--time-budget", type=float, default=10.0,
                       help="per-job budget in seconds")
    batch.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: CPU count)")
    batch.add_argument("--mode", default="auto",
                       choices=["auto", "process", "thread", "serial"])
    batch.add_argument("--cache-dir", type=Path, default=Path(".repro-cache"),
                       help="on-disk result cache directory")
    batch.add_argument("--no-cache", action="store_true",
                       help="disable the result cache entirely")
    batch.add_argument("--solver-backend", default=None,
                       choices=["python", "native", "auto"],
                       help="SAT solve core for every job (default: "
                            "$REPRO_SAT_BACKEND, then auto)")
    batch.add_argument("--portfolio", action="store_true",
                       help="race SATMAP against heuristic baselines per job")
    batch.add_argument("--quiet", action="store_true",
                       help="suppress per-job progress lines")

    serve = subparsers.add_parser(
        "serve", help="run the JSON-over-HTTP routing gateway")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8037,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--time-budget", type=float, default=10.0,
                       help="default per-job budget in seconds")
    serve.add_argument("--workers", type=int, default=1,
                       help="shard worker processes behind one dispatcher; "
                            "1 runs today's single in-process gateway")
    serve.add_argument("--pool-workers", type=int, default=None,
                       help="solver pool size inside each worker "
                            "(default: CPU count)")
    serve.add_argument("--mode", default="auto",
                       choices=["auto", "process", "thread", "serial"])
    serve.add_argument("--cache-dir", type=Path, default=Path(".repro-cache"),
                       help="on-disk result cache directory")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the result cache entirely")
    serve.add_argument("--cache-max-mb", type=float, default=None,
                       help="bound the result cache; LRU-evict past this size")
    serve.add_argument("--rate", type=float, default=20.0,
                       help="per-client sustained submissions per second")
    serve.add_argument("--burst", type=float, default=40.0,
                       help="per-client burst allowance (token bucket size)")
    serve.add_argument("--max-pending", type=int, default=256,
                       help="refuse submissions past this backlog (backpressure)")
    serve.add_argument("--portfolio", action="store_true",
                       help="race SATMAP against heuristic baselines per job")
    serve.add_argument("--trace-dir", type=Path, default=None,
                       help="append finished-job traces as JSONL under this "
                            "directory (size-rotated)")
    serve.add_argument("--events-dir", type=Path, default=None,
                       help="append structured operational events as JSONL "
                            "under this directory (size-rotated; events stay "
                            "in memory and at /v1/events either way)")
    serve.add_argument("--trace-sample", type=float, default=None,
                       metavar="RATE",
                       help="tail-sampling keep probability for fast, "
                            "successful traces in [0, 1]; errors, timeouts "
                            "and slow traces are always kept "
                            "(default: keep everything)")
    serve.add_argument("--slow-trace-ms", type=float, default=None,
                       help="always keep traces whose root span lasts at "
                            "least this many milliseconds")
    serve.add_argument("--solver-backend", default=None,
                       choices=["python", "native", "auto"],
                       help="SAT solve core on every fleet worker (default: "
                            "$REPRO_SAT_BACKEND, then auto)")
    serve.add_argument("--slo", action="append", type=_slo_objective,
                       default=None, metavar="SPEC",
                       help="SLO objective as [route:]pQQ<SECONDS[@AVAIL], "
                            "e.g. p95<2 or satmap:p99<5@0.995; repeatable "
                            "(default: p95<2@0.99 over all traffic)")

    submit = subparsers.add_parser(
        "submit", help="submit a QASM file to a running gateway")
    submit.add_argument("qasm", type=Path, help="input OpenQASM 2.0 file")
    submit.add_argument("--url", default="http://127.0.0.1:8037",
                        help="gateway address")
    submit.add_argument("--arch", default="tokyo",
                        choices=sorted(available_architectures()))
    submit.add_argument("--router", default="satmap", type=_router_spec,
                        help="router spec, e.g. satmap:slice_size=10")
    submit.add_argument("--time-budget", type=float, default=None,
                        help="per-job budget in seconds (server default if unset)")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="client-side wait timeout in seconds")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job ticket and return immediately")
    submit.add_argument("--client-id", default=None,
                        help="quota identity sent as X-Client-Id")
    submit.add_argument("--output", type=Path, default=None,
                        help="write the routed circuit here when solved")
    submit.add_argument("--json", action="store_true",
                        help="print a machine-readable JSON record")

    trace = subparsers.add_parser(
        "trace", help="print a finished job's span tree from a gateway")
    trace.add_argument("job_id", help="job id returned by submit")
    trace.add_argument("--url", default="http://127.0.0.1:8037",
                       help="gateway address")
    trace.add_argument("--client-id", default=None,
                       help="quota identity sent as X-Client-Id")
    trace.add_argument("--slow-ms", type=float, default=None,
                       help="flag spans lasting at least this many "
                            "milliseconds with !slow (renders locally)")
    trace.add_argument("--json", action="store_true",
                       help="print the raw span tree as JSON")

    top = subparsers.add_parser(
        "top", help="live dashboard over a running gateway or fleet")
    top.add_argument("--url", default="http://127.0.0.1:8037",
                     help="gateway or dispatcher address")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between repaints")
    top.add_argument("--once", action="store_true",
                     help="print a single frame and exit (no screen clear)")
    top.add_argument("--client-id", default=None,
                     help="quota identity sent as X-Client-Id")

    info = subparsers.add_parser("info", help="describe a named architecture")
    info.add_argument("--arch", default="tokyo", choices=sorted(available_architectures()))
    info.add_argument("--json", action="store_true",
                      help="print the architecture record (with edges) as JSON")

    devices = subparsers.add_parser("devices", help="list the device catalogue")
    devices.add_argument("--json", action="store_true",
                         help="print the catalogue records as JSON")

    routers = subparsers.add_parser(
        "routers", help="list registered routers (capabilities, options)")
    routers.add_argument("name", nargs="?", default=None,
                         help="show the full option schema of one router")
    routers.add_argument("--capability", default=None,
                         help="only routers with this capability tag "
                              "(e.g. noise_aware, optimal, anytime)")
    routers.add_argument("--json", action="store_true",
                         help="print the registry entries as JSON")

    draw = subparsers.add_parser("draw", help="print a text diagram of a QASM circuit")
    draw.add_argument("qasm", type=Path, help="input OpenQASM 2.0 file")
    draw.add_argument("--max-columns", type=int, default=40)
    draw.add_argument("--ascii", action="store_true", help="avoid unicode symbols")

    generate = subparsers.add_parser("generate", help="write a benchmark circuit to QASM")
    generate.add_argument("kind", choices=["qft", "ghz", "qaoa", "random"])
    generate.add_argument("output", type=Path, help="output OpenQASM 2.0 path")
    generate.add_argument("--qubits", type=int, default=5)
    generate.add_argument("--gates", type=int, default=20,
                          help="two-qubit gate count (random circuits only)")
    generate.add_argument("--cycles", type=int, default=2, help="QAOA cycles")
    generate.add_argument("--seed", type=int, default=0)

    subparsers.add_parser("version", help="print the package version")
    return parser


def _route_spec(args: argparse.Namespace) -> RouterSpec:
    """The effective spec of ``repro route``: spec string + legacy flags.

    The dedicated flags (``--slice-size``, ``--swaps-per-gate``) only
    configure plain ``satmap``, as they always did; any other router is
    configured through its spec options.  Options written in the spec string
    win over the flags.
    """
    spec = RouterSpec.from_string(args.router)
    defaults: dict = {"time_budget": args.time_budget}
    if spec.name == "satmap":
        defaults.update(
            slice_size=args.slice_size if args.slice_size > 0 else None,
            swaps_per_gate=args.swaps_per_gate,
        )
    return spec.with_defaults(**defaults)


def _result_json(result, spec: RouterSpec, architecture: Architecture,
                 output: Path | None = None) -> dict:
    """The machine-readable shape shared by ``route --json`` records."""
    payload = {
        "circuit": result.circuit_name,
        "architecture": architecture.name,
        "spec": spec.to_dict(),
        "router": result.router_name,
        "status": result.status.value,
        "solved": result.solved,
        "optimal": result.optimal,
        "swap_count": result.swap_count if result.solved else None,
        "added_cnots": result.added_cnots if result.solved else None,
        "solve_time": round(result.solve_time, 6),
        "initial_mapping": {str(k): v for k, v in result.initial_mapping.items()},
        "notes": result.notes,
        "output": str(output) if output is not None else None,
    }
    if result.objective_value is not None:
        payload["objective_value"] = result.objective_value
    return payload


def _apply_solver_backend(args: argparse.Namespace) -> None:
    """Export ``--solver-backend`` so every layer (including spawned pool
    and fleet workers, which inherit the environment) resolves the same
    SAT solve core."""
    backend = getattr(args, "solver_backend", None)
    if backend:
        import os

        os.environ["REPRO_SAT_BACKEND"] = backend


def command_route(args: argparse.Namespace) -> int:
    _apply_solver_backend(args)
    architecture = available_architectures()[args.arch]
    circuit = load_qasm(args.qasm)
    spec = _route_spec(args)
    router = get_router(spec)
    result = router.route(circuit, architecture)
    output = None
    if result.solved:
        output = args.output or args.qasm.with_suffix(".routed.qasm")
        save_qasm(result.routed_circuit, output)
    if args.json:
        print(json.dumps(_result_json(result, spec, architecture, output),
                         indent=2, sort_keys=True))
        return 0 if result.solved else 2
    print(result.summary())
    if not result.solved:
        return 2
    print(f"initial mapping: {result.initial_mapping}")
    print(f"routed circuit written to {output}")
    return 0


def command_compare(args: argparse.Namespace) -> int:
    architecture = available_architectures()[args.arch]
    if args.qasm is not None:
        circuit = load_qasm(args.qasm)
        suite = [BenchmarkCircuit(circuit.name, circuit.num_qubits,
                                  circuit.num_two_qubit_gates, circuit)]
    else:
        suite = tiny_suite()[:6]
    routers = {
        "SATMAP": f"satmap:time_budget={args.time_budget}",
        "SABRE": "sabre",
        "TKET-like": "tket",
        "MQT-A*": "astar",
    }
    comparison = run_many_routers(routers, suite, architecture)
    if args.json:
        records = [dataclasses.asdict(record)
                   for router in comparison.routers()
                   for record in comparison.records[router]]
        print(json.dumps({"architecture": architecture.name,
                          "suite_size": len(suite),
                          "records": records}, indent=2, sort_keys=True))
        return 0
    print(render_solve_rate_table(comparison, total=len(suite),
                                  title=f"Solve rate on {architecture.name}"))
    print()
    print(render_cost_ratio_summary(comparison, "SATMAP",
                                    ["SABRE", "TKET-like", "MQT-A*"]))
    return 0


def _batch_jobs(args: argparse.Namespace) -> list[RoutingJob]:
    """Jobs for ``batch``: the given QASM files or the built-in tiny suite."""
    architecture = available_architectures()[args.arch]
    jobs = []
    if args.qasm:
        for path in args.qasm:
            circuit = load_qasm(path)
            jobs.append(RoutingJob.from_circuit(circuit, architecture,
                                                router=args.router, name=path.stem))
    else:
        for bench in tiny_suite()[:max(1, args.suite_size)]:
            jobs.append(RoutingJob.from_circuit(bench.circuit, architecture,
                                                router=args.router, name=bench.name))
    return jobs


def command_batch(args: argparse.Namespace) -> int:
    import time as _time

    _apply_solver_backend(args)
    missing = [path for path in args.qasm if not path.exists()]
    if missing:
        print(f"error: no such file: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    jobs = _batch_jobs(args)
    progress = None
    if not args.quiet:
        progress = lambda update: print(update.format())  # noqa: E731
    start = _time.monotonic()
    with BatchRoutingService(
        max_workers=args.workers,
        mode=args.mode,
        time_budget=args.time_budget,
        cache=False if args.no_cache else None,
        cache_dir=None if args.no_cache else args.cache_dir,
        portfolio=args.portfolio or None,
    ) as service:
        results = service.route_batch(jobs, progress=progress)
        wall = _time.monotonic() - start

        rows = []
        for job, result in zip(jobs, results):
            rows.append([
                job.name, result.router_name, result.status.value,
                result.swap_count if result.solved else "-",
                result.added_cnots if result.solved else "-",
                round(result.solve_time, 3),
                "hit" if "cache-hit" in result.notes else "",
            ])
        print()
        print(render_table(
            ["circuit", "router", "status", "swaps", "CNOTs", "time (s)", "cache"],
            rows, title=f"Batch of {len(jobs)} jobs on {args.arch}"))
        print()
        print(service.summary())
        cache_stats = service.stats().get("cache")
        if cache_stats is not None:
            print(f"cache: {cache_stats['hits']} hits / {cache_stats['misses']} misses "
                  f"({cache_stats['entries']} entries on disk at {args.cache_dir})")
        print(f"batch wall time: {wall:.3f}s "
              f"({len(jobs) / wall if wall > 0 else 0.0:.2f} jobs/s)")
        solved = sum(1 for result in results if result.solved)
        print(f"solved {solved}/{len(jobs)} jobs")
        return 0 if solved == len(jobs) else 2


def serve_config(args: argparse.Namespace):
    """The :class:`~repro.cluster.FleetConfig` ``repro serve`` flags describe."""
    from repro.cluster import FleetConfig

    return FleetConfig(
        workers=args.workers,
        host=args.host,
        port=args.port,
        time_budget=args.time_budget,
        pool_workers=args.pool_workers,
        pool_mode=args.mode,
        cache_dir=None if args.no_cache else str(args.cache_dir),
        cache_max_bytes=(int(args.cache_max_mb * 1024 * 1024)
                         if args.cache_max_mb else None),
        portfolio=args.portfolio or None,
        rate=args.rate,
        burst=args.burst,
        max_pending=args.max_pending,
        trace_dir=str(args.trace_dir) if args.trace_dir else None,
        events_dir=str(args.events_dir) if args.events_dir else None,
        slos=tuple(args.slo or ()),
        trace_sample_rate=args.trace_sample,
        slow_trace_seconds=(args.slow_trace_ms / 1000.0
                            if args.slow_trace_ms is not None else None),
        solver_backend=args.solver_backend,
    )


def command_serve(args: argparse.Namespace) -> int:
    """``repro serve``: one gateway, or a dispatcher over N shard workers."""
    import asyncio

    from repro.cluster import ClusterDispatcher
    from repro.cluster.worker import build_worker_gateway
    from repro.server import serve

    _apply_solver_backend(args)
    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    if args.trace_sample is not None and not 0.0 <= args.trace_sample <= 1.0:
        print("error: --trace-sample must be in [0, 1]", file=sys.stderr)
        return 2
    config = serve_config(args)
    limits = (f"budget {config.time_budget}s, rate {config.rate}/s, "
              f"burst {config.burst:g}, backlog {config.max_pending}")
    if config.workers == 1:
        gateway = build_worker_gateway(config)

        def announce_gateway(started) -> None:
            print(f"repro gateway listening on {started.url} ({limits})")
            print("SIGTERM or ^C drains in-flight jobs before exiting")

        try:
            asyncio.run(serve(gateway, on_started=announce_gateway))
        finally:
            gateway.service.close()
        print(gateway.service.summary())
        return 0
    dispatcher = ClusterDispatcher(config)

    def announce_fleet(started: ClusterDispatcher) -> None:
        shards = ", ".join(
            f"{worker['shard']}:{worker['port']}"
            for worker in started._fleet_section()["worker_detail"])
        print(f"repro fleet dispatcher listening on {started.url} "
              f"({config.workers} shard workers: {shards})")
        print(limits)
        print("SIGTERM or ^C drains every worker before exiting")

    asyncio.run(serve(dispatcher, on_started=announce_fleet))
    counters = dispatcher.counters
    print(f"fleet served {counters['requests']} requests, dispatched "
          f"{counters['dispatched']} submissions, restarted "
          f"{counters['worker_restarts']} workers")
    return 0


def command_submit(args: argparse.Namespace) -> int:
    from repro.server import QuotaExceededError, RoutingClient, ServerError

    client = RoutingClient.from_url(args.url, client_id=args.client_id,
                                    timeout=min(60.0, args.timeout))
    qasm_text = args.qasm.read_text()
    try:
        ticket = client.submit(qasm_text, architecture=args.arch,
                               router=args.router, name=args.qasm.stem,
                               time_budget=args.time_budget)
    except QuotaExceededError as error:
        print(f"error: over quota; retry after {error.retry_after:.1f}s",
              file=sys.stderr)
        return 3
    except (ServerError, ConnectionError, OSError) as error:
        print(f"error: cannot submit to {client.url}: {error}", file=sys.stderr)
        return 2
    if args.no_wait:
        if args.json:
            print(json.dumps(ticket, indent=2, sort_keys=True))
        else:
            dedup = " (deduplicated)" if ticket.get("deduplicated") else ""
            print(f"job {ticket['job_id']} {ticket['status']}{dedup}")
        return 0
    try:
        result = client.wait(ticket["job_id"], timeout=args.timeout)
    except (ServerError, TimeoutError, ConnectionError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    output = None
    if result.solved and args.output is not None:
        save_qasm(result.routed_circuit, args.output)
        output = args.output
    if args.json:
        payload = {
            "job_id": ticket["job_id"],
            "deduplicated": ticket.get("deduplicated", False),
            "server": client.url,
            "status": result.status.value,
            "solved": result.solved,
            "router": result.router_name,
            "swap_count": result.swap_count if result.solved else None,
            "added_cnots": result.added_cnots if result.solved else None,
            "solve_time": round(result.solve_time, 6),
            "notes": result.notes,
            "output": str(output) if output is not None else None,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.summary())
        if output is not None:
            print(f"routed circuit written to {output}")
    return 0 if result.solved else 2


def command_trace(args: argparse.Namespace) -> int:
    from repro.server import RoutingClient, ServerError

    client = RoutingClient.from_url(args.url, client_id=args.client_id)
    try:
        payload = client.trace(args.job_id)
    except (ServerError, ConnectionError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload.get("trace"), indent=2, sort_keys=True))
        return 0
    rendered = payload.get("rendered")
    if rendered and args.slow_ms is None:
        print(rendered)
    else:
        from repro.obs import render_trace
        threshold = args.slow_ms / 1000.0 if args.slow_ms is not None else None
        print(render_trace(payload["trace"], slow_threshold=threshold))
    return 0


def command_top(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import run_top
    from repro.server import RoutingClient

    if args.interval <= 0:
        print("error: --interval must be positive", file=sys.stderr)
        return 2
    client = RoutingClient.from_url(args.url, client_id=args.client_id)
    frames = run_top(client,
                     interval=args.interval,
                     iterations=1 if args.once else None,
                     clear=not args.once)
    return 0 if frames else 2


def command_info(args: argparse.Namespace) -> int:
    from repro.sat.backends import describe_backends

    architecture = available_architectures()[args.arch]
    record = architecture_record(architecture, key=args.arch, include_edges=True)
    backends = describe_backends()
    if args.json:
        record = dict(record, solver_backends=backends)
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    rows = [
        ["name", record["name"]],
        ["physical qubits", record["num_qubits"]],
        ["edges", record["num_edges"]],
        ["average degree", record["average_degree"]],
        ["diameter", record["diameter"]],
        ["connected", record["connected"]],
        ["solver backends", ", ".join(backends["available"])],
        ["solver default", backends["default"]],
    ]
    print(render_table(["property", "value"], rows))
    return 0


def command_devices(args: argparse.Namespace) -> int:
    records = device_records()
    if args.json:
        print(json.dumps(records, indent=2, sort_keys=True))
        return 0
    rows = [[record["device"], record["num_qubits"], record["num_edges"],
             round(record["average_degree"], 2), record["diameter"]]
            for record in records]
    print(render_table(["device", "qubits", "edges", "avg degree", "diameter"], rows,
                       title="Device catalogue"))
    print(f"\nrouters: {', '.join(list_routers())} (see `repro routers`)")
    return 0


def _render_option(option: dict) -> str:
    default = option["default"]
    rendered = "none" if default is None else default
    return f"{option['name']}={rendered}"


def command_routers(args: argparse.Namespace) -> int:
    entries = describe_routers(args.capability)
    if args.name is not None:
        entries = [entry for entry in entries if entry["name"] == args.name]
        if not entries:
            known = ", ".join(list_routers(args.capability))
            print(f"error: unknown router {args.name!r}; known: {known}",
                  file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    if args.name is not None:
        entry = entries[0]
        print(f"{entry['name']}: {entry['summary']}")
        print(f"capabilities: {', '.join(entry['capabilities']) or '-'}")
        rows = [[option["name"], option["type"] + ("?" if option["allow_none"] else ""),
                 "none" if option["default"] is None else option["default"],
                 option["help"]]
                for option in entry["options"]]
        print(render_table(["option", "type", "default", "description"], rows))
        print(f"\nspec string: {entry['name']}:"
              + ",".join(f"{o['name']}=..." for o in entry["options"][:2]))
        return 0
    rows = [[entry["name"], ", ".join(entry["capabilities"]),
             " ".join(_render_option(option) for option in entry["options"]
                      if option["name"] not in ("time_budget", "verify")) or "-",
             entry["summary"]]
            for entry in entries]
    print(render_table(["router", "capabilities", "options (defaults)", "summary"],
                       rows, title="Registered routers"))
    from repro.sat.backends import describe_backends

    backends = describe_backends()
    print(f"\nsolver backends: {', '.join(backends['available'])} "
          f"(default: {backends['default']}; select with "
          "solver_backend=... or --solver-backend)")
    print("select with --router NAME[:key=value,...]; "
          "details: repro routers NAME")
    return 0


def command_draw(args: argparse.Namespace) -> int:
    circuit = load_qasm(args.qasm)
    print(circuit_summary(circuit))
    print(draw_circuit(circuit, max_columns=args.max_columns, unicode=not args.ascii))
    return 0


def command_version(args: argparse.Namespace) -> int:
    from repro import __version__

    print(f"repro {__version__}")
    return 0


def command_generate(args: argparse.Namespace) -> int:
    if args.kind == "qft":
        circuit = qft_circuit(args.qubits)
    elif args.kind == "ghz":
        circuit = ghz_circuit(args.qubits)
    elif args.kind == "qaoa":
        circuit = maxcut_qaoa_circuit(num_qubits=args.qubits, num_cycles=args.cycles,
                                      seed=args.seed)
    else:
        circuit = random_circuit(num_qubits=args.qubits, num_two_qubit_gates=args.gates,
                                 seed=args.seed)
    save_qasm(circuit, args.output)
    print(f"{circuit_summary(circuit)}")
    print(f"written to {args.output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    budget = getattr(args, "time_budget", None)
    if budget is not None and not 0 < budget < math.inf:
        print("error: --time-budget must be positive and finite", file=sys.stderr)
        return 2
    commands = {
        "route": command_route,
        "compare": command_compare,
        "batch": command_batch,
        "serve": command_serve,
        "submit": command_submit,
        "trace": command_trace,
        "top": command_top,
        "info": command_info,
        "devices": command_devices,
        "routers": command_routers,
        "draw": command_draw,
        "generate": command_generate,
        "version": command_version,
    }
    handler = commands.get(args.command)
    if handler is None:  # pragma: no cover - argparse enforces the choices
        return 1
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
