#!/usr/bin/env python3
"""perfbench: paper-scale, layer-by-layer benchmark of the SATMAP router stack.

Run from the repository root::

    python3 perfbench/run.py --workload tokyo-sliced --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke        # every workload, both modes, tiny inputs

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it stamp the host and print every figure with its unit.

The compiled solve core is built from ``src/`` on first use (into the
source tree, with build files under ``.bench_build/``) and is required:
every workload pins ``solver_backend="native"``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
#: Set-up is measured this many times per run, in fresh processes.
SETUP_PROBES = 3
#: Served workloads measure their router and serving layers on this many
#: of their circuits in the traced run.
SERVED_LAYER_SET = 24
#: Direct workloads run the serving ladder on their first (cheapest)
#: circuits only: every rung routes each of them again.
LADDER_SET = {"tokyo-sliced": 1, "tokyo8-optimal": 3}


class SetupError(Exception):
    """The benchmark cannot run here; reported without a result line."""


# ----------------------------------------------------------------- set-up


def ensure_native() -> float:
    """Build ``repro.sat._native.core`` in place when missing or stale.

    Returns the seconds spent building (0 when the build was current).
    """
    native_dir = ROOT / "src" / "repro" / "sat" / "_native"
    source = native_dir / "core.c"
    stamp = BUILD_DIR / "native.stamp"
    wanted = hashlib.sha256(source.read_bytes() + sys.version.encode()).hexdigest()
    if (list(native_dir.glob("core*.so")) and stamp.exists()
            and stamp.read_text() == wanted):
        return 0.0
    started = time.time()
    process = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace",
         "--build-temp", str(BUILD_DIR / "native" / "tmp"),
         "--build-lib", str(BUILD_DIR / "native" / "lib")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    fresh = [path for path in native_dir.glob("core*.so")
             if path.stat().st_mtime >= started - 1.0]
    if process.returncode != 0 or not fresh:
        raise SetupError(
            "building the native solve core failed; this benchmark needs it "
            "(it never falls back to the python core):\n"
            + (process.stderr or process.stdout)[-2000:])
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    stamp.write_text(wanted)
    return time.time() - started


def prepare() -> float:
    """Check the tree, build and import the native core; returns build seconds."""
    if not (ROOT / "src" / "repro" / "__init__.py").exists() \
            or not (ROOT / "setup.py").exists():
        raise SetupError(f"no repro sources next to {HERE.name}/ "
                         "(expected src/repro and setup.py)")
    build_seconds = ensure_native()
    sys.path.insert(0, str(ROOT / "src"))
    from repro.sat.backends import resolve_backend

    try:
        resolve_backend("native")
    except RuntimeError as error:
        raise SetupError(str(error)) from None
    return build_seconds


def host_stamp(seed: int, build_seconds: float) -> dict:
    import repro
    from repro.sat.backends import resolve_backend

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".py", ".c"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    compiler = sysconfig.get_config_var("CC") or "cc"
    try:
        version = subprocess.run([compiler.split()[0], "--version"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        version = "unknown"
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "compiler": version,
        "backend": resolve_backend("native"),
        "repro": repro.__version__,
        "commit": commit or "unknown (not a git checkout)",
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "native_build_s": round(build_seconds, 3),
    }


def load_reference(circuit_list) -> dict:
    """Reference entries by digest; every workload circuit must have one."""
    path = HERE / "reference.json"
    if not path.exists():
        raise SetupError("perfbench/reference.json is missing; regenerate it "
                         "with python3 perfbench/reference.py")
    entries = json.loads(path.read_text())["circuits"]
    missing = [item.label for item in circuit_list if item.digest not in entries]
    if missing:
        raise SetupError(f"reference.json has no entry for {missing[:5]}; "
                         "regenerate it with python3 perfbench/reference.py")
    return entries


def build_stack(workload):
    """The router or serving stack of a workload, warmed with one job.

    Returns ``(router_or_stack, teardown)``.
    """
    import serving
    import workloads
    from repro.api.registry import get_router

    warm = workloads.warmup_circuit(workload.name)
    if workload.mode == "direct":
        router = get_router(workload.spec)
        result = router.route(warm.circuit, workloads.architecture(workload.arch))
        if not result.solved:
            raise SetupError(f"warm-up job failed: {result.status.value} {result.notes}")
        return router, lambda: None
    stack = serving.ServedStack(
        workload.mode, ROOT, cache="memory" if workload.mode == "gateway" else "disk",
        max_records=workloads.SERVED_MAX_RECORDS).start()
    job = serving.submit_and_wait(stack.client(0), warm, workload.arch, workload.spec)
    if job.error is not None or not job.result.solved:
        stack.stop()
        raise SetupError(f"warm-up job failed: {job.error}")
    return stack, stack.stop


def probe_setup(name: str) -> int:
    """Child process: set up the workload, report, tear down."""
    prepare()
    import workloads

    _, teardown = build_stack(workloads.WORKLOADS[name])
    print("ready", flush=True)
    teardown()
    return 0


def measure_setup(name: str, probes: int) -> list[float]:
    """Seconds from spawning a fresh process to its first job accepted."""
    samples = []
    for _ in range(probes):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--probe-setup",
             "--workload", name],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            while line and line.strip() != "ready":
                line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
        finally:
            code = child.wait(timeout=170)
        if not line or code != 0:
            raise SetupError(f"set-up probe for {name} failed (exit {code})")
        samples.append(elapsed)
    return samples


# -------------------------------------------------------------- measuring


def direct_pass(router, arch, order) -> tuple[list, float]:
    """Route ``order`` one job at a time; returns ``(jobs, route wall)``."""
    from serving import Job

    jobs = []
    for item in order:
        started = time.perf_counter()
        result = error = None
        try:
            result = router.route(item.circuit, arch)
        except Exception as failure:  # a failed job is counted, never fatal
            error = f"{type(failure).__name__}: {failure}"
        jobs.append(Job(item, result, error, time.perf_counter() - started))
    return jobs, sum(job.latency for job in jobs)


def judge_all(jobs, refs: dict) -> None:
    import checker
    import workloads

    for job in jobs:
        arch = workloads.architecture(job.circuit.arch)
        job.verdict = checker.judge(job.result, job.circuit.circuit, arch,
                                    refs[job.circuit.digest], error=job.error)


def workload_inputs(workload, smoke: bool) -> list:
    import workloads

    circuit_list = workloads.circuits(workload.name)
    if smoke and workload.mode == "direct":
        return circuit_list[:2]
    return circuit_list


def served_stream(workload, seconds: float, seed: int) -> list:
    import workloads

    unique = workloads.served_unique_count(workload.name, seconds)
    return workloads.served_rounds(workloads.served_pool(), unique, seed)


def run_end_to_end(workload, seed: int, seconds: float, smoke: bool,
                   refs: dict) -> tuple[dict, list, dict]:
    """Measured section of a ``--trace 0`` run."""
    import serving
    import workloads
    from stats import PeakRss

    setup = measure_setup(workload.name, 1 if smoke else SETUP_PROBES)
    subject, teardown = build_stack(workload)
    passes, walls = [], []
    rejected = retries = 0
    try:
        with PeakRss() as rss:
            if workload.mode == "direct":
                arch = workloads.architecture(workload.arch)
                circuit_list = workload_inputs(workload, smoke)
                for index in range(workloads.direct_pass_count(workload.name,
                                                               seconds)):
                    order = workloads.pass_order(circuit_list, seed, index)
                    pass_started = time.perf_counter()
                    jobs, _ = direct_pass(subject, arch, order)
                    walls.append(time.perf_counter() - pass_started)
                    passes.append(jobs)
            else:
                jobs, wall, retries = serving.drive_rounds(
                    subject, served_stream(workload, seconds, seed),
                    workload.arch, workload.spec)
                counters = serving.served_counters(subject.client(0).stats())
                rejected = counters["rejected"]
                passes, walls = [jobs], [wall]
    finally:
        teardown()
    for jobs in passes:
        judge_all(jobs, refs)
    return summarise(passes, walls, refs, setup, rss.peak_mb, rejected, retries)


def summarise(passes, walls, refs, setup, rss_mb, rejected, retries):
    """End-to-end metrics plus the extra figures printed beside them."""
    from stats import median, tail

    jobs = [job for jobs in passes for job in jobs]
    attempted = len(jobs)
    passed = [job for job in jobs if job.verdict.ok]
    per_pass = []
    for pass_jobs in passes:
        good = [job for job in pass_jobs if job.verdict.valid]
        swaps = sum(job.verdict.swaps for job in good)
        sabre = sum(refs[job.circuit.digest]["sabre"] for job in good)
        best = sum(refs[job.circuit.digest]["best"] for job in good)
        per_pass.append((swaps, swaps / sabre if sabre else float(swaps),
                         swaps / best if best else float(swaps)))
    tail_value, tail_pct, samples = tail([job.latency for job in jobs])
    refused = rejected + retries
    ok_jobs = max(0, len(passed) - refused)
    reasons: dict[str, int] = {}
    for job in jobs:
        if not job.verdict.ok:
            reasons[job.verdict.reason] = reasons.get(job.verdict.reason, 0) + 1
    metrics = {
        "wall_s": median(walls),
        "job_p50_s": median(job.latency for job in jobs),
        "job_tail_s": tail_value,
        "swaps_total": median(entry[0] for entry in per_pass),
        "swap_ratio_sabre": median(entry[1] for entry in per_pass),
        "swap_ratio_best": median(entry[2] for entry in per_pass),
        "ok_rate": ok_jobs / attempted if attempted else 0.0,
        "setup_s": median(setup),
        "peak_rss_mb": rss_mb,
    }
    extra = {
        "passes": len(passes),
        "job_tail_percentile": tail_pct,
        "job_samples": samples,
        "setup_samples_s": [round(value, 4) for value in setup],
        "fail_rate": 1.0 - metrics["ok_rate"],
        "optimal_rate": (sum(job.verdict.optimal_match for job in jobs) / attempted
                         if attempted else 0.0),
        "failures": reasons,
        "admission_rejected": rejected,
        "client_retries": retries,
        "first_failures": [f"{job.circuit.label}: {job.verdict.reason}: "
                           f"{job.verdict.detail}"
                           for job in jobs if not job.verdict.ok][:6],
    }
    return metrics, tally(jobs, refused), extra


def tally(jobs, refused: int) -> dict:
    """The result line's counts over judged jobs.

    ``failed`` counts jobs that returned no valid routing plus admission
    refusals and client retries.  ``correct`` needs every routing to pass
    the checker and every circuit to get the same SWAP count each time it
    was routed, so runs compare exactly.
    """
    swaps: dict[str, set] = {}
    for job in jobs:
        if job.verdict.valid:
            swaps.setdefault(job.circuit.label, set()).add(job.verdict.swaps)
    invalid = sum(not job.verdict.valid for job in jobs)
    return {"attempted": len(jobs),
            "failed": min(len(jobs), invalid + refused),
            "correct": all(job.verdict.reason != "checker" for job in jobs)
                       and all(len(counts) == 1 for counts in swaps.values())}


def run_traced(workload, seed: int, seconds: float, smoke: bool,
               refs: dict) -> tuple[dict, dict, dict]:
    """A ``--trace 1`` run: router layers, the serving ladder, served stream."""
    import layers
    import serving
    import workloads
    from repro.api.registry import get_router
    from stats import median

    arch = workloads.architecture(workload.arch)
    if workload.mode == "direct":
        layer_set = workload_inputs(workload, smoke)
        ladder_set = layer_set[:LADDER_SET[workload.name]]
    else:
        layer_set = workloads.served_pool()[:4 if smoke else SERVED_LAYER_SET]
        ladder_set = layer_set
    order = workloads.pass_order(layer_set, seed, 0)
    router = get_router(workload.spec)
    router.route(workloads.warmup_circuit(workload.name).circuit, arch)
    all_jobs = []

    base_jobs, base_wall = direct_pass(router, arch, order)
    meter = layers.RouterLayers()
    with meter.active():
        traced_jobs, traced_wall = direct_pass(router, arch, order)
    metrics = meter.metrics(traced_wall, [job.result for job in traced_jobs])
    metrics["obs.overhead"] = traced_wall / base_wall - 1.0
    all_jobs += base_jobs + traced_jobs
    extra = {"nested_layer_calls": meter.counts["nested"],
             "layers_share_of_route_wall":
                 1.0 - metrics["route.other_s"] / traced_wall}

    ladder_metrics, ladder_jobs, ladder_extra = serving_ladder(
        workload, ladder_set, base_jobs)
    metrics.update(ladder_metrics)
    extra.update(ladder_extra)
    all_jobs += ladder_jobs

    if workload.mode != "direct":
        stack, teardown = build_stack(workload)
        try:
            jobs, _, retries = serving.drive_rounds(
                stack, served_stream(workload, seconds, seed),
                workload.arch, workload.spec, fetch_trace=True)
            counters = serving.served_counters(stack.client(0).stats())
        finally:
            teardown()
        all_jobs += jobs
        metrics.update({
            "queue.wait_s": median(job.queue_wait for job in jobs
                                   if job.queue_wait is not None),
            "cache.hit_ratio": counters["hit_ratio"],
            "job_hit_p50_s": median(job.latency for job in jobs if job.path == "hit"),
            "job_miss_p50_s": median(job.latency for job in jobs
                                     if job.path == "first"),
            "dedup.joined": counters["joined"],
            "admission.rejected": counters["rejected"],
            "client.retries": retries,
        })
    judge_all(all_jobs, refs)
    refused = metrics["admission.rejected"] + metrics["client.retries"]
    return metrics, tally(all_jobs, refused), extra


def serving_ladder(workload, ladder_set, direct_jobs):
    """Per-job medians of each serving rung on the same jobs, differenced."""
    import layers
    import serving
    import workloads
    from repro.service import BatchRoutingService
    from repro.service.jobs import RoutingJob
    from stats import median

    arch = workloads.architecture(workload.arch)
    labels = {item.label for item in ladder_set}
    direct = median(job.latency for job in direct_jobs if job.circuit.label in labels)
    jobs = [RoutingJob.from_circuit(item.circuit, arch, router=workload.spec,
                                    name=item.label) for item in ladder_set]
    warm = RoutingJob.from_circuit(workloads.warmup_circuit(workload.name).circuit,
                                   arch, router=workload.spec, name="warmup")
    ladder_jobs = []

    def service_rung(service) -> list[float]:
        latencies = []
        for item, job in zip(ladder_set, jobs):
            started = time.perf_counter()
            result = service.route_one(job)
            latencies.append(time.perf_counter() - started)
            ladder_jobs.append(serving.Job(item, result, None, latencies[-1]))
        return latencies

    with layers.IpcMeter() as ipc, BatchRoutingService(
            mode="serial", cache=False, time_budget=serving.SERVED_BUDGET) as service:
        service.route_one(warm)
        ipc.sizes.clear()
        serial = service_rung(service)
    pairs = [(job, served.result) for job, served in zip(jobs, ladder_jobs)
             if served.result is not None and served.result.solved]
    with BatchRoutingService(max_workers=2, mode="process", cache=False,
                             time_budget=serving.SERVED_BUDGET) as service:
        service.route_one(warm)
        process = service_rung(service)

    rung_figures = {}
    for kind in ("gateway", "fleet"):
        with serving.ServedStack(kind, ROOT, cache=None, max_records=None) as stack:
            client = stack.client(0)
            serving.submit_and_wait(client, workloads.warmup_circuit(workload.name),
                                    workload.arch, workload.spec)
            first = [serving.submit_and_wait(client, item, workload.arch,
                                             workload.spec, fetch_trace=True)
                     for item in ladder_set]
            again = [serving.submit_and_wait(client, item, workload.arch,
                                             workload.spec)
                     for item in ladder_set]
            counters = serving.served_counters(client.stats())
        ladder_jobs += first + again
        rung_figures[kind] = (first, again, counters, client.retries)

    gateway_first, gateway_again, gateway_counters, gateway_retries = \
        rung_figures["gateway"]
    fleet_first = rung_figures["fleet"][0]
    if workload.name == "fleet-mixed":  # the fleet's cache lives on disk
        with serving.build_area_tempdir(ROOT) as directory:
            cache_get, cache_put = layers.cache_replay(pairs, directory)
    else:
        cache_get, cache_put = layers.cache_replay(pairs)
    gateway = median(job.latency for job in gateway_first)
    fleet = median(job.latency for job in fleet_first)
    metrics = {
        "service.s": median(serial) - direct,
        "pool.ipc_s": median(process) - median(serial),
        "pool.ipc_bytes": median(ipc.sizes),
        "http.s": gateway - median(process),
        "dispatch.s": fleet - gateway,
        "cache.get_s": cache_get,
        "cache.put_s": cache_put,
        # Direct workloads have no served stream: these come from the
        # gateway rung (first submissions vs. resubmissions of done jobs).
        "queue.wait_s": median(job.queue_wait for job in gateway_first
                               if job.queue_wait is not None),
        "cache.hit_ratio": gateway_counters["hit_ratio"],
        "job_hit_p50_s": median(job.latency for job in gateway_again),
        "job_miss_p50_s": gateway,
        "dedup.joined": gateway_counters["joined"],
        "admission.rejected": gateway_counters["rejected"],
        "client.retries": gateway_retries,
    }
    extra = {"ladder_jobs": len(ladder_set),
             "rung_p50_s": {"direct": direct, "service_serial": median(serial),
                            "service_process": median(process),
                            "gateway": gateway, "fleet": fleet}}
    return metrics, ladder_jobs, extra


# ---------------------------------------------------------------- output


def benchmark_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        raise SetupError("BENCHMARK.json is missing from the checkout root")
    return json.loads(path.read_text())


def emit(workload, spec, declared, metrics, counts, stamp, extra) -> None:
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(f"perfbench {workload.name}: {why.get(workload.name, '')}")
    for entry in declared:
        name = entry["name"]
        print(f"  {name:<30} {metrics[name]!r:>24} {entry['unit']}")
    for key, value in extra.items():
        print(f"  {key:<30} {value}")
    print(json.dumps({
        "correct": bool(counts["correct"]),
        "attempted": int(counts["attempted"]),
        "failed": int(counts["failed"]),
        "metrics": {entry["name"]: {"value": metrics[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in declared},
    }))


def run_smoke() -> int:
    """Every workload in both modes on tiny inputs; every metric present."""
    spec = benchmark_spec()
    import workloads

    problems = []
    for name in workloads.WORKLOADS:
        for trace, declared in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            process = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "1", "--seconds", "1", "--trace", trace, "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = process.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{name} trace={trace}: no result "
                                f"(exit {process.returncode}) {process.stderr[-500:]}")
                continue
            names = {entry["name"] for entry in declared}
            missing = sorted(names - set(result["metrics"]))
            status = "ok" if not missing and result["correct"] else "BAD"
            print(f"{status} {name} trace={trace}: {len(result['metrics'])} metrics, "
                  f"attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}"
                  + (f", missing {missing}" if missing else ""), flush=True)
            if status != "ok":
                problems.append(f"{name} trace={trace}: missing {missing}")
    for problem in problems:
        print("problem:", problem)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="SATMAP stack benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; without --workload, check every "
                             "workload in both modes")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.probe_setup:
            return probe_setup(args.workload)
        build_seconds = prepare()
        if args.smoke and args.workload is None:
            return run_smoke()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise SetupError(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
        workload = workloads.WORKLOADS[args.workload]
        spec = benchmark_spec()
        refs = load_reference(workloads.circuits(workload.name))
        stamp = host_stamp(args.seed, build_seconds)
        if args.trace:
            metrics, counts, extra = run_traced(workload, args.seed, args.seconds,
                                                args.smoke, refs)
            declared = spec["per_layer"]
        else:
            metrics, counts, extra = run_end_to_end(workload, args.seed,
                                                    args.seconds, args.smoke, refs)
            declared = spec["end_to_end"]
    except SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    emit(workload, spec, declared, metrics, counts, stamp, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
