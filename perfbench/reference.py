"""Regenerate ``reference.json``: the answers every benchmark run is checked against.

For every circuit any workload can route, the reference holds

* ``sabre``: the SWAP count of the SABRE heuristic (default settings);
* ``optimum``: the NL-SATMAP model optimum (one SWAP slot per gate) proved
  by the pure-Python SAT core under a long budget, or ``bound``: the best
  cost that core found in the same model when no proof finished (for the
  sliced Tokyo circuits: the sliced model, which never proves anything);
* ``best``: the lowest SWAP count of any routing above that passed the
  checker.

Every routing is replayed by :mod:`checker` before its cost is recorded.
This is slow (tens of minutes on two cores) and never runs inside a timed
benchmark run.  Usage, from the repository root::

    python3 perfbench/reference.py [--workload NAME] [--jobs 2] [--force]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"

#: Python-core budget per circuit, seconds, by workload.
MODEL_BUDGET = {"tokyo-sliced": 900.0, "tokyo8-optimal": 900.0,
                "gateway-mixed": 120.0, "fleet-mixed": 120.0}


def _model_router(workload: str, budget: float):
    from repro.core.satmap import SatMapRouter

    slice_size = 10 if workload == "tokyo-sliced" else None
    return SatMapRouter(slice_size=slice_size, solver_backend="python",
                        time_budget=budget)


def compute_entry(task: tuple) -> tuple[str, dict]:
    """Reference entry for one ``(workload, label, digest)`` task."""
    workload, label, digest = task
    import checker
    import workloads
    from repro.baselines import SabreRouter

    circuit = next(item for item in workloads.circuits(workload)
                   if item.label == label)
    arch = workloads.architecture(circuit.arch)
    entry = {"label": label, "arch": circuit.arch,
             "model": "sliced-satmap" if workload == "tokyo-sliced" else "nl-satmap"}
    costs = []
    sabre = SabreRouter(time_budget=60.0).route(circuit.circuit, arch)
    verdict = checker.judge(sabre, circuit.circuit, arch, {})
    if not verdict.ok:
        raise RuntimeError(f"SABRE routing of {label} failed: {verdict.detail}")
    entry["sabre"] = verdict.swaps
    costs.append(verdict.swaps)

    started = time.monotonic()
    result = _model_router(workload, MODEL_BUDGET[workload]).route(
        circuit.circuit, arch)
    entry["model_seconds"] = round(time.monotonic() - started, 3)
    verdict = checker.judge(result, circuit.circuit, arch, {})
    if verdict.ok:
        key = "optimum" if result.status.value == "optimal" else "bound"
        entry[key] = verdict.swaps
        costs.append(verdict.swaps)
    entry["best"] = min(costs)
    return digest, entry


def _init_worker() -> None:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="only these workloads (repeatable)")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--force", action="store_true",
                        help="recompute entries that already exist")
    args = parser.parse_args(argv)
    _init_worker()
    import workloads

    existing = (json.loads(REFERENCE_PATH.read_text())
                if REFERENCE_PATH.exists() else {"circuits": {}})
    in_use = {circuit.digest for name in workloads.WORKLOADS
              for circuit in workloads.circuits(name)}
    entries = {digest: entry for digest, entry in existing["circuits"].items()
               if digest in in_use}
    tasks = []
    for name in args.workload or list(workloads.WORKLOADS):
        for circuit in workloads.circuits(name):
            digest = circuit.digest
            if (args.force or digest not in entries) and digest not in {
                    task[2] for task in tasks}:
                tasks.append((name, circuit.label, digest))
    print(f"{len(tasks)} circuits to solve", flush=True)
    context = multiprocessing.get_context("spawn")
    with context.Pool(max(1, args.jobs), initializer=_init_worker) as pool:
        for done, (digest, entry) in enumerate(
                pool.imap_unordered(compute_entry, tasks), start=1):
            entries[digest] = entry
            print(f"[{done}/{len(tasks)}] {entry}", flush=True)
            if done % 20 == 0 or done == len(tasks):
                _write(entries)
    _write(entries)
    return 0


def _write(entries: dict) -> None:
    payload = {"about": "see perfbench/reference.py",
               "circuits": dict(sorted(entries.items()))}
    temporary = REFERENCE_PATH.with_suffix(".tmp")
    temporary.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    os.replace(temporary, REFERENCE_PATH)


if __name__ == "__main__":
    sys.exit(main())
