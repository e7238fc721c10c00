"""Ablation: the hybrid mapper sketched in the paper's discussion (Section IX).

The paper suggests scaling the MaxSAT approach by solving only the *mapping*
constraints optimally and leaving routing to a heuristic.  The repository
implements that design as :class:`repro.core.hybrid.HybridSatMapRouter`; this
benchmark positions it between full SATMAP and pure SABRE on the scaled suite.

Expected shape: the hybrid's cost sits between SABRE's and SATMAP's (closer to
SABRE, since routing is heuristic again), while its placement instance stays
small -- one map step regardless of circuit length -- so it never times out on
circuits where full SATMAP does.
"""

import pytest
from _harness import SATMAP_BUDGET, run_once, save_report

from repro.analysis.reporting import render_table
from repro.analysis.suite import default_architecture, small_suite
from repro.baselines import SabreRouter
from repro.core import HybridSatMapRouter, SatMapRouter

ROUTERS = ("SATMAP", "HYBRID", "SABRE")


def run_experiment():
    suite = small_suite()[:12]
    architecture = default_architecture(8)
    records = {name: [] for name in ROUTERS}
    for bench in suite:
        records["SATMAP"].append(
            SatMapRouter(slice_size=10, time_budget=SATMAP_BUDGET).route(
                bench.circuit, architecture))
        records["HYBRID"].append(
            HybridSatMapRouter(time_budget=SATMAP_BUDGET).route(
                bench.circuit, architecture))
        records["SABRE"].append(SabreRouter().route(bench.circuit, architecture))
    return suite, records


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: slice-local optima are myopic; sliced SATMAP "
    "(slice_size=10) totals 8 SWAPs against 3 for HYBRID and SABRE"))
def test_ablation_hybrid_router(benchmark):
    suite, records = run_once(benchmark, run_experiment)

    rows = []
    for name in ROUTERS:
        solved = [result for result in records[name] if result.solved]
        total_swaps = sum(result.swap_count for result in solved)
        mean_time = (sum(result.solve_time for result in solved) / len(solved)
                     if solved else float("nan"))
        rows.append([name, f"{len(solved)}/{len(suite)}", total_swaps,
                     round(mean_time, 2)])
    report = render_table(
        ["router", "# solved", "total swaps (solved)", "mean time (s)"],
        rows, title="Ablation: hybrid placement+heuristic routing (Section IX)")

    per_circuit = []
    for index, bench in enumerate(suite):
        row = [bench.name, bench.num_two_qubit_gates]
        for name in ROUTERS:
            result = records[name][index]
            row.append(result.swap_count if result.solved else "-")
        per_circuit.append(row)
    report += "\n\n" + render_table(
        ["circuit", "2q gates"] + [f"{name} swaps" for name in ROUTERS], per_circuit,
        title="Per-circuit swap counts")
    save_report("ablation_hybrid", report)

    # The hybrid router's placement instance is circuit-length independent, so
    # it must solve everything the heuristics solve.
    hybrid_solved = sum(1 for result in records["HYBRID"] if result.solved)
    assert hybrid_solved == len(suite)

    # Aggregate quality ordering on commonly-solved instances:
    # SATMAP <= HYBRID (hybrid gives up optimal routing) and the hybrid stays
    # within a reasonable factor of SABRE.
    common = [index for index in range(len(suite))
              if all(records[name][index].solved for name in ROUTERS)]
    satmap_total = sum(records["SATMAP"][index].swap_count for index in common)
    hybrid_total = sum(records["HYBRID"][index].swap_count for index in common)
    sabre_total = sum(records["SABRE"][index].swap_count for index in common)
    assert satmap_total <= hybrid_total + 2
    assert hybrid_total <= 2 * sabre_total + 10
