"""E4 -- Table II / Fig. 2 / Fig. 13: impact of the locally optimal relaxation.

Paper result: the local relaxation lets SATMAP solve far more benchmarks
(109 at slice size 25 vs 70 for NL-SATMAP) and larger circuits (598 vs 128
two-qubit gates); small slice sizes hurt quality (mean cost ratio 2.69 vs
NL-SATMAP at slice size 10) while moderate ones roughly match it (≈0.9-1.0 at
25-100).  The reproduced claims: (1) with a fixed per-instance budget, sliced
SATMAP solves at least as many instances as NL-SATMAP, and (2) on instances
NL-SATMAP solves to optimality, no slice size produces a cheaper solution
(cost ratio >= 1 after accounting for both being feasible).
"""

import pytest
from _harness import SATMAP_BUDGET, run_once, save_report

from repro.analysis.experiments import run_many_routers
from repro.analysis.reporting import render_cost_ratio_summary, render_solve_rate_table
from repro.analysis.suite import default_architecture, small_suite
from repro.core import SatMapRouter
from repro.sat.backends import resolve_backend

SLICE_SIZES = (5, 10, 25)


def run_experiment():
    suite = small_suite()
    architecture = default_architecture(8)
    routers = {"NL-SATMAP": lambda: SatMapRouter(time_budget=SATMAP_BUDGET)}
    for slice_size in SLICE_SIZES:
        routers[f"SATMAP(slice={slice_size})"] = (
            lambda s=slice_size: SatMapRouter(slice_size=s, time_budget=SATMAP_BUDGET,
                                              name=f"SATMAP(slice={s})"))
    comparison = run_many_routers(routers, suite, architecture)
    return comparison, len(suite)


@pytest.mark.xfail(resolve_backend() == "native", strict=True, reason=(
    "ROADMAP item 1: the native core is unsound; NL-SATMAP claims OPTIMAL "
    "19 SWAPs on small_03_q6_g40, where slicing finds 11"))
def test_table2_fig13_local_relaxation(benchmark):
    comparison, total = run_once(benchmark, run_experiment)
    solve_table = render_solve_rate_table(
        comparison, total,
        title="Table II (scaled): instances solved per local-relaxation level")
    ratio_table = render_cost_ratio_summary(
        comparison, "NL-SATMAP",
        [f"SATMAP(slice={s})" for s in SLICE_SIZES],
        title="Fig. 13 (scaled): sliced cost / NL-SATMAP cost "
              "(ratios are inverted relative to Fig. 12: reference is each slice level)")
    save_report("table2_fig13_slicing", solve_table + "\n\n" + ratio_table)

    nl_solved = comparison.solved_count("NL-SATMAP")
    sliced_solved = {slice_size: comparison.solved_count(f"SATMAP(slice={slice_size})")
                     for slice_size in SLICE_SIZES}
    # The paper's claim is that slicing never *loses* instances at a suitable
    # slice size (Table II): the best slice configuration must keep pace with
    # NL-SATMAP, and no configuration may fall far behind (a small slack
    # absorbs per-instance timeout jitter on loaded machines).
    assert max(sliced_solved.values()) >= nl_solved - 1, (
        "the best slice size should solve at least as many instances as NL-SATMAP")
    slack = max(2, total // 4)
    for slice_size, solved in sliced_solved.items():
        assert solved >= nl_solved - slack, (
            f"SATMAP(slice={slice_size}) fell more than {slack} instances behind "
            "NL-SATMAP under the same budget")

    # Quality: where NL-SATMAP is optimal, slicing can only match or worsen cost.
    nl_records = {record.circuit: record for record in comparison.records["NL-SATMAP"]}
    for slice_size in SLICE_SIZES:
        for record in comparison.records[f"SATMAP(slice={slice_size})"]:
            reference = nl_records.get(record.circuit)
            if reference is None or not (record.solved and reference.solved
                                         and reference.optimal):
                continue
            assert record.swap_count >= reference.swap_count
