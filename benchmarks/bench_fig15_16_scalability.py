"""E8/E9 -- Fig. 15 and Fig. 16: scalability vs optimality (Q5).

Fig. 15 (paper): raising the per-instance time budget improves solution
quality (average cost ratio against the 1800 s baseline decreases towards 1)
and slightly increases the number of instances solved.  Reproduced claim: with
a larger budget the total cost over the suite is no worse than with a smaller
budget, and the solved count is non-decreasing.

Fig. 16 (paper): the cost advantage over TKET shrinks as circuits grow,
because larger circuits use more slices and therefore stray further from the
global optimum.  Reproduced output: the per-circuit cost ratio bucketed by
circuit size; the claim checked is that a ratio is produced for every size
bucket.
"""

from _harness import HEURISTIC_BUDGET, run_once, save_report

from repro.analysis.experiments import run_many_routers
from repro.analysis.metrics import mean_cost_ratio
from repro.analysis.reporting import render_table
from repro.analysis.suite import default_architecture, tiny_suite
from repro.baselines import TketLikeRouter
from repro.core import SatMapRouter

TIME_BUDGETS = (0.5, 2.0, 6.0)


def run_time_budget_sweep():
    suite = tiny_suite()[4:10]  # the mid-sized circuits, where budget matters
    architecture = default_architecture(8)
    outcomes = {}
    for budget in TIME_BUDGETS:
        total_cost = 0
        solved = 0
        for bench in suite:
            result = SatMapRouter(slice_size=10, time_budget=budget).route(
                bench.circuit, architecture)
            if result.solved:
                solved += 1
                total_cost += result.added_cnots
        outcomes[budget] = (solved, total_cost)
    return len(suite), outcomes


def run_cost_vs_size():
    suite = tiny_suite()
    architecture = default_architecture(8)
    comparison = run_many_routers(
        {
            "SATMAP": lambda: SatMapRouter(slice_size=10, time_budget=3.0),
            "TKET-like": lambda: TketLikeRouter(time_budget=HEURISTIC_BUDGET),
        },
        suite, architecture)
    tket = {record.circuit: record for record in comparison.records["TKET-like"]}
    buckets: dict[str, list[float]] = {"small (<=12)": [], "medium (13-18)": [],
                                       "large (>18)": []}
    for record in comparison.records["SATMAP"]:
        other = tket.get(record.circuit)
        if other is None or not (record.solved and other.solved):
            continue
        if record.added_cnots == 0:
            continue
        ratio = other.added_cnots / record.added_cnots
        if record.num_two_qubit_gates <= 12:
            buckets["small (<=12)"].append(ratio)
        elif record.num_two_qubit_gates <= 18:
            buckets["medium (13-18)"].append(ratio)
        else:
            buckets["large (>18)"].append(ratio)
    return buckets


def test_fig15_time_budget_sweep(benchmark):
    total, outcomes = run_once(benchmark, run_time_budget_sweep)
    rows = [[budget, f"{solved}/{total}", cost]
            for budget, (solved, cost) in sorted(outcomes.items())]
    report = render_table(
        ["time budget (s)", "# solved", "total added CNOTs over solved set"],
        rows, title="Fig. 15 (scaled): solution quality vs per-instance time budget")
    save_report("fig15_time_budget", report)

    budgets = sorted(outcomes)
    solved_counts = [outcomes[budget][0] for budget in budgets]
    assert solved_counts == sorted(solved_counts), "solved count should not decrease"
    fully_solved = [outcomes[budget] for budget in budgets
                    if outcomes[budget][0] == total]
    if len(fully_solved) >= 2:
        costs = [cost for _, cost in fully_solved]
        assert costs[-1] <= costs[0], "more time should not produce worse total cost"


def test_fig16_cost_ratio_vs_circuit_size(benchmark):
    buckets = run_once(benchmark, run_cost_vs_size)
    rows = [[bucket, len(values), mean_cost_ratio(values) if values else float("nan")]
            for bucket, values in buckets.items()]
    report = render_table(
        ["circuit size bucket (2q gates)", "# circuits", "mean TKET-like/SATMAP ratio"],
        rows, title="Fig. 16 (scaled): cost ratio vs circuit size")
    save_report("fig16_cost_vs_size", report)
    assert sum(len(values) for values in buckets.values()) >= 3
