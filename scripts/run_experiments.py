#!/usr/bin/env python3
"""Run the mean-estimation and histogram experiments for all nine mechanisms
and print the error tables.

Usage: python scripts/run_experiments.py --trials 200 --seed 6
"""

import argparse

from gaussdp import (
    MECHANISM_ORDER,
    PrivacyBudget,
    histogram_experiment,
    mean_experiment,
    synthetic_census_rows,
)


def print_table(title, reports):
    print(f"\n{title}")
    print(f"{'mechanism':<12} {'metric':>12} {'stderr':>12}")
    for r in reports:
        print(f"{str(r.mechanism):<12} {r.metric:>12.6g} {r.metric_stderr:>12.3g}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument("--rows", type=int, default=5000, help="synthetic records")
    args = parser.parse_args()

    mean_budget = PrivacyBudget(0.1, 1e-4)
    reports = mean_experiment(1000, 10, mean_budget, MECHANISM_ORDER, args.trials, args.seed)
    print_table(
        f"mean estimation, n=1000 d=10 eps={mean_budget.epsilon} "
        f"delta={mean_budget.delta} (l2 error)",
        reports,
    )

    hist_budget = PrivacyBudget(0.1, 1e-6)
    _, rows = synthetic_census_rows(args.rows, args.seed)
    reports = histogram_experiment(rows, hist_budget, MECHANISM_ORDER, args.trials, args.seed)
    print_table(
        f"histogram, {args.rows} synthetic records eps={hist_budget.epsilon} "
        f"delta={hist_budget.delta} (MSE)",
        reports,
    )


if __name__ == "__main__":
    main()
