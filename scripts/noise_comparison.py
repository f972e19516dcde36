#!/usr/bin/env python3
"""Sweep the noise amounts of all nine mechanisms over a delta grid, for a
handful of eps values, and write a plot-ready CSV: the ``gaussdp compare``
table on this grid.

Usage: python scripts/noise_comparison.py --out noise_comparison.csv
"""

import argparse

from gaussdp import MECHANISM_ORDER
from gaussdp.cli import main as gaussdp_main

EPS_VALUES = (0.1, 1.0, 5.0, 10.0, 15.0, 20.0)
DELTA_VALUES = tuple(10.0 ** exponent for exponent in range(-10, -1))  # 1e-10 .. 1e-2


def grid(values) -> str:
    # repr round-trips, so compare parses back the exact doubles
    return ",".join(map(repr, values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="noise_comparison.csv")
    parser.add_argument("--sens", type=float, default=1.0)
    args = parser.parse_args(argv)

    status = gaussdp_main(
        ["compare", "--eps-grid", grid(EPS_VALUES), "--delta-grid", grid(DELTA_VALUES),
         "--sens", repr(args.sens), "--output", args.out]
    )
    if status == 0:
        cells = len(EPS_VALUES) * len(DELTA_VALUES) * len(MECHANISM_ORDER)
        print(f"wrote {cells} rows to {args.out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
