#!/usr/bin/env python3
"""Sweep the rank-2 qutrit family over a parameter grid.

Runs the full analysis pipeline at every grid point, prints a verdict table
with the worst condition residuals, and writes the machine-readable sweep
report next to this script (or to --output).

Usage:
    python scripts/sweep_qutrit_grid.py
    python scripts/sweep_qutrit_grid.py --d 0.35 --c1 0.8 --c2 -1.2 --n 7
"""

import argparse
import time

import numpy as np

from qcrbsat import jsonio
from qcrbsat.cli import cmd_sweep, build_parser


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", default="0.6")
    ap.add_argument("--c1", type=float, default=1.0)
    ap.add_argument("--c2", type=float, default=0.7)
    ap.add_argument("--n", type=int, default=5, help="grid points per axis")
    ap.add_argument("--lo", type=float, default=0.1)
    ap.add_argument("--hi", type=float, default=0.9)
    ap.add_argument("--output", default="qutrit_sweep_report.json")
    args = ap.parse_args()

    grid = f"{args.lo}:{args.hi}:{args.n},{args.lo}:{args.hi}:{args.n}"
    cli_args = build_parser().parse_args(
        [
            "sweep",
            "--model", "qutrit-phase-mixture",
            "--params", f"d={args.d},c1={args.c1},c2={args.c2}",
            "--grid", grid,
        ]
    )
    start = time.perf_counter()
    payload = cmd_sweep(cli_args)
    elapsed = time.perf_counter() - start

    print(f"{'theta1':>8} {'theta2':>8} {'verdict':>22} {'cond1':>10} {'cond4':>14} {'partial':>10}")
    for rep in payload["sweep"]:
        if "error" in rep:
            print(f"{rep['theta'][0]:8.3f} {rep['theta'][1]:8.3f} {'ERROR':>22}  {rep['error']['type']}")
            continue
        t = rep["inputs"]["theta"]
        c = rep["conditions"]
        print(
            f"{t[0]:8.3f} {t[1]:8.3f} {rep['verdict']:>22} "
            f"{c['condition1']['residual']:10.2e} {c['condition4']['status']:>14} "
            f"{c['partial_commutativity']['residual']:10.2e}"
        )
    verdicts = [r.get("verdict") for r in payload["sweep"]]
    print(f"\n{len(verdicts)} points in {elapsed:.2f}s; "
          f"{verdicts.count('SATURABLE_CERTIFIED')} certified saturable")

    with open(args.output, "w", encoding="utf-8") as fh:
        jsonio.dump(payload, fh.write)
    print(f"report written to {args.output}")


if __name__ == "__main__":
    main()
