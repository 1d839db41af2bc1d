#!/usr/bin/env python3
"""Trace the single-photon secure-region frontier in the (e_b, alpha) plane.

Prints the two intercepts and the e_b = alpha crossing alongside the CSV.
"""

import argparse
from pathlib import Path

from qkd3 import bb84_tolerable_eb, tolerable_eb, tolerable_eb_equal
from qkd3.cli import main as qkd3_main


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=101)
    ap.add_argument("--method", choices=("exact", "approx"), default="approx")
    ap.add_argument("--out", type=Path, default=Path("results/fig2_region.csv"))
    args = ap.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    qkd3_main(
        [
            "region",
            "--steps", str(args.steps),
            "--method", args.method,
            "--out", str(args.out),
        ]
    )
    method = {"exact": "exact", "approx": "approximate"}[args.method]
    print(f"wrote {args.out} (+ manifest)")
    print(f"x-intercept (alpha = 0):   e_b = {tolerable_eb(0.0, method):.4f}")
    print(f"diagonal (e_b = alpha):    e_b = {tolerable_eb_equal(method):.4f}")
    print(f"BB84 one-way comparison:   e_b = {bb84_tolerable_eb():.4f}")


if __name__ == "__main__":
    main()
