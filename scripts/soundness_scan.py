#!/usr/bin/env python3
"""Stress the exact bound against seeded random attacks.

Every attack restricted to e_b, alpha <= 1/2 must satisfy
e_p <= exact_ep(e_b, alpha, capped=False); reports the worst
relative slack seen and any violations.
"""

import argparse
import time

from qkd3 import exact_ep, random_attack, rates_from_ensemble


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--attacks", type=int, default=10_000)
    ap.add_argument("--seed0", type=int, default=0)
    args = ap.parse_args()

    t0 = time.perf_counter()
    violations = 0
    worst = float("-inf")
    worst_at = None
    for seed in range(args.seed0, args.seed0 + args.attacks):
        r = rates_from_ensemble([random_attack(seed, region=True)])
        bound = exact_ep(r.e_b, r.alpha, capped=False)
        rel = (r.e_p - bound) / max(bound, 1e-300)
        if rel > worst:
            worst, worst_at = rel, (seed, r.e_b, r.alpha, r.e_p, bound)
        if rel > 1e-9:
            violations += 1
            print(f"VIOLATION seed={seed} rates={r} bound={bound}")
    dt = time.perf_counter() - t0
    print(
        f"{args.attacks} attacks in {dt:.1f}s: {violations} violations; "
        f"worst relative slack {worst:.3e}"
    )
    seed, e_b, alpha, e_p, bound = worst_at
    print(
        f"closest call: seed={seed} (e_b={e_b:.4f}, alpha={alpha:.4f}) "
        f"e_p={e_p:.6f} vs bound={bound:.6f}"
    )
    raise SystemExit(1 if violations else 0)


if __name__ == "__main__":
    main()
