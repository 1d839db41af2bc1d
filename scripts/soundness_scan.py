#!/usr/bin/env python3
"""Stress the exact bound against seeded random attacks.

Every attack restricted to e_b, alpha <= 1/2 must satisfy
e_p <= exact_ep(e_b, alpha, capped=False); reports the worst relative slack
seen and any violations, the share of attacks on the capped path
(uncapped bound above 1/2), and a per-decade histogram of the relative
slack (bound - e_p) / bound.
"""

import argparse
import math
import time
from collections import Counter

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
    capped = 0
    decades = Counter()  # floor(log10(slack)); None for slack <= 0
    for seed in range(args.seed0, args.seed0 + args.attacks):
        r = rates_from_ensemble([random_attack(seed, region=True)])
        bound = exact_ep(r.e_b, r.alpha, capped=False)
        rel = (r.e_p - bound) / max(bound, 1e-300)
        capped += bound > 0.5
        decades[math.floor(math.log10(-rel)) if rel < 0.0 else None] += 1
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
    print(f"capped path (uncapped bound > 1/2): {capped / args.attacks:.1%}")
    print("relative slack histogram:")
    for d in sorted(k for k in decades if k is not None):
        print(f"  [1e{d}, 1e{d + 1}): {decades[d]}")
    if None in decades:
        print(f"  <= 0: {decades[None]}")
    raise SystemExit(1 if violations else 0)


if __name__ == "__main__":
    main()
