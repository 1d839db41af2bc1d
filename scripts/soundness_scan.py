#!/usr/bin/env python3
"""Stress the exact bound against seeded random attacks.

Every attack restricted to e_b, alpha <= 1/2 must satisfy
e_p <= exact_ep(e_b, alpha, capped=False); reports the worst relative slack
seen and any violations, the share of attacks on the capped path
(uncapped bound above 1/2), and a per-decade histogram of the relative
slack (bound - e_p) / bound.

The attacks are uniform on the coefficient sphere (`random_attack`), or
with --near attacks next to the bound's maximizer, as in
tests/test_epbound.py's TestSoundnessNearBound: at (e_b, alpha) with e_b
log-uniform in [1e-6, 1/2] and alpha log-uniform there (even draws) or
1/2 minus a log-uniform gap in [1e-6, 0.49] (odd draws, mostly capped),
each of the 8 real coordinates of the uncapped maximizer moves by a
relative eps, log-uniform in [1e-8, 1e-2]; draws whose rates leave
[0, 1/2]^2 are skipped.
"""

import argparse
import math
import time
from collections import Counter

import numpy as np

from qkd3 import KrausCoefficients, exact_ep, random_attack, rates_from_ensemble
from qkd3.epbound import _Angles


def random_attacks(count: int, seed0: int):
    for seed in range(seed0, seed0 + count):
        yield seed, random_attack(seed, region=True)


def near_attacks(count: int, seed0: int):
    rng = np.random.default_rng(seed0)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    for i in range(count):
        e_b = min(log_uniform(1e-6, 0.5), 0.5)
        if i % 2 == 0:
            alpha = min(log_uniform(1e-6, 0.5), 0.5)
        else:
            alpha = 0.5 - log_uniform(1e-6, 0.49)
        eps = log_uniform(1e-8, 1e-2)
        a = _Angles(e_b, alpha)
        w = a.witness(a.maximize()[0])
        coords = np.array(
            [x for c in (w.a_I, w.a_X, w.a_Y, w.a_Z) for x in (c.real, c.imag)]
        )
        moved = (coords * (1.0 + eps * rng.uniform(-1.0, 1.0, 8))).tolist()
        yield i, KrausCoefficients(
            *(complex(moved[j], moved[j + 1]) for j in range(0, 8, 2))
        )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--attacks", type=int, default=10_000)
    ap.add_argument("--seed0", type=int, default=0)
    ap.add_argument(
        "--near", action="store_true", help="perturbed maximizers, not random attacks"
    )
    args = ap.parse_args()
    if args.attacks < 1:
        ap.error("--attacks must be at least 1")

    label, attacks = ("draw", near_attacks) if args.near else ("seed", random_attacks)
    t0 = time.perf_counter()
    violations = 0
    worst = float("-inf")
    worst_at = None
    capped = skipped = 0
    decades = Counter()  # floor(log10(slack)); None for slack <= 0
    for key, attack in attacks(args.attacks, args.seed0):
        r = rates_from_ensemble([attack])
        if not (r.e_b <= 0.5 and r.alpha <= 0.5):
            skipped += 1
            continue
        bound = exact_ep(r.e_b, r.alpha, capped=False)
        rel = (r.e_p - bound) / max(bound, 1e-300)
        capped += bound > 0.5
        decades[math.floor(math.log10(-rel)) if rel < 0.0 else None] += 1
        if rel > worst:
            worst, worst_at = rel, (key, r.e_b, r.alpha, r.e_p, bound)
        if rel > 1e-9:
            violations += 1
            print(f"VIOLATION {label}={key} rates={r} bound={bound}")
    dt = time.perf_counter() - t0
    n = args.attacks - skipped
    print(
        f"{n} attacks in {dt:.1f}s: {violations} violations; "
        f"worst relative slack {worst:.3e}"
    )
    if skipped:
        print(f"skipped {skipped} draws off [0, 1/2]^2")
    key, e_b, alpha, e_p, bound = worst_at
    print(
        f"closest call: {label}={key} (e_b={e_b:.4g}, alpha={alpha:.4g}) "
        f"e_p={e_p:.6f} vs bound={bound:.6f}"
    )
    print(f"capped path (uncapped bound > 1/2): {capped / n:.1%}")
    print("relative slack histogram:")
    for d in sorted(k for k in decades if k is not None):
        print(f"  [1e{d}, 1e{d + 1}): {decades[d]}")
    if None in decades:
        print(f"  <= 0: {decades[None]}")
    raise SystemExit(1 if violations else 0)


if __name__ == "__main__":
    main()
