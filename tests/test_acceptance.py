"""Acceptance gate: one test per release criterion, each printing a
single [PASS]/[FAIL] line (run with -s to see them on success).

Criteria cover the secure-region intercepts and thresholds, bound
ordering and soundness, witness tightness, ensemble reduction, the
decoy-state distances and rate-gap identity, and simulator statistics.
"""

import json
import math
import time

import numpy as np

from qkd3 import (
    GYS,
    KrausCoefficients,
    SimConfig,
    approx_bound,
    bb84_tolerable_eb,
    binary_entropy,
    channel_observables,
    combine_pair,
    exact_bound,
    exact_ep,
    key_rate_decoy,
    key_rate_single_photon,
    optimal_mu,
    max_secure_distance,
    random_attack,
    rates_from_ensemble,
    reduce_ensemble,
    run_protocol,
    simple_bound,
    tolerable_eb,
    tolerable_eb_equal,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_secure_region_x_intercept():
    t0 = time.perf_counter()
    value = tolerable_eb(0.0, "approximate")
    elapsed = time.perf_counter() - t0
    ok = 0.0750 <= value <= 0.0760 and elapsed < 1.0
    report(
        "secure-region x-intercept",
        ok,
        f"tolerable_eb(0) = {value:.6f} in [0.0750, 0.0760], {elapsed:.3f}s < 1s",
    )


def test_secure_region_y_intercept():
    rate = key_rate_single_photon(0.0, 0.5, "exact").R
    ok = abs(rate) <= 1e-9
    report("secure-region y-intercept", ok, f"|R(0, 1/2)| = {abs(rate):.2e} <= 1e-9")


def test_diagonal_and_bb84_thresholds():
    diag = tolerable_eb_equal("simple")
    bb84 = bb84_tolerable_eb()
    ok = 0.0420 <= diag <= 0.0430 and 0.1095 <= bb84 <= 0.1105
    report(
        "e_b = alpha and BB84 thresholds",
        ok,
        f"diagonal {diag:.6f} in [0.0420, 0.0430]; bb84 {bb84:.6f} in [0.1095, 0.1105]",
    )


def test_bound_ordering_on_diagonal_grid():
    t0 = time.perf_counter()
    slack = 1e-9
    worst = 0.0
    for e in np.linspace(0.001, 0.1, 100):
        e = float(e)
        ex = exact_bound(e, e).ep_max
        ap = approx_bound(e, e, capped=False)
        sb = simple_bound(e, e)
        worst = max(worst, ex - ap, ap - sb)
        assert ex <= ap + slack and ap <= sb + slack
    ratio = approx_bound(0.02, 0.02) / 0.02
    elapsed = time.perf_counter() - t0
    ok = worst <= slack and 4.8 <= ratio <= 5.0 and elapsed < 10.0
    report(
        "bound ordering (100 diagonal points)",
        ok,
        f"max ordering excess {worst:.2e} <= 1e-9; approx/e_b at 0.02 = "
        f"{ratio:.4f} in [4.8, 5.0]; {elapsed:.2f}s < 10s",
    )


def test_soundness_100k_random_attacks():
    t0 = time.perf_counter()
    n = 100_000
    violations = 0
    worst_rel = -math.inf
    for seed in range(n):
        r = rates_from_ensemble([random_attack(seed, region=True)])
        bound = exact_ep(r.e_b, r.alpha, capped=False)
        rel = (r.e_p - bound) / max(bound, 1e-300)
        worst_rel = max(worst_rel, rel)
        if rel > 1e-9:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 300.0
    report(
        "soundness vs 1e5 random attacks",
        ok,
        f"{violations} violations beyond 1e-9 relative (worst {worst_rel:.2e}); "
        f"{elapsed:.0f}s < 300s",
    )


def test_tightness_round_trip_20x20():
    grid = np.linspace(0.5 / 21, 0.5 * 20 / 21, 20)
    worst = 0.0
    for e_b in grid:
        for alpha in grid:
            res = exact_bound(float(e_b), float(alpha))
            r = rates_from_ensemble([res.witness])
            worst = max(
                worst,
                abs(r.e_b - e_b),
                abs(r.alpha - alpha),
                abs(r.e_p - res.ep_max),
            )
    ok = worst <= 1e-6
    report(
        "tightness round-trip on 20x20 interior grid",
        ok,
        f"max witness deviation {worst:.2e} <= 1e-6",
    )


def _merge_cosine_raw(c1, m1a, m1b, c2, m2a, m2b):
    den = math.hypot(m1a, m2a) * math.hypot(m1b, m2b)
    return 0.0 if den == 0.0 else (c1 * m1a * m1b + c2 * m2a * m2b) / den


def test_ensemble_reduction_1000():
    from qkd3.attack import phase_cosines

    rng = np.random.default_rng(20240601)
    worst_rate = 0.0
    worst_cos = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 65))
        ens = [random_attack(int(rng.integers(0, 2**31))) for _ in range(size)]
        want = rates_from_ensemble(ens)
        acc = ens[0]
        for nxt in ens[1:]:
            c1_ix, c1_yz = phase_cosines(acc)
            c2_ix, c2_yz = phase_cosines(nxt)
            raw_ix = _merge_cosine_raw(
                c1_ix, abs(acc.a_I), abs(acc.a_X), c2_ix, abs(nxt.a_I), abs(nxt.a_X)
            )
            raw_yz = _merge_cosine_raw(
                c1_yz, abs(acc.a_Y), abs(acc.a_Z), c2_yz, abs(nxt.a_Y), abs(nxt.a_Z)
            )
            worst_cos = max(worst_cos, abs(raw_ix), abs(raw_yz))
            acc = combine_pair(acc, nxt)
        got = rates_from_ensemble([acc])
        single = rates_from_ensemble([reduce_ensemble(ens)])
        assert single == got
        worst_rate = max(
            worst_rate,
            abs(got.e_b - want.e_b),
            abs(got.alpha - want.alpha),
            abs(got.e_p - want.e_p),
        )
    ok = worst_rate <= 1e-12 and worst_cos <= 1.0
    report(
        "ensemble reduction (1000 ensembles, sizes 2-64)",
        ok,
        f"max rate drift {worst_rate:.2e} <= 1e-12; max |cosine| "
        f"{worst_cos:.15f} <= 1",
    )


def test_decoy_distances_and_ordering():
    t0 = time.perf_counter()
    d3 = max_secure_distance(GYS, "three-state")
    d4 = max_secure_distance(GYS, "bb84")
    ordering_ok = True
    for L in np.linspace(0.0, 140.0, 15):
        r3 = optimal_mu(GYS, float(L), "three-state")[1]
        r4 = optimal_mu(GYS, float(L), "bb84")[1]
        ordering_ok &= r4 >= r3 - 1e-15
    elapsed = time.perf_counter() - t0
    ok = abs(d3 - 88.5) <= 3.0 and abs(d4 - 142.2) <= 3.0 and ordering_ok
    ok = ok and elapsed < 60.0
    report(
        "decoy secure distances",
        ok,
        f"three-state {d3:.2f} km (88.5 +- 3), bb84 {d4:.2f} km (142.2 +- 3); "
        f"bb84 >= three-state at all sampled L: {ordering_ok}; {elapsed:.1f}s < 60s",
    )


def test_equal_mu_rate_gap_identity():
    worst = 0.0
    for L in np.linspace(0.0, 80.0, 5):
        for mu in np.linspace(0.1, 0.9, 4):
            obs = channel_observables(GYS, float(L), float(mu))
            gap = key_rate_decoy(obs, GYS, "bb84") - key_rate_decoy(
                obs, GYS, "three-state"
            )
            ep3 = exact_bound(obs.e1, obs.e1).ep_max
            ident = obs.Q1 * (binary_entropy(ep3) - binary_entropy(obs.e1))
            worst = max(worst, abs(gap - ident))
    ok = worst <= 1e-12
    report(
        "equal-mu rate gap identity (20 points)",
        ok,
        f"max |gap - Q1*(H2(e_p)-H2(e1))| = {worst:.2e} <= 1e-12",
    )


def test_simulator_statistics_100_seeds():
    attack = KrausCoefficients(
        math.sqrt(0.85), math.sqrt(0.05), 0.0, 1j * math.sqrt(0.10)
    )
    analytic = rates_from_ensemble([attack])
    n = 100_000
    sigma_eb = math.sqrt(analytic.e_b * (1 - analytic.e_b) / n)
    sigma_al = math.sqrt(analytic.alpha * (1 - analytic.alpha) / (2 * n))
    good_eb = good_al = 0
    sift_ok = True
    for seed in range(100):
        stats = run_protocol(SimConfig(N=n, attack=attack, seed=seed))
        good_eb += abs(stats.observed_eb - analytic.e_b) <= 5 * sigma_eb
        good_al += abs(stats.observed_alpha - analytic.alpha) <= 5 * sigma_al
        m = stats.transmitted
        sift_ok &= abs(stats.sifted / m - 0.5) <= 5 * math.sqrt(0.25 / m)
    cfg = SimConfig(N=n, attack=attack, seed=7)
    identical = run_protocol(cfg).to_json() == run_protocol(cfg).to_json()
    ok = good_eb >= 99 and good_al >= 99 and sift_ok and identical
    report(
        "simulator statistics (100 seeds at N=1e5)",
        ok,
        f"e_b within 5 sigma in {good_eb}/100, alpha in {good_al}/100 (need >= 99); "
        f"sift fraction within 5 sigma: {sift_ok}; byte-identical reruns: {identical}",
    )
