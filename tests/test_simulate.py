import json
import math
import tracemalloc

import numpy as np
import pytest

from qkd3 import (
    InsufficientSiftError,
    KrausCoefficients,
    SimConfig,
    azuma_check,
    exact_bound,
    rates_from_ensemble,
    run_protocol,
)
from qkd3.cli import main

IDENTITY = KrausCoefficients(1, 0, 0, 0)
BIT_FLIP = KrausCoefficients(0, 1, 0, 0)
PHASE_NOISE = KrausCoefficients(math.sqrt(0.9), 0, 0, 1j * math.sqrt(0.1))
# generic attack with all three rates nonzero: e_b = 0.05, e_p = 0.10
GENERIC = KrausCoefficients(math.sqrt(0.85), math.sqrt(0.05), 0, 1j * math.sqrt(0.10))


class TestRunProtocol:
    def test_identity_channel_exact_zero(self):
        stats = run_protocol(SimConfig(N=10_000, attack=IDENTITY, seed=0))
        assert stats.observed_eb == 0.0
        assert stats.observed_alpha == 0.0

    def test_deterministic_bit_flip(self):
        stats = run_protocol(SimConfig(N=10_000, attack=BIT_FLIP, seed=0))
        assert stats.observed_eb == 1.0
        assert stats.observed_alpha == 0.0

    def test_phase_noise_alpha_within_5_sigma(self):
        n = 100_000
        stats = run_protocol(SimConfig(N=n, attack=PHASE_NOISE, seed=42))
        sigma = math.sqrt(0.1 * 0.9 / (2 * n))
        assert abs(stats.observed_alpha - 0.1) <= 5 * sigma
        assert stats.observed_eb == 0.0

    def test_determinism(self):
        cfg = SimConfig(N=5_000, attack=GENERIC, seed=77)
        assert run_protocol(cfg) == run_protocol(cfg)
        assert run_protocol(cfg).to_json() == run_protocol(cfg).to_json()

    def test_counts_partition(self):
        n = 20_000
        stats = run_protocol(SimConfig(N=n, attack=GENERIC, seed=3))
        assert stats.z_check_total == n
        assert stats.x_check_total == 2 * n
        assert stats.transmitted == round(8 * n * 1.1)
        assert stats.sifted <= stats.transmitted
        assert stats.observed_eb == stats.z_check_errors / n
        assert stats.observed_alpha == stats.x_check_errors / (2 * n)

    def test_sift_fraction_near_half(self):
        stats = run_protocol(SimConfig(N=50_000, attack=IDENTITY, seed=9))
        m = stats.transmitted
        assert abs(stats.sifted / m - 0.5) <= 5 * math.sqrt(0.25 / m)

    def test_insufficient_sift(self):
        # delta ~ 0 leaves no margin; this seed lands below 2N in a basis
        with pytest.raises(InsufficientSiftError):
            run_protocol(SimConfig(N=2_000, attack=IDENTITY, seed=0, delta=1e-6))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(N=0, attack=IDENTITY, seed=1)
        with pytest.raises(ValueError):
            SimConfig(N=10, attack=IDENTITY, seed=1, delta=0.0)
        # 8N(1+delta) rounds must fit the multinomial draw's int64 count
        for n, delta in [(2**60, 0.1), (10, math.inf), (10, math.nan)]:
            with pytest.raises(ValueError):
                SimConfig(N=n, attack=IDENTITY, seed=1, delta=delta)
        SimConfig(N=2**59, attack=IDENTITY, seed=1, delta=0.1)

    def test_json_schema(self):
        stats = run_protocol(SimConfig(N=1_000, attack=GENERIC, seed=5))
        payload = json.loads(stats.to_json())
        assert set(payload) == {
            "transmitted",
            "sifted",
            "z_check_errors",
            "z_check_total",
            "x_check_errors",
            "x_check_total",
            "observed_eb",
            "observed_alpha",
        }
        for key in (
            "transmitted",
            "sifted",
            "z_check_errors",
            "z_check_total",
            "x_check_errors",
            "x_check_total",
        ):
            assert isinstance(payload[key], int)


class TestCountSampler:
    """run_protocol draws the announced counts, not the rounds."""

    def test_memory_independent_of_n(self):
        cfg = SimConfig(N=10**8, attack=GENERIC, seed=0)
        run_protocol(cfg)
        tracemalloc.start()
        try:
            run_protocol(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_count_moments_over_seeds(self):
        # z/x check errors are Binomial(N, e_b) / Binomial(2N, alpha) and
        # sifted is Binomial(m, 1/2); check mean and variance over seeds
        n, runs = 2_000, 4_000
        rates = rates_from_ensemble([GENERIC])
        samples = [
            run_protocol(SimConfig(N=n, attack=GENERIC, seed=s)) for s in range(runs)
        ]
        m = samples[0].transmitted
        for field, trials, p in (
            ("z_check_errors", n, rates.e_b),
            ("x_check_errors", 2 * n, rates.alpha),
            ("sifted", m, 0.5),
        ):
            x = np.array([getattr(st, field) for st in samples], dtype=float)
            mean, var = trials * p, trials * p * (1 - p)
            assert abs(x.mean() - mean) <= 5 * math.sqrt(var / runs), field
            assert 0.9 <= x.var(ddof=1) / var <= 1.1, field

    def test_common_random_numbers(self):
        # each count has its own substream: at a fixed (seed, N, delta) the
        # split ignores the attack, the Z count sees only e_b, X only alpha
        flipped_i = KrausCoefficients(
            -math.sqrt(0.85), math.sqrt(0.05), 0, 1j * math.sqrt(0.10)
        )
        same_eb = (GENERIC, flipped_i)
        same_alpha = (
            KrausCoefficients(0.75, 0.25, 0, 0.3),
            KrausCoefficients(0.5, 0.5, 0, 0.3),
        )
        ra, rb = (rates_from_ensemble([k]) for k in same_eb)
        assert ra.e_b == rb.e_b and ra.alpha != rb.alpha
        ra, rb = (rates_from_ensemble([k]) for k in same_alpha)
        assert ra.alpha == rb.alpha and ra.e_b != rb.e_b

        def run(attack, seed):
            return run_protocol(SimConfig(N=5_000, attack=attack, seed=seed))

        for seed in range(20):
            attacks = (IDENTITY, BIT_FLIP, *same_eb, *same_alpha)
            assert len({run(k, seed).sifted for k in attacks}) == 1
            a, b = (run(k, seed) for k in same_eb)
            assert a.z_check_errors == b.z_check_errors
            a, b = (run(k, seed) for k in same_alpha)
            assert a.x_check_errors == b.x_check_errors

    def test_counts_share_no_stream(self):
        # with e_b == alpha, two check counts drawn from one counter block
        # would be strongly correlated; independent ones have |r| ~ 1/sqrt(runs)
        attack = KrausCoefficients(1, 0, 0.3, 0)
        rates = rates_from_ensemble([attack])
        assert rates.e_b == rates.alpha
        runs = 4_000
        samples = [
            run_protocol(SimConfig(N=2_000, attack=attack, seed=s)) for s in range(runs)
        ]
        z = [st.z_check_errors for st in samples]
        x = [st.x_check_errors for st in samples]
        r = np.corrcoef(z, x)[0, 1]
        assert abs(r) <= 5 / math.sqrt(runs)

    def test_cli_large_n(self, capsys):
        argv = ["simulate", "--N", "100000000", "--seed", "1"]
        assert main(argv + ["--attack", GENERIC.serialize()]) == 0
        assert json.loads(capsys.readouterr().out)["stats"]["z_check_total"] == 10**8

    @pytest.mark.parametrize(
        "N, delta", [("2000000000000000000", "0.1"), ("1000", "1e300")]
    )
    def test_cli_rounds_beyond_int64_exit_code(self, capsys, N, delta):
        # 8N(1+delta) rounds past the int64 counts the multinomial draw
        # takes: a ValueError from SimConfig (exit 2), not an OverflowError
        argv = ["simulate", "--N", N, "--delta", delta, "--seed", "1"]
        assert main(argv + ["--attack", GENERIC.serialize()]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "qkd3: 8N(1+delta) rounds must be below 2^63\n"


class TestAzumaCheck:
    def test_identity_zero_deviation(self):
        stats = run_protocol(SimConfig(N=5_000, attack=IDENTITY, seed=1))
        rep = azuma_check(stats, IDENTITY)
        assert rep.dev_error == 0.0
        assert rep.dev_no_error == 0.0
        assert rep.within_error and rep.within_no_error

    def test_deterministic_attack_zero_deviation(self):
        stats = run_protocol(SimConfig(N=5_000, attack=BIT_FLIP, seed=1))
        rep = azuma_check(stats, BIT_FLIP)
        assert rep.p_error == 0.0
        assert rep.dev_error == 0.0

    def test_flags_over_seeds(self):
        hits = 0
        for seed in range(50):
            stats = run_protocol(SimConfig(N=10_000, attack=GENERIC, seed=seed))
            rep = azuma_check(stats, GENERIC)
            hits += rep.within_error and rep.within_no_error
        assert hits >= 49

    def test_no_error_fields_mirror_error_fields(self):
        for seed in range(20):
            rep = azuma_check(
                run_protocol(SimConfig(N=10_000, attack=GENERIC, seed=seed)), GENERIC
            )
            assert rep.dev_no_error == rep.dev_error
            assert rep.threshold_no_error == rep.threshold_error
            assert rep.within_no_error == rep.within_error

    def test_alpha_gap_matches_observed(self):
        stats = run_protocol(SimConfig(N=5_000, attack=GENERIC, seed=8))
        rep = azuma_check(stats, GENERIC)
        alpha = rates_from_ensemble([GENERIC]).alpha
        assert rep.alpha_gap == pytest.approx(
            abs(stats.observed_alpha - alpha), abs=1e-15
        )


class TestBoundAgainstSimulation:
    def test_observed_rates_dominate_analytic_ep(self):
        # padding the observed rates by 5 sigma makes the bound input
        # conservative (the bounds are nondecreasing in both arguments
        # on the grid), so the analytic e_p must stay below it
        analytic = rates_from_ensemble([GENERIC])
        n = 50_000
        for seed in range(5):
            stats = run_protocol(SimConfig(N=n, attack=GENERIC, seed=seed))
            eb_pad = min(
                stats.observed_eb + 5 * math.sqrt(analytic.e_b * (1 - analytic.e_b) / n),
                0.5,
            )
            al_pad = min(
                stats.observed_alpha
                + 5 * math.sqrt(analytic.alpha * (1 - analytic.alpha) / (2 * n)),
                0.5,
            )
            assert analytic.e_p <= exact_bound(eb_pad, al_pad).ep_uncapped + 1e-9
