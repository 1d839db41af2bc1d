import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkd3 import (
    GYS,
    ChannelParams,
    DecoyObservables,
    DomainError,
    NoSecureDistanceError,
    binary_entropy,
    channel_observables,
    exact_bound,
    key_rate_decoy,
    load_channel_params,
    max_secure_distance,
    optimal_mu,
)
from qkd3.decoy import phase_error_for, transmittance

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, lo, hi, tol, best):
    """Golden-section maximization of f on [lo, hi] to tol in x: the best
    (x, f(x)) seen, starting from `best`."""
    c = hi - INV_PHI * (hi - lo)
    d = lo + INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    best_x, best_f = best
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + INV_PHI * (hi - lo)
            fd = f(d)
        if fc > best_f:
            best_x, best_f = c, fc
        if fd > best_f:
            best_x, best_f = d, fd
    return best_x, best_f


def float_scan(params, L_km, protocol):
    """The optimum by brute force, the reference for optimal_mu: every
    point of the 400-point grid on (0, 1] through key_rate_decoy, then a
    golden-section refine to 1e-6 around the best one."""
    grid = np.linspace(0.0, 1.0, 401)[1:]
    rate = lambda mu: key_rate_decoy(
        channel_observables(params, L_km, mu), params, protocol
    )
    vals = [rate(float(m)) for m in grid]
    i = int(np.argmax(vals))
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, 399)])
    return golden_max(rate, lo, hi, 1e-6, (float(grid[i]), vals[i]))


def at_least_float_scan(params, L_km, protocol):
    """optimal_mu lies in [0.0025, 1] and is not worse than the float scan
    by more than 1e-9 relative; returns it."""
    mu, rate = optimal_mu(params, L_km, protocol)
    scan_rate = float_scan(params, L_km, protocol)[1]
    assert 0.0025 <= mu <= 1.0
    assert rate >= scan_rate - 1e-9 * abs(scan_rate)
    return mu, rate


class TestChannelObservables:
    def test_gys_defaults(self):
        assert GYS.fiber_loss_db_per_km == 0.21
        assert GYS.eta_bob == 0.045
        assert GYS.y0 == 1.7e-6
        assert GYS.e_det == 0.033
        assert GYS.e0 == 0.5
        assert GYS.f_ec == 1.22

    def test_dark_counts_only(self):
        blind = ChannelParams(eta_bob=0.0)
        obs = channel_observables(blind, 10.0, 0.5)
        assert obs.Q_mu == pytest.approx(blind.y0, rel=1e-12)
        assert obs.E_mu == pytest.approx(blind.e0, rel=1e-12)

    def test_gys_at_zero_distance(self):
        obs = channel_observables(GYS, 0.0, 0.5)
        # y0 + 1 - exp(-0.045*0.5)
        assert obs.Q_mu == pytest.approx(0.022250462806663762, rel=1e-12)
        # (e0*y0 + e_det*eta) / (y0 + eta)
        assert obs.e1 == pytest.approx(0.03301764155576345, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            channel_observables(GYS, -1.0, 0.5)
        with pytest.raises(DomainError):
            channel_observables(GYS, 10.0, 0.0)

    def test_monotone_in_distance(self):
        grid = np.linspace(0.0, 120.0, 25)
        obs = [channel_observables(GYS, float(L), 0.5) for L in grid]
        for a, b in zip(obs, obs[1:]):
            assert b.Q_mu <= a.Q_mu + 1e-15
            assert b.Q1 <= a.Q1 + 1e-15
            assert b.E_mu >= a.E_mu - 1e-15
            assert b.e1 >= a.e1 - 1e-15

    def test_gain_dominates_single_photon(self):
        for L in (0.0, 30.0, 90.0):
            for mu in (0.1, 0.5, 1.0):
                obs = channel_observables(GYS, L, mu)
                assert obs.Q1 <= obs.Q_mu


class TestKeyRateDecoy:
    def test_no_single_photon_contribution(self):
        obs = DecoyObservables(Q_mu=0.01, E_mu=0.05, Q1=0.0, e1=0.02)
        assert key_rate_decoy(obs, GYS, "bb84") < 0.0

    def test_noiseless(self):
        obs = DecoyObservables(Q_mu=0.02, E_mu=0.0, Q1=0.015, e1=0.0)
        for protocol in ("three-state", "bb84"):
            assert key_rate_decoy(obs, GYS, protocol) == pytest.approx(0.015)

    def test_bb84_beats_three_state(self):
        mu, _ = optimal_mu(GYS, 20.0, "bb84")
        obs = channel_observables(GYS, 20.0, mu)
        assert key_rate_decoy(obs, GYS, "bb84") > key_rate_decoy(
            obs, GYS, "three-state"
        )

    def test_bound_domain_exceeded_is_minus_inf(self):
        obs = DecoyObservables(Q_mu=0.01, E_mu=0.3, Q1=0.005, e1=0.6)
        assert key_rate_decoy(obs, GYS, "three-state") == -math.inf

    def test_subnormal_e1_is_a_domain_error(self):
        # the exact bound has no value there; that is not "no key"
        obs = DecoyObservables(Q_mu=0.01, E_mu=0.03, Q1=0.005, e1=5e-324)
        with pytest.raises(DomainError, match="overflows"):
            key_rate_decoy(obs, GYS, "three-state")
        assert key_rate_decoy(obs, GYS, "bb84") > 0.0

    def test_subnormal_e1_from_the_channel_reads_zero(self):
        # e0 * y0 underflows below the smallest normal double: the model
        # gives e1 = 0, where the bound has its limiting value, not an error
        params = ChannelParams(
            fiber_loss_db_per_km=0.0, eta_bob=1.0, y0=1.7e-6, e_det=0.0,
            e0=2.225073858507203e-309,
        )
        assert channel_observables(params, 0.0, 0.5).e1 == 0.0
        for protocol in ("three-state", "bb84"):
            assert optimal_mu(params, 0.0, protocol) == (1.0, 0.36788006656649236)
            assert float_scan(params, 0.0, protocol) == (1.0, 0.36788006656649236)

    def test_equal_mu_gap_identity(self):
        obs = channel_observables(GYS, 30.0, 0.4)
        gap = key_rate_decoy(obs, GYS, "bb84") - key_rate_decoy(
            obs, GYS, "three-state"
        )
        ep3 = exact_bound(obs.e1, obs.e1).ep_max
        assert gap == pytest.approx(
            obs.Q1 * (binary_entropy(ep3) - binary_entropy(obs.e1)), abs=1e-12
        )

    def test_unknown_protocol(self):
        obs = channel_observables(GYS, 10.0, 0.5)
        with pytest.raises(ValueError):
            key_rate_decoy(obs, GYS, "b92")


class TestOptimalMu:
    def test_deterministic(self):
        assert optimal_mu(GYS, 25.0, "bb84") == optimal_mu(GYS, 25.0, "bb84")

    def test_positive_at_zero_distance(self):
        mu, rate = optimal_mu(GYS, 0.0, "bb84")
        assert 0.0 < mu <= 1.0
        assert rate > 0.0

    def test_negative_past_cutoff(self):
        _, rate = optimal_mu(GYS, 200.0, "three-state")
        assert rate <= 0.0

    def test_matches_pointwise_rate(self):
        mu, rate = optimal_mu(GYS, 40.0, "three-state")
        obs = channel_observables(GYS, 40.0, mu)
        assert rate == pytest.approx(
            key_rate_decoy(obs, GYS, "three-state"), abs=1e-15
        )

    def test_scan_is_really_the_max(self):
        mu_star, r_star = optimal_mu(GYS, 15.0, "bb84")
        for mu in np.linspace(0.01, 1.0, 97):
            obs = channel_observables(GYS, 15.0, float(mu))
            assert key_rate_decoy(obs, GYS, "bb84") <= r_star + 1e-12


class TestOptimumAgainstFloatScan:
    """optimal_mu, the sign change of R'(mu), against a brute-force scan
    of the rate itself."""

    NEAR_TIES = [
        (
            dict(fiber_loss_db_per_km=4.875471436327504, eta_bob=0.16699915922393796,
                 y0=0.0, e_det=0.019453911510843858, e0=0.003947747719489949),
            25.0,
            (0.6315766952934488, 1.9766139368551702e-14),
        ),
        (
            dict(fiber_loss_db_per_km=2.210207233739215, eta_bob=0.46086298295364136,
                 y0=1.6848481853322542e-09, e_det=0.0, e0=1.0),
            60.0,
            (0.9992037365406804, 6.191300081447427e-10),
        ),
    ]

    @pytest.mark.parametrize("kwargs, L_km, expected", NEAR_TIES)
    def test_near_ties_pinned(self, kwargs, L_km, expected):
        # eta * mu near 1e-14 and 1e-13, where 1 - exp(-eta * mu) is off by
        # up to about 1e-2 relative and -expm1(-eta * mu) is not
        params = ChannelParams(**kwargs)
        assert at_least_float_scan(params, L_km, "bb84") == expected

    @pytest.mark.parametrize("protocol", ["bb84", "three-state"])
    def test_no_background_tiny_eta(self, protocol):
        # y0 = 0: E_mu = e_det at every mu, and R / eta hardly depends on
        # eta; at eta = 1e-12, eta * mu is far below 1e-8
        tiny = ChannelParams(fiber_loss_db_per_km=0.2, eta_bob=1e-10, y0=0.0, e_det=0.01)
        mu, rate = at_least_float_scan(tiny, 100.0, protocol)
        ref_mu, ref_rate = optimal_mu(replace(tiny, eta_bob=1e-4), 100.0, protocol)
        assert mu == pytest.approx(ref_mu, abs=1e-6)
        assert rate == pytest.approx(ref_rate * 1e-6, rel=1e-6)

    def test_no_clicks_at_the_low_end(self):
        # eta = 4.5e-322: eta * mu underflows, so Q_mu = 0 at mu = 0.0025;
        # the rate eta * mu * e^{-mu} rises on the whole domain (a float
        # scan of its subnormal values may rank another mu first)
        params = ChannelParams(fiber_loss_db_per_km=5.0, y0=0.0, e_det=0.0)
        assert channel_observables(params, 640.0, 0.0025).Q_mu == 0.0
        for protocol in ("bb84", "three-state"):
            assert optimal_mu(params, 640.0, protocol) == (1.0, 1.63e-322)

    @pytest.mark.parametrize(
        "kwargs, L_km, E_mu, expected",
        [
            # E_mu = 1 at every mu: eta * mu is below y0 * 2**-53
            (dict(fiber_loss_db_per_km=0.0, eta_bob=1e-22, y0=1e-3, e0=1.0, e_det=0.01),
             0.0, 1.0, (1.0, 0.00036787944117144236)),
            # E_mu = 0 at mu = 0.0025 only: eta * mu underflows there
            (dict(fiber_loss_db_per_km=5.0, y0=1e-3, e0=0.0, e_det=0.01),
             640.0, 0.0, (0.999999875, 0.0003678794411714395)),
        ],
    )
    def test_signal_error_at_zero_or_one(self, kwargs, L_km, E_mu, expected):
        params = ChannelParams(**kwargs)
        assert channel_observables(params, L_km, 0.0025).E_mu == E_mu
        assert at_least_float_scan(params, L_km, "bb84") == expected

    @settings(max_examples=40, deadline=None)
    @given(
        loss=st.floats(0.0, 5.0),
        log_eta=st.floats(-14.0, 0.0),
        y0=st.sampled_from([0.0, 1.7e-6]) | st.floats(0.0, 1e-3),
        e_det=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        e0=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
        L_km=st.floats(0.0, 400.0),
        protocol=st.sampled_from(["bb84", "bb84", "three-state"]),
    )
    def test_at_least_float_scan(self, loss, log_eta, y0, e_det, e0, L_km, protocol):
        params = ChannelParams(
            fiber_loss_db_per_km=loss, eta_bob=10.0**log_eta, y0=y0, e_det=e_det, e0=e0
        )
        at_least_float_scan(params, L_km, protocol)


@pytest.mark.parametrize(
    "kwargs, protocol, expected",
    [
        ({"y0": 0.0, "eta_bob": 0.0}, "three-state", (0.0025, 0.0)),
        ({"y0": 0.0, "eta_bob": 0.0}, "bb84", (0.0025, 0.0)),
        ({"e_det": 0.6}, "three-state", (0.0025, -math.inf)),
        ({"e_det": 0.6}, "bb84", (0.0025, -8.229010125847535e-05)),
        ({"y0": 0.0, "e_det": 0.0}, "three-state", (1.0, 0.01020746811212579)),
        ({"y0": 0.0, "e_det": 0.0}, "bb84", (1.0, 0.01020746811212579)),
        ({"e_det": 1.0, "e0": 1.0}, "three-state", (0.0025, -math.inf)),
        ({"e_det": 1.0, "e0": 1.0}, "bb84", (1.0, 0.010208093507175782)),
    ],
)
def test_degenerate_channel_pinned(kwargs, protocol, expected):
    # Q_mu = 0 (no clicks at all), E_mu in {0, 1}, and e1 past 1/2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert optimal_mu(ChannelParams(**kwargs), 10.0, protocol) == expected


class TestSecureDistance:
    # the acceptance suite checks the distances against the paper
    def test_blind_receiver(self):
        with pytest.raises(NoSecureDistanceError):
            max_secure_distance(ChannelParams(eta_bob=0.0), "bb84")

    @pytest.mark.parametrize("protocol", ["three-state", "bb84"])
    def test_lossless_fiber_is_a_domain_error(self, protocol):
        # the rate never turns nonpositive, so the bracket outgrows 20 000 km
        with pytest.raises(DomainError, match="past 20000 km"):
            max_secure_distance(ChannelParams(fiber_loss_db_per_km=0.0), protocol)

    @pytest.mark.parametrize("protocol, km", [("three-state", 88.501), ("bb84", 142.211)])
    def test_midpoint_within_half_resolution(self, protocol, km):
        d = max_secure_distance(GYS, protocol)
        assert d == pytest.approx(km, abs=5e-4)
        assert optimal_mu(GYS, d - 0.005, protocol)[1] > 0.0
        assert optimal_mu(GYS, d + 0.005, protocol)[1] <= 0.0

    @pytest.mark.parametrize(
        "kwargs, protocol",
        [
            # the transmittance underflows to 0 near 644 km: no clicks, and
            # a rate of exactly 0 from there on
            ({"fiber_loss_db_per_km": 5.0, "y0": 0.0, "e_det": 0.0}, "bb84"),
            # e1 > 1/2 past 250 km, where the rate is -inf; the doubling
            # bracket ends at 320 km
            ({"eta_bob": 1.0, "e_det": 0.0, "e0": 1.0, "y0": 1e-5}, "three-state"),
        ],
    )
    def test_no_key_regions_within_half_resolution(self, kwargs, protocol):
        params = ChannelParams(**kwargs)
        d = max_secure_distance(params, protocol)
        assert optimal_mu(params, d - 0.005, protocol)[1] > 0.0
        assert optimal_mu(params, d + 0.005, protocol)[1] <= 0.0


class TestParamsFile:
    def test_round_trip(self, tmp_path):
        f = tmp_path / "channel.params"
        f.write_text(
            "# custom channel\nfiber_loss_db_per_km = 0.25\neta_bob=0.1\n\ny0 = 2e-6\n"
        )
        p = load_channel_params(f)
        assert p.fiber_loss_db_per_km == 0.25
        assert p.eta_bob == 0.1
        assert p.y0 == 2e-6
        assert p.e_det == GYS.e_det  # default retained

    def test_unknown_key(self, tmp_path):
        f = tmp_path / "bad.params"
        f.write_text("loss = 0.2\n")
        with pytest.raises(ValueError):
            load_channel_params(f)

    def test_malformed_line(self, tmp_path):
        f = tmp_path / "bad.params"
        f.write_text("eta_bob 0.1\n")
        with pytest.raises(ValueError):
            load_channel_params(f)


class TestValidation:
    def test_transmittance_decays(self):
        assert transmittance(GYS, 0.0) == GYS.eta_bob
        assert transmittance(GYS, 100.0) == pytest.approx(
            GYS.eta_bob * 10 ** (-2.1), rel=1e-12
        )

    def test_bad_params(self):
        with pytest.raises(ValueError):
            ChannelParams(f_ec=0.9)
        with pytest.raises(ValueError):
            ChannelParams(e_det=1.5)
        for bad in (
            {"y0": 1.5},
            {"y0": math.nan},
            {"fiber_loss_db_per_km": math.inf},
            {"fiber_loss_db_per_km": math.nan},
            {"f_ec": math.inf},
            {"f_ec": math.nan},
        ):
            with pytest.raises(ValueError):
                ChannelParams(**bad)

    def test_bad_observables(self):
        with pytest.raises(ValueError):
            DecoyObservables(Q_mu=0.01, E_mu=0.0, Q1=0.02, e1=0.0)

    def test_phase_error_for_three_state_uses_bound(self):
        obs = channel_observables(GYS, 0.0, 0.5)
        ep = phase_error_for(obs.e1, "three-state")
        assert ep == pytest.approx(exact_bound(obs.e1, obs.e1).ep_max)
        assert ep > obs.e1
        # past the bound's domain there is no three-state key; BB84 reads e1
        assert phase_error_for(0.6, "three-state") is None
        assert phase_error_for(0.6, "bb84") == 0.6
