import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkd3.keyrate
from qkd3 import (
    DomainError,
    bb84_tolerable_eb,
    binary_entropy,
    key_rate_single_photon,
    secure_region_frontier,
    tolerable_eb,
    tolerable_eb_equal,
)


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_limits(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_near_bb84_threshold(self):
        # frozen from a 30-digit evaluation of H2(0.110)
        assert binary_entropy(0.110) == pytest.approx(
            0.499915958164528, abs=1e-14
        )

    def test_symmetry(self):
        assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7), abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.01)
        with pytest.raises(DomainError):
            binary_entropy(1.01)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_range(self, x):
        assert 0.0 <= binary_entropy(x) <= 1.0


class TestKeyRateSinglePhoton:
    def test_noiseless(self):
        for method in ("exact", "approximate"):
            assert key_rate_single_photon(0.0, 0.0, method).R == 1.0

    def test_alpha_axis_intercept(self):
        # e_p = alpha = 1/2 exactly, so R = 1 - 0 - H2(1/2) = 0
        p = key_rate_single_photon(0.0, 0.5, "exact")
        assert p.e_p_used == 0.5
        assert p.R == pytest.approx(0.0, abs=1e-9)

    def test_eb_axis_intercept_bracketing(self):
        assert key_rate_single_photon(0.075, 0.0, "approximate").R > 0.0
        assert key_rate_single_photon(0.076, 0.0, "approximate").R < 0.0
        assert key_rate_single_photon(0.075, 0.0, "approximate").R == pytest.approx(
            0.005848151157, abs=1e-9
        )

    def test_ep_used_matches_method(self):
        p = key_rate_single_photon(0.05, 0.05, "approximate")
        assert p.e_p_used == pytest.approx(0.23974991765477322, abs=1e-12)

    def test_exact_at_least_approximate(self):
        for e_b in np.linspace(0.005, 0.45, 12):
            for alpha in np.linspace(0.005, 0.45, 12):
                r_ex = key_rate_single_photon(float(e_b), float(alpha), "exact").R
                r_ap = key_rate_single_photon(
                    float(e_b), float(alpha), "approximate"
                ).R
                assert r_ex >= r_ap - 1e-9

    def test_decreasing_in_ep(self):
        # H2 is increasing on [0, 1/2], so R falls as the bound grows
        rates = [
            key_rate_single_photon(0.02, float(a), "approximate").R
            for a in np.linspace(0.0, 0.4, 15)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            key_rate_single_photon(0.01, 0.01, "loose")
        with pytest.raises(ValueError):
            tolerable_eb_equal("loose")
        with pytest.raises(ValueError):
            tolerable_eb(0.1, "loose")
        with pytest.raises(ValueError):
            secure_region_frontier(5, "loose")

    def test_simple_method_bound(self):
        p = key_rate_single_photon(0.01, 0.04, "simple")
        assert p.e_p_used == pytest.approx(0.10, abs=1e-15)


class TestThresholds:
    def test_x_intercept(self):
        # root of 1 - H2(e) - H2(2e); 30-digit oracle: 0.07567945601...
        t = tolerable_eb(0.0, "approximate")
        assert t == pytest.approx(0.0756794560, abs=2e-6)

    def test_x_intercept_exact_method_agrees(self):
        # at alpha = 0 both bounds equal 2*e_b, so the roots coincide
        assert tolerable_eb(0.0, "exact") == pytest.approx(
            tolerable_eb(0.0, "approximate"), abs=2e-6
        )

    def test_alpha_half_gives_zero(self):
        assert tolerable_eb(0.5, "approximate") == 0.0

    def test_diagonal_five_eb(self):
        # root of 1 - H2(e) - H2(5e); 30-digit oracle: 0.04250905463...
        assert tolerable_eb_equal("simple") == pytest.approx(
            0.0425090546, abs=2e-6
        )

    def test_diagonal_approximate(self):
        # the key rate through approx_bound, as tolerable_eb takes it
        assert tolerable_eb_equal("approximate") == pytest.approx(
            0.0435636, abs=2e-6
        )

    def test_diagonal_exact_at_least_approximate(self):
        assert tolerable_eb_equal("exact") >= tolerable_eb_equal("approximate") - 2e-6

    def test_bb84(self):
        # root of 1 - 2*H2(e); 30-digit oracle: 0.11002786444...
        assert bb84_tolerable_eb() == pytest.approx(0.1100278644, abs=2e-6)


class TestFrontier:
    def test_endpoints(self):
        fr = secure_region_frontier(6, "approximate")
        assert fr[0][0] == 0.0
        assert fr[0][1] == pytest.approx(0.0756794560, abs=2e-6)
        assert fr[-1][0] == 0.5
        assert fr[-1][1] == 0.0

    def test_monotone_nonincreasing(self):
        fr = secure_region_frontier(21, "approximate")
        ebs = [e for _, e in fr]
        assert all(b <= a + 1e-9 for a, b in zip(ebs, ebs[1:]))

    def test_exact_dominates_approximate(self):
        fr_ex = secure_region_frontier(9, "exact")
        fr_ap = secure_region_frontier(9, "approximate")
        for (_, e_ex), (_, e_ap) in zip(fr_ex, fr_ap):
            assert e_ex >= e_ap - 2e-6

    @pytest.mark.parametrize("method", ["exact", "approximate", "simple"])
    def test_equals_one_lane_tolerable_eb(self, method):
        # the frontier is tolerable_eb at each alpha of its grid
        alphas = [0.5 * i / 50 for i in range(51)]
        want = [(a, tolerable_eb(a, method)) for a in alphas]
        assert secure_region_frontier(51, method) == want

    def test_too_few_steps(self):
        with pytest.raises(ValueError):
            secure_region_frontier(1)

    @pytest.mark.parametrize("method", ["exact", "approximate", "simple"])
    def test_rate_evaluations_per_alpha(self, monkeypatch, method):
        # about 10 an alpha; the bisection took 20 and more.  The search
        # evaluates a float rate, so count the bound calls it makes.
        count = 0

        def counted(bound):
            def wrapper(*args):
                nonlocal count
                count += 1
                return bound(*args)

            return wrapper

        for name in ("exact_ep", "approx_bound", "simple_bound"):
            bound = getattr(qkd3.keyrate, name)
            monkeypatch.setattr(qkd3.keyrate, name, counted(bound))
        secure_region_frontier(51, method)
        assert 0 < count / 51 <= 12.0

    @given(
        st.floats(0.0, 0.5, allow_subnormal=False)
        | st.sampled_from([0.0, 1e-15, 0.25, 0.5]),
        st.sampled_from(["exact", "approximate", "simple"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_sign_change_within_half_tolerance(self, alpha, method):
        # the rate is decreasing in e_b, so the returned e_b lies within
        # 5e-7 (half the 1e-6 tolerance) of its sign change; a subnormal
        # alpha is the exact bound's DomainError
        r = tolerable_eb(alpha, method)
        if r in (0.0, 0.5):
            return
        rate = lambda e: key_rate_single_photon(e, alpha, method).R
        assert rate(max(r - 5e-7, 0.0)) > 0.0 >= rate(min(r + 5e-7, 0.5))
