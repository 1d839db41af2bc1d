import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkd3 import (
    DomainError,
    HatParams,
    approx_bound,
    az_branch,
    exact_bound,
    exact_ep,
    exact_ep_many,
    random_attack,
    rates_from_ensemble,
    simple_bound,
)
from qkd3.epbound import _BLOCK, _grid_max, _scan

rate = st.floats(min_value=1e-4, max_value=0.5, allow_nan=False)


def brute_force_bound(e_b, alpha, n=200_001):
    """Independent dense-grid maximization, straight from the formulas."""
    eh = (1.0 - e_b) / e_b
    ah = (1.0 - alpha) / alpha
    y = np.linspace(0.0, 1.0, n)
    s = np.sqrt(np.maximum(ah * (1.0 - y * y), 0.0))
    r = eh * (1.0 + ah) - 1.0 - y * y * (ah - 1.0) - 2.0 * y * s
    z = (ah * y + s + np.sqrt(np.maximum(r, 0.0))) / (1.0 + ah)
    ok = (r >= 0.0) & (z * z <= eh)
    return float(np.where(ok, (z * z + y * y) * e_b, -np.inf).max())


def az_branch_minus(ay, hats):
    """The (- - +) sign branch; valid only for comparison in tests."""
    ah, eh = hats.alpha_hat, hats.eb_hat
    s = math.sqrt(max(ah * (1.0 - ay * ay), 0.0))
    r = eh * (1.0 + ah) - 1.0 - ay * ay * (ah - 1.0) + 2.0 * ay * s
    if r < 0.0:
        return None
    z = (ah * ay - s - math.sqrt(r)) / (1.0 + ah)
    if z < 0.0 or z * z > eh:
        return None
    return z


class TestAzBranch:
    def test_hand_value_at_zero(self):
        # e_b = alpha = 0.25: hats are 3, inner radicand 11, so
        # |a_Z| = (sqrt(3) + sqrt(11)) / 4
        h = HatParams.from_rates(0.25, 0.25)
        z = az_branch(0.0, h)
        assert z == pytest.approx((math.sqrt(3) + math.sqrt(11)) / 4, abs=1e-14)
        assert z * z < h.eb_hat

    def test_boundary_ay_one(self):
        # sqrt(1 - ay^2) terms vanish: |a_Z| = (ah + sqrt(eh*(1+ah) - ah))/(1+ah);
        # at e_b = alpha = 0.05 that is (19 + sqrt(361))/20 = 1.9 exactly
        h = HatParams.from_rates(0.05, 0.05)
        assert az_branch(1.0, h) == pytest.approx(1.9, abs=1e-14)

    def test_guards(self):
        # inside the domain the radicand is (sqrt(ah*(1-y^2)) - y)^2
        # + (eh-1)*(1+ah) >= 0, so the guards only matter for hat values
        # below 1; exercise them through a stand-in
        from types import SimpleNamespace

        assert az_branch(1.0, SimpleNamespace(eb_hat=0.2, alpha_hat=1.0)) is None
        assert (
            az_branch(0.9, SimpleNamespace(eb_hat=0.9, alpha_hat=9.0)) is None
        )
        for e_b in (0.01, 0.1, 0.5):
            for alpha in (0.01, 0.1, 0.5):
                h = HatParams.from_rates(e_b, alpha)
                assert all(
                    az_branch(float(y), h) is not None
                    for y in np.linspace(0.0, 1.0, 101)
                )

    @given(rate, rate, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300)
    def test_feasible_points_solve_a_constraint_sign(self, e_b, alpha, ay):
        h = HatParams.from_rates(e_b, alpha)
        z = az_branch(ay, h)
        if z is None:
            return
        assert z >= 0.0
        assert z * z <= h.eb_hat
        # the root solves the squared constraint; the original equation
        # enters as u+v (phases aligned) or |u-v| (a_I, a_X opposed)
        v = math.sqrt(h.eb_hat - z * z)
        u = math.sqrt(max(1.0 - ay * ay, 0.0))
        rhs = math.sqrt(h.alpha_hat) * abs(ay - z)
        tol = 1e-7 * max(1.0, rhs)
        assert min(abs(u + v - rhs), abs(abs(u - v) - rhs)) <= tol

    def test_minus_branch_never_beats_plus(self):
        for e_b in np.linspace(0.02, 0.5, 13):
            h_alphas = np.linspace(0.02, 0.5, 13)
            for alpha in h_alphas:
                h = HatParams.from_rates(float(e_b), float(alpha))
                for ay in np.linspace(0.0, 1.0, 101):
                    zp = az_branch(float(ay), h)
                    zm = az_branch_minus(float(ay), h)
                    if zp is not None and zm is not None:
                        assert zm <= zp + 1e-12


class TestExactBound:
    def test_limiting_cases(self):
        assert exact_bound(0.0, 0.3).ep_max == pytest.approx(0.3, abs=1e-15)
        assert exact_bound(0.1, 0.0).ep_max == pytest.approx(0.2, abs=1e-15)
        assert exact_bound(0.0, 0.0).ep_max == 0.0
        assert exact_bound(0.0, 0.3).method == "limiting"

    def test_limiting_witnesses_round_trip(self):
        for e_b, alpha in [(0.0, 0.3), (0.1, 0.0), (0.3, 0.0), (0.45, 0.0)]:
            res = exact_bound(e_b, alpha)
            r = rates_from_ensemble([res.witness])
            assert r.e_b == pytest.approx(e_b, abs=1e-12)
            assert r.alpha == pytest.approx(alpha, abs=1e-12)
            assert r.e_p == pytest.approx(res.ep_max, abs=1e-12)

    def test_interior_value_and_window(self):
        # frozen from brute_force_bound(0.05, 0.05, n=2_000_001)
        res = exact_bound(0.05, 0.05)
        assert res.ep_max == pytest.approx(0.233348252735, abs=1e-10)
        assert 0.2 <= res.ep_max <= approx_bound(0.05, 0.05)

    def test_matches_brute_force_on_grid(self):
        for e_b in (0.02, 0.1, 0.25, 0.4):
            for alpha in (0.03, 0.15, 0.33, 0.48):
                want = min(brute_force_bound(e_b, alpha), 0.5)
                assert exact_bound(e_b, alpha).ep_max == pytest.approx(
                    want, abs=1e-8
                )

    def test_sampled_attacks_never_exceed(self):
        res = exact_bound(0.05, 0.05)
        for seed in range(300):
            r = rates_from_ensemble([random_attack(seed, region=True)])
            if abs(r.e_b - 0.05) < 2e-3 and abs(r.alpha - 0.05) < 2e-3:
                assert r.e_p <= res.ep_uncapped + 0.02

    def test_witness_round_trip_interior(self):
        for e_b in np.linspace(0.03, 0.47, 8):
            for alpha in np.linspace(0.03, 0.47, 8):
                res = exact_bound(float(e_b), float(alpha))
                r = rates_from_ensemble([res.witness])
                assert r.e_b == pytest.approx(float(e_b), abs=1e-6)
                assert r.alpha == pytest.approx(float(alpha), abs=1e-6)
                assert r.e_p == pytest.approx(res.ep_max, abs=1e-6)

    def test_witness_weight_is_inverse_eb(self):
        # the two equality constraints force sum |a|^2 = 1/e_b
        for e_b, alpha in [(0.05, 0.05), (0.2, 0.1), (0.1, 0.4)]:
            res = exact_bound(e_b, alpha)
            if res.ep_uncapped <= 0.5:
                assert res.witness.total_weight == pytest.approx(
                    1.0 / e_b, rel=1e-9
                )

    def test_cap_binds_with_exact_witness(self):
        res = exact_bound(0.01, 0.44)
        assert res.ep_max == 0.5
        assert res.ep_uncapped > 0.5
        r = rates_from_ensemble([res.witness])
        assert r.e_p == pytest.approx(0.5, abs=1e-12)
        assert r.e_b == pytest.approx(0.01, abs=1e-12)
        assert r.alpha == pytest.approx(0.44, abs=1e-12)

    def test_domain_errors(self):
        for e_b, alpha in [(-0.1, 0.1), (0.6, 0.1), (0.1, 0.51), (0.1, -1.0)]:
            with pytest.raises(DomainError):
                exact_bound(e_b, alpha)

    def test_ay_star_in_range(self):
        for e_b, alpha in [(0.05, 0.05), (0.3, 0.3), (0.01, 0.44)]:
            res = exact_bound(e_b, alpha)
            assert 0.0 <= res.ay_star <= 1.0


class TestExactEp:
    # log grid over [1e-15, 1/2] plus the exact axis, midpoint and edge values
    GRID = sorted(
        {float(x) for x in np.logspace(-15, math.log10(0.5), 54)}
        | {0.0, 0.25, 0.5}
    )

    def test_equals_exact_bound_values(self):
        compared = 0
        for e_b in self.GRID:
            for alpha in self.GRID:
                try:
                    res = exact_bound(e_b, alpha)
                except RuntimeError:
                    # recorded witness defect at tiny alpha; the value
                    # needs no witness, so exact_ep still returns one
                    assert 0.0 <= exact_ep(e_b, alpha) <= 0.5
                    continue
                assert exact_ep(e_b, alpha) == res.ep_max
                assert exact_ep(e_b, alpha, capped=False) == res.ep_uncapped
                compared += 1
        assert compared >= len(self.GRID) ** 2 - 10

    def test_domain_errors(self):
        for e_b, alpha in [(-0.1, 0.1), (0.6, 0.1), (0.1, 0.51), (0.1, -1.0)]:
            with pytest.raises(DomainError):
                exact_ep(e_b, alpha)
            with pytest.raises(DomainError):
                exact_ep(e_b, alpha, capped=False)


class TestGridMax:
    """The two-level scan against the full 10 001-point scan, its oracle."""

    GRID = sorted(
        {float(x) for x in np.logspace(-15, math.log10(0.5), 56)} | {0.25, 0.5}
    )

    @staticmethod
    def check_same_argmax(e_b, alpha):
        h = HatParams.from_rates(e_b, alpha)
        obj = _scan(h.eb_hat, h.alpha_hat, e_b)
        i = int(np.argmax(obj))
        assert _grid_max(h.eb_hat, h.alpha_hat, e_b) == (i, obj[i])

    def test_full_scan_argmax_on_log_grid(self):
        for e_b in self.GRID:
            for alpha in self.GRID:
                self.check_same_argmax(e_b, alpha)

    @given(
        st.floats(min_value=-15.0, max_value=math.log10(0.5)),
        st.floats(min_value=-15.0, max_value=math.log10(0.5)),
    )
    @settings(max_examples=300, deadline=None)
    def test_full_scan_argmax_log_uniform(self, log_eb, log_alpha):
        self.check_same_argmax(10.0**log_eb, 10.0**log_alpha)

    # exact_ep (capped, uncapped) and exact_bound's (ep_max, ep_uncapped,
    # ay_star, method, witness) as computed by the full scan
    PINNED = {
        (0.05, 0.05): (
            "0x1.dde5b0509b108p-3", "0x1.dde5b0509b108p-3",
            "0x1.dde5b0509b108p-3", "0x1.dde5b0509b108p-3",
            "0x1.faa4592b0a00fp-1", "exact",
            "3.91308250808531,0.0,0.14429216962846222,0.0,"
            "0.9895351281202255,0.0,0.0,1.9203607173957646",
        ),
        (0.3, 0.3): (
            "0x1.0000000000000p-1", "0x1.d2b3aa9740ce8p-1",
            "0x1.0000000000000p-1", "0x1.d2b3aa9740ce8p-1",
            "0x1.8f5c28f5c28f6p-4", "exact",
            "0.8222316002930461,0.01039769908216101,0.9952355248884557,0.0,"
            "0.0975,0.0,0.027209502216687474,1.2870198365432395",
        ),
        (0.2407, 6.9e-4): (
            "0x1.0000000000000p-1", "0x1.00083bc85da6dp-1",
            "0x1.0000000000000p-1", "0x1.00083bc85da6dp-1",
            "0x1.fff479bfa3d56p-1", "exact",
            "1.4411237973127209,0.0,0.013260503624800381,0.0,"
            "0.9999120756564632,0.0,0.0,1.038128812926101",
        ),
        (0.3, 1e-8): (
            "0x1.0000000000000p-1", "0x1.333c47e70398dp-1",
            "0x1.0000000000000p-1", "0x1.333c47e70398dp-1",
            "0x1.fffffff48cf22p-1", "exact",
            "1.1546005336189178,0.0,5.1631175318781446e-05,0.0,"
            "0.9999999986671109,0.0,0.0,1.0001154638841676",
        ),
        (1e-15, 0.5): (
            "0x1.0000000000000p-1", "0x1.0000010fa3389p-1",
            "0x1.0000000000000p-1", "0x1.0000010fa3389p-1",
            "0x0.0p+0", "exact",
            "-0.06250000042913137,22360679.774997875,1.0,0.0,"
            "0.0,0.0,22360679.774997894,0.0",
        ),
    }

    @pytest.mark.parametrize("point", list(PINNED), ids=str)
    def test_pinned_bits(self, point):
        res = exact_bound(*point)
        got = (
            exact_ep(*point).hex(),
            exact_ep(*point, capped=False).hex(),
            res.ep_max.hex(),
            res.ep_uncapped.hex(),
            float(res.ay_star).hex(),
            res.method,
            res.witness.serialize(),
        )
        assert got == self.PINNED[point]


class TestExactEpMany:
    """The batched bound against the scalar `exact_ep`, its oracle."""

    GRID = [0.0] + TestGridMax.GRID

    @staticmethod
    def check_equals_scalar(e_bs, alphas):
        for capped in (True, False):
            got = exact_ep_many(e_bs, alphas, capped)
            want = [exact_ep(e, a, capped) for e, a in zip(e_bs, alphas)]
            assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_equals_scalar_on_grid(self):
        points = [(e, a) for e in self.GRID for a in self.GRID]
        self.check_equals_scalar(*zip(*points))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-15.0, max_value=math.log10(0.5)),
                st.floats(min_value=-15.0, max_value=math.log10(0.5)),
            ),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_scalar_log_uniform_blocks(self, logs):
        # up to 100 points, so blocks cross the _BLOCK-point chunking
        assert _BLOCK < 100
        self.check_equals_scalar(
            [10.0**x for x, _ in logs], [10.0**y for _, y in logs]
        )

    def test_empty_and_axes(self):
        assert exact_ep_many([], []) == []
        assert exact_ep_many([0.0, 0.1, 0.3], [0.3, 0.0, 0.0]) == [0.3, 0.2, 0.5]

    def test_domain_errors(self):
        for e_b, alpha in [(-0.1, 0.1), (0.6, 0.1), (0.1, 0.51), (0.1, -1.0)]:
            with pytest.raises(DomainError):
                exact_ep_many([0.05, e_b], [0.05, alpha])


class TestTinyRates:
    """Where (1 - e_b) / (e_b * alpha) overflows no |a_Y| is feasible; every
    entry point reports that as a DomainError."""

    POINTS = [(1e-300, 1e-300), (1e-160, 1e-160), (5e-324, 0.5)]

    @pytest.mark.parametrize("point", POINTS, ids=str)
    def test_domain_error(self, point):
        with pytest.raises(DomainError, match="overflows"):
            exact_ep(*point)
        with pytest.raises(DomainError, match="overflows"):
            exact_ep(*point, capped=False)
        with pytest.raises(DomainError, match="overflows"):
            exact_bound(*point)
        with pytest.raises(DomainError, match="overflows"):
            exact_ep_many([0.05, point[0]], [0.05, point[1]])

    def test_smallest_bounded_product(self):
        # e_b * alpha = 1e-308 still has finite odds ratios
        assert exact_ep_many([1e-154], [1e-154]) == [exact_ep(1e-154, 1e-154)]


class TestApproxBound:
    def test_limits(self):
        assert approx_bound(0.0, 0.3) == pytest.approx(0.3, abs=1e-15)
        assert approx_bound(0.1, 0.0) == pytest.approx(0.2, abs=1e-15)

    def test_hand_value(self):
        # 0.05 + 0.05*1.8975 + 2*sqrt(0.0475 * 0.047375)
        assert approx_bound(0.05, 0.05, capped=False) == pytest.approx(
            0.23974991765477322, abs=1e-15
        )

    def test_cap(self):
        assert approx_bound(0.25, 0.25) == 0.5
        assert approx_bound(0.25, 0.25, capped=False) > 0.5

    def test_five_eb_limit(self):
        # approx(e, e)/e -> 5 as e -> 0+
        assert approx_bound(0.02, 0.02) / 0.02 == pytest.approx(5.0, rel=0.02)
        assert approx_bound(1e-6, 1e-6) / 1e-6 == pytest.approx(5.0, rel=1e-3)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            approx_bound(0.51, 0.1)


class TestSimpleBound:
    def test_five_eb_on_diagonal(self):
        assert simple_bound(0.04, 0.04) == pytest.approx(0.2, abs=1e-15)

    def test_limits_and_arithmetic(self):
        assert simple_bound(0.0, 0.3) == pytest.approx(0.3)
        assert simple_bound(0.01, 0.04) == pytest.approx(0.10, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            simple_bound(0.1, 0.6)


class TestOrderingAndMonotonicity:
    def test_bound_ordering_on_grid(self):
        for e_b in np.linspace(0.01, 0.5, 15):
            for alpha in np.linspace(0.01, 0.5, 15):
                ex = exact_bound(float(e_b), float(alpha)).ep_max
                ap = approx_bound(float(e_b), float(alpha), capped=False)
                sb = simple_bound(float(e_b), float(alpha))
                assert ex <= ap + 1e-9
                assert ap <= sb + 1e-9

    def test_monotone_in_alpha(self):
        alphas = np.linspace(0.01, 0.5, 25)
        for e_b in (0.02, 0.1, 0.3):
            ex = [exact_bound(e_b, float(a)).ep_max for a in alphas]
            ap = [approx_bound(e_b, float(a), capped=False) for a in alphas]
            sb = [simple_bound(e_b, float(a)) for a in alphas]
            for seq in (ex, ap, sb):
                diffs = np.diff(seq)
                assert (diffs >= -1e-12).all()
