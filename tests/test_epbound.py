import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qkd3.errors
from qkd3 import (
    DomainError,
    KrausCoefficients,
    approx_bound,
    exact_bound,
    exact_ep,
    random_attack,
    rates_from_ensemble,
    simple_bound,
)
from qkd3.epbound import _Angles, _illinois_root

rate = st.floats(min_value=1e-4, max_value=0.5, allow_nan=False)
LOG_HALF = math.log10(0.5)
EPS = 2.0**-52
QKD3_ERRORS = tuple(
    v
    for v in vars(qkd3.errors).values()
    if isinstance(v, type) and v.__module__ == "qkd3.errors"
)


def az_branch(ay: float, hats) -> float | None:
    """|a_Z| on the (+ + -) root branch at |a_Y| = ay, or None if infeasible.

    The |a_Y| form of the bound, kept here as the angle form's oracle:
    eliminating |a_I| and |a_X| from the constraints leaves a quartic in
    |a_Z| whose relevant root this is.  Infeasible when the inner
    radicand is negative (the pre-squaring constraint has no solution
    there) or when |a_Z|^2 > eb_hat (which would force |a_I|^2 < 0).
    """
    ah, eh = hats.alpha_hat, hats.eb_hat
    s = math.sqrt(max(ah * (1.0 - ay * ay), 0.0))
    r = eh * (1.0 + ah) - 1.0 - ay * ay * (ah - 1.0) - 2.0 * ay * s
    if r < 0.0:
        return None
    z = (ah * ay + s + math.sqrt(r)) / (1.0 + ah)
    if z * z > eh:
        return None
    return z


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
        h = _Angles(0.25, 0.25)
        z = az_branch(0.0, h)
        assert z == pytest.approx((math.sqrt(3) + math.sqrt(11)) / 4, abs=1e-14)
        assert z * z < h.eb_hat

    def test_boundary_ay_one(self):
        # sqrt(1 - ay^2) terms vanish: |a_Z| = (ah + sqrt(eh*(1+ah) - ah))/(1+ah);
        # at e_b = alpha = 0.05 that is (19 + sqrt(361))/20 = 1.9 exactly
        h = _Angles(0.05, 0.05)
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
                h = _Angles(e_b, alpha)
                assert all(
                    az_branch(float(y), h) is not None
                    for y in np.linspace(0.0, 1.0, 101)
                )

    @given(rate, rate, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300)
    def test_feasible_points_solve_a_constraint_sign(self, e_b, alpha, ay):
        h = _Angles(e_b, alpha)
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
                h = _Angles(float(e_b), float(alpha))
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


class TestSoundnessNearBound:
    """Attacks next to the bound's maximizer stay under the bound at their
    own rates: a perturbed maximizer, capped or not, reaches a relative
    slack far below 1e-9, where uniform random attacks keep about 1e-3, so
    a bound set too low by 1e-9 fails here."""

    log_rate = st.floats(min_value=math.log(1e-6), max_value=math.log(0.5))
    log_eps = st.floats(min_value=math.log(1e-8), max_value=math.log(1e-2))
    seeds = st.integers(min_value=0, max_value=2**32 - 1)

    @staticmethod
    def assert_perturbed_within_bound(w, log_eps, seed):
        coords = np.array(
            [x for a in (w.a_I, w.a_X, w.a_Y, w.a_Z) for x in (a.real, a.imag)]
        )
        # each of the 8 real coordinates moves by a relative eps at most
        rng = np.random.default_rng(seed)
        moved = coords * (1.0 + math.exp(log_eps) * rng.uniform(-1.0, 1.0, 8))
        r = rates_from_ensemble(
            [KrausCoefficients(*(complex(*moved[i : i + 2]) for i in range(0, 8, 2)))]
        )
        assume(r.e_b <= 0.5 and r.alpha <= 0.5)
        assert r.e_p <= exact_ep(r.e_b, r.alpha, capped=False) * (1.0 + 1e-12)

    @given(log_rate, log_rate, log_eps, seeds)
    @settings(max_examples=300, deadline=None)
    def test_perturbed_witness_within_bound(self, log_eb, log_alpha, log_eps, seed):
        e_b, alpha = min(math.exp(log_eb), 0.5), min(math.exp(log_alpha), 0.5)
        res = exact_bound(e_b, alpha)
        assume(res.ep_uncapped <= 0.5)
        self.assert_perturbed_within_bound(res.witness, log_eps, seed)

    # alpha = 1/2 - gap with gap log-uniform: about 3 in 4 such points are
    # capped, where the reported witness sits at e_p = 1/2 and so the
    # uncapped maximizer is perturbed instead
    log_gap = st.floats(min_value=math.log(1e-6), max_value=math.log(0.49))

    @given(log_rate, log_gap, log_eps, seeds)
    @settings(max_examples=300, deadline=None)
    def test_perturbed_capped_maximizer_within_bound(
        self, log_eb, log_gap, log_eps, seed
    ):
        e_b, alpha = min(math.exp(log_eb), 0.5), 0.5 - math.exp(log_gap)
        a = _Angles(e_b, alpha)
        v_star, h_max = a.maximize()
        assume(e_b * h_max > 0.5)
        self.assert_perturbed_within_bound(a.witness(v_star), log_eps, seed)


class TestSoundnessHillClimb:
    """A seeded random-direction hill-climb on e_p - exact_ep(e_b, alpha,
    capped=False) over all 8 real attack coordinates, phases free, from
    random starts: a missed global maximum of the bound would show as an
    attack above it, where perturbing the bound's own maximizer would not.

    Each start takes steps of length sigma in a random direction on the unit
    sphere; a step that leaves [0, 1/2]^2 or does not raise the excess is
    rejected.  sigma doubles on a success and shrinks by 2**(1/4) on a
    failure (about the one-fifth success rule), so the climb closes in on
    the bound at a geometric rate.
    """

    STARTS, STEPS = 16, 1500

    @staticmethod
    def rates(x):
        """(e_b, alpha, e_p) of each row (Re/Im of a_I, a_X, a_Y, a_Z)."""
        ir, ii, xr, xi, yr, yi, zr, zi = x.T
        total = (x * x).sum(axis=1)
        check_err = (yi + zr) ** 2 + (yr - zi) ** 2  # |i a_Y - a_Z|^2
        check_ok = (ir + xr) ** 2 + (ii + xi) ** 2  # |a_I + a_X|^2
        return (
            (xr * xr + xi * xi + yr * yr + yi * yi) / total,
            check_err / (check_err + check_ok),
            (zr * zr + zi * zi + yr * yr + yi * yi) / total,
        )

    @classmethod
    def excess(cls, x):
        """(e_p - bound, bound) per row; the excess is -inf outside the
        region."""
        out = np.full((len(x), 2), [-np.inf, np.nan])
        for k, (e_b, alpha, e_p) in enumerate(zip(*cls.rates(x))):
            if e_b <= 0.5 and alpha <= 0.5:
                bound = exact_ep(float(e_b), float(alpha), capped=False)
                out[k] = e_p - bound, bound
        return out[:, 0], out[:, 1]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_climb_reaches_but_never_exceeds_bound(self, seed):
        rng = np.random.default_rng(seed)
        x = np.empty((self.STARTS, 8))
        for k in range(self.STARTS):
            while True:
                x[k] = rng.standard_normal(8)
                if np.isfinite(self.excess(x[k : k + 1])[0][0]):
                    break
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        f, bound = self.excess(x)
        sigma = np.full(self.STARTS, 0.1)
        for _ in range(self.STEPS):
            d = rng.standard_normal((self.STARTS, 8))
            y = x + sigma[:, None] * d / np.linalg.norm(d, axis=1, keepdims=True)
            y /= np.linalg.norm(y, axis=1, keepdims=True)
            g, g_bound = self.excess(y)
            up = g > f
            x[up], f[up], bound[up] = y[up], g[up], g_bound[up]
            sigma = np.maximum(np.where(up, 2.0 * sigma, sigma * 2.0**-0.25), 1e-12)
        rel = f / bound
        # the climb gets there: at least half the starts end within 1e-12
        assert np.median(rel) > -1e-12
        assert rel.max() <= 1e-12


class TestExactEp:
    # log grid over [1e-15, 1/2] plus the exact axis, midpoint and edge values
    GRID = sorted(
        {float(x) for x in np.logspace(-15, math.log10(0.5), 54)}
        | {0.0, 0.25, 0.5}
    )

    def test_equals_exact_bound_values(self):
        for e_b in self.GRID:
            for alpha in self.GRID:
                res = exact_bound(e_b, alpha)
                assert exact_ep(e_b, alpha) == res.ep_max
                assert exact_ep(e_b, alpha, capped=False) == res.ep_uncapped

    def test_axes(self):
        assert [exact_ep(e, a) for e, a in [(0.0, 0.3), (0.1, 0.0), (0.3, 0.0)]] == [
            0.3,
            0.2,
            0.5,
        ]
        assert exact_ep(0.3, 0.0, capped=False) == 0.6

    def test_domain_errors(self):
        for e_b, alpha in [(-0.1, 0.1), (0.6, 0.1), (0.1, 0.51), (0.1, -1.0)]:
            with pytest.raises(DomainError):
                exact_ep(e_b, alpha)
            with pytest.raises(DomainError):
                exact_ep(e_b, alpha, capped=False)

    @pytest.mark.parametrize(
        "e_b, alpha",
        [(e, a) for e in (1e-12, 1e-6, 0.02, 0.1, 0.3) for a in (1e-12, 1e-6, 0.03, 0.2, 0.5)],
    )
    def test_at_least_dense_az_branch_grid_max(self, e_b, alpha):
        # the angle form against the |a_Y| form on a 20 001-point grid
        h = _Angles(e_b, alpha)
        objective = [
            (z * z + y * y) * e_b
            for y in np.linspace(0.0, 1.0, 20_001).tolist()
            if (z := az_branch(y, h)) is not None
        ]
        assert exact_ep(e_b, alpha, capped=False) >= max(objective) * (1.0 - 2e-15)


def grid_h_max(e_b: float, alpha: float, n: int = 4001) -> float:
    """max of e_b * h(v) on an n-point grid over [gamma, gamma + pi/2],
    straight from the angle-form formulas."""
    eb_hat = (1.0 - e_b) / e_b
    gamma = math.atan(math.sqrt(alpha / (1.0 - alpha)))
    v = np.linspace(gamma, gamma + 0.5 * math.pi, n)
    s = np.sin(v)
    az = s * math.cos(gamma) + math.sin(gamma) * np.sqrt(np.maximum(eb_hat - s * s, 0.0))
    return float((e_b * (az * az + np.sin(v - gamma) ** 2)).max())


class TestMaximizer:
    """The root search on h' finds the global maximum of h.  The `epbound`
    docstring proves that the maximum lies on [pi/2, gamma + pi/2] and is
    the one sign change of h' there; the properties below test each step
    of that proof, and the grid property tests its conclusion against a
    dense grid in v over all of [gamma, gamma + pi/2], with one case per
    branch of `maximize`."""

    log_rate = st.floats(min_value=-15.0, max_value=LOG_HALF).map(lambda x: 10.0**x)
    edge_rate = st.sampled_from([0.5, 0.25, 1e-15])
    proof_rate = st.one_of(
        log_rate, st.sampled_from([0.5, math.nextafter(0.5, 0.0), 0.25, 1e-15])
    )
    unit = st.floats(min_value=0.0, max_value=1.0)

    @staticmethod
    def angles(e_b, alpha):
        a = _Angles(e_b, alpha)
        return a, a.gamma, a.gamma + 0.5 * math.pi

    @given(st.one_of(log_rate, edge_rate), st.one_of(log_rate, edge_rate))
    @settings(max_examples=400, deadline=None)
    def test_at_least_grid_max(self, e_b, alpha):
        grid = grid_h_max(e_b, alpha)
        assert exact_ep(e_b, alpha, capped=False) >= grid * (1.0 - 1e-12)

    @given(proof_rate, proof_rate, unit)
    @settings(max_examples=400, deadline=None)
    def test_left_branch_below_its_end(self, e_b, alpha, t):
        # h(v) <= h(pi/2) on [gamma, pi/2], so the search may start at pi/2;
        # e_b = 1/2 takes the closed form, and at alpha = 1/2 too h is flat
        # on this branch, where rounding alone decides
        assume(e_b < 0.5)
        a, lo, _ = self.angles(e_b, alpha)
        mid = 0.5 * math.pi
        h_mid = a.h(mid)
        assert a.h(lo + t * (mid - lo)) <= h_mid * (1.0 + 1e-14)
        assert h_mid <= a.maximize()[1] * (1.0 + 1e-14)

    @given(proof_rate, proof_rate, unit, unit)
    @settings(max_examples=400, deadline=None)
    def test_right_branch_concave_in_sigma(self, e_b, alpha, t1, t2):
        # h on [pi/2, gamma + pi/2] is concave in sigma = sin(v)^2, so it has
        # one maximum there.  The midpoint is taken in 1 - sigma = cos(v)^2,
        # which resolves v near pi/2.  h carries a rounding error of a few
        # ulps plus about eps sin(2 gamma) / 2R, R = sqrt(eb_hat - sin(v)^2),
        # which cancels near v = pi/2 when e_b is near 1/2
        a = _Angles(e_b, alpha)
        mid = 0.5 * math.pi
        v1, v2 = mid + t1 * a.gamma, mid + t2 * a.gamma
        u = 0.5 * (math.cos(v1) ** 2 + math.cos(v2) ** 2)
        vs = (v1, v2, mid + math.asin(math.sqrt(u)))
        h1, h2, h_mid = (a.h(v) for v in vs)
        r = min(math.sqrt(a.eb_hat - math.sin(v) ** 2) for v in vs)
        cancel = a.sin_g * a.cos_g / r if r > 0.0 else math.inf
        tol = 4.0 * EPS * (max(h1, h2) + cancel)
        assert h_mid >= 0.5 * (h1 + h2) - tol

    @given(proof_rate, proof_rate)
    @settings(max_examples=400, deadline=None)
    def test_uncapped_witness_within_alpha(self, e_b, alpha):
        # the maximizer v >= pi/2 gives |a_X| = cos(v - gamma) <= sin(gamma),
        # and sin(gamma)^2 = alpha at unit weight |a_X|^2 + |a_Y|^2
        res = exact_bound(e_b, alpha)
        assume(res.ep_uncapped <= 0.5)
        x2, y2 = abs(res.witness.a_X) ** 2, abs(res.witness.a_Y) ** 2
        assert x2 <= alpha * (x2 + y2) * (1.0 + 1e-12)

    def test_interior_root(self):
        a, lo, hi = self.angles(0.05, 0.05)
        assert a.slope(lo) > 0.0 > a.slope(hi)
        v, h = a.maximize()
        assert lo < v < hi
        assert a.slope(v - 1e-9) > 0.0 > a.slope(v + 1e-9)
        assert 0.05 * h >= grid_h_max(0.05, 0.05)

    def test_endpoint_maximum(self):
        # at e_b = 1/2, h peaks at the endpoint gamma + pi/2 with h = 2,
        # returned in closed form; just below 1/2, h'(gamma + pi/2) is 0 up
        # to rounding, and where the rounded h' there is >= 0 no bracket
        # exists and maximize returns the endpoint itself
        below_half = math.nextafter(0.5, 0.0)
        endpoint_branch = 0
        for alpha in np.linspace(0.01, 0.5, 20).tolist():
            a, lo, hi = self.angles(0.5, alpha)
            assert a.maximize() == (hi, 2.0)
            assert a.h(hi) == pytest.approx(2.0, rel=1e-15)
            a, lo, hi = self.angles(below_half, alpha)
            v, h = a.maximize()
            assert h == pytest.approx(2.0, rel=1e-15)
            assert v == pytest.approx(hi, abs=1e-7)
            if a.slope(hi) >= 0.0:
                endpoint_branch += 1
                assert (v, h) == (hi, a.h(hi))
        assert endpoint_branch > 0

    def test_kink_at_half(self):
        # at e_b = 1/2, R = sqrt(eb_hat - sin(v)^2) is 0 at v = pi/2, where h
        # has a kink; the search function stays finite there, and a bracket
        # ending just left of the kink converges to it
        a, lo, hi = self.angles(0.5, 0.25)
        assert a.eb_hat - math.sin(0.5 * math.pi) ** 2 == 0.0
        assert math.isfinite(a.slope(0.5 * math.pi))
        b = 0.5 * math.pi - 1e-9
        assert a.slope(lo) > 0.0 > a.slope(b)
        v = _illinois_root(a.slope, lo, a.slope(lo), b, a.slope(b), 1e-12)
        assert abs(v - 0.5 * math.pi) < 1e-7
        assert a.h(v) == pytest.approx(2.0 * math.cos(a.gamma) ** 2, rel=1e-8)
        for alpha in (0.5, 0.25, 1e-3, 1e-15):
            assert exact_ep(0.5, alpha, capped=False) == 1.0

    @staticmethod
    def count_slopes(monkeypatch) -> list[int]:
        """A one-element list that counts the calls of _Angles.slope."""
        count = [0]
        slope = _Angles.slope

        def counted(self, v):
            count[0] += 1
            return slope(self, v)

        monkeypatch.setattr(_Angles, "slope", counted)
        return count

    def test_slope_evaluations_per_point(self, monkeypatch):
        # about 3.4 a point on average on [pi/2, gamma + pi/2] (6.1 on all
        # of [gamma, gamma + pi/2]); the golden section took about 63 of h
        count = self.count_slopes(monkeypatch)
        axis = np.logspace(-15, LOG_HALF, 25).tolist()
        for e_b in axis:
            for alpha in axis:
                _Angles(e_b, alpha).maximize()
        assert count[0] / len(axis) ** 2 <= 4.5

    def test_no_slope_evaluation_at_half(self, monkeypatch):
        count = self.count_slopes(monkeypatch)
        for alpha in np.logspace(-15, LOG_HALF, 200).tolist() + [0.5]:
            _Angles(0.5, alpha).maximize()
        assert count[0] == 0


class TestWitness:
    """Every witness attains the bound it comes with."""

    log_rate = st.floats(min_value=-15.0, max_value=LOG_HALF).map(lambda x: 10.0**x)
    edge_rate = st.sampled_from(
        [0.0, 0.5, 0.25, 1e-300, 1e-160, 2.3e-308, 2.2250738585072014e-308, 1e-310, 5e-324]
    )

    @given(st.one_of(log_rate, edge_rate), st.one_of(log_rate, edge_rate))
    @settings(max_examples=400, deadline=None)
    def test_reproduces_rates_or_raises_documented_error(self, e_b, alpha):
        try:
            res = exact_bound(e_b, alpha)
        except QKD3_ERRORS:
            return
        assert res.ay_star == abs(res.witness.a_Y)
        r = rates_from_ensemble([res.witness])
        assert abs(r.e_b - e_b) <= 1e-9
        assert abs(r.alpha - alpha) <= 1e-9
        assert abs(r.e_p - res.ep_max) <= 1e-9

    @pytest.mark.parametrize(
        "point",
        # points where the |a_Y| grid of _capped_witness finds nothing
        [(0.3, 1e-8), (0.2407, 6.9e-4), (0.3, 1e-15), (0.5, 1e-10)],
        ids=str,
    )
    def test_capped_aligned_crossing(self, point):
        res = exact_bound(*point)
        assert res.ep_max == 0.5 < res.ep_uncapped
        r = rates_from_ensemble([res.witness])
        assert (r.e_b, r.alpha, r.e_p) == pytest.approx((*point, 0.5), rel=1e-12)

    normal_rate = st.one_of(log_rate, st.sampled_from([0.5, 0.25, 1e-15, 2.3e-308]))

    @given(normal_rate, normal_rate)
    @settings(max_examples=400, deadline=None)
    def test_crossing_needs_only_the_lower_endpoint(self, e_b, alpha):
        # h(gamma + pi/2) >= h(gamma) + 1: the upper endpoint is above the
        # cap whenever the lower one is, so `crossing` never searches from it
        a = _Angles(e_b, alpha)
        h_lo, h_hi = a.h(a.gamma), a.h(a.gamma + 0.5 * math.pi)
        assert h_hi >= (h_lo + 1.0) * (1.0 - 1e-15)

    # exact_ep (capped, uncapped) and exact_bound's (ep_max, ep_uncapped,
    # ay_star, method, witness), recorded from the root search on h'
    # (0.4.0); the two aligned-crossing witnesses from its Illinois search
    # (0.5.0); the |a_Y|-grid witnesses (0.3, 0.3) and (1e-15, 0.5) from the
    # half-angle `_element` (0.12.0); the uncapped value of (0.3, 0.3) and
    # the crossing witness of (0.2407, 6.9e-4) from the search on
    # [pi/2, gamma + pi/2] (0.14.0)
    PINNED = {
        (0.05, 0.05): (
            "0x1.dde5b0509b108p-3", "0x1.dde5b0509b108p-3",
            "0x1.dde5b0509b108p-3", "0x1.dde5b0509b108p-3",
            "0x1.faa4592d86a0bp-1", "exact",
            "3.913082508158519,0.0,0.14429216764309122,0.0,"
            "0.9895351284097286,0.0,0.0,1.9203607172465877",
        ),
        (0.3, 0.3): (
            "0x1.0000000000000p-1", "0x1.d2b3aa9740ce6p-1",
            "0x1.0000000000000p-1", "0x1.d2b3aa9740ce6p-1",
            "0x1.8f5c28f5c28f6p-4", "exact",
            "0.8222316002930462,0.010397699082154821,0.9952355248884557,0.0,"
            "0.0975,0.0,0.027209502216650156,1.2870198365432404",
        ),
        (0.2407, 6.9e-4): (
            "0x1.0000000000000p-1", "0x1.00083bc85da6dp-1",
            "0x1.0000000000000p-1", "0x1.00083bc85da6dp-1",
            "0x1.ffd83d90137a3p-1", "exact",
            "1.441064892912931,0.0,0.024629050286980526,0.0,"
            "0.9996966589330792,0.0,0.0,1.038210578747026",
        ),
        (0.3, 1e-8): (
            "0x1.0000000000000p-1", "0x1.333c47e7071adp-1",
            "0x1.0000000000000p-1", "0x1.333c47e7071adp-1",
            "0x1.d3591d7bb1e09p-1", "exact",
            "1.2246840072823995,0.0,0.408430837441777,0.0,"
            "0.9127892697806043,0.0,0.0,0.9129525812658933",
        ),
        (1e-15, 0.5): (
            "0x1.0000000000000p-1", "0x1.0000010fa3389p-1",
            "0x1.0000000000000p-1", "0x1.0000010fa3389p-1",
            "0x0.0p+0", "exact",
            "-0.0687521250413688,22360679.774997875,1.0,0.0,"
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


class TestTinyRates:
    """Rates down to the smallest normal double get a bound and a witness;
    a subnormal rate makes its odds ratio overflow, a DomainError."""

    @pytest.mark.parametrize("point", [(1e-300, 1e-300), (1e-160, 1e-160)], ids=str)
    def test_witness_round_trip(self, point):
        res = exact_bound(*point)
        assert res.ep_max == pytest.approx(5.0 * point[0], rel=1e-12)
        assert exact_ep(*point) == res.ep_max
        r = rates_from_ensemble([res.witness])
        assert (r.e_b, r.alpha, r.e_p) == pytest.approx(
            (*point, res.ep_max), rel=1e-9
        )

    @pytest.mark.parametrize("point", [(5e-324, 0.5), (0.3, 5e-324)], ids=str)
    def test_domain_error(self, point):
        with pytest.raises(DomainError, match="overflows"):
            exact_ep(*point)
        with pytest.raises(DomainError, match="overflows"):
            exact_ep(*point, capped=False)
        with pytest.raises(DomainError, match="overflows"):
            exact_bound(*point)

    @pytest.mark.parametrize(
        "point", [(2.2250738585072014e-308, 0.5), (2.2250738585072014e-308, 1e-300)], ids=str
    )
    def test_smallest_normal_eb_witness(self, point):
        # eb_hat = 2**1022: the unhalved witness would weigh 2**1022, and
        # 4x that overflows; the halved one reproduces the rates
        res = exact_bound(*point)
        assert res.ep_max == exact_ep(*point) > 0.0
        assert res.witness.total_weight == pytest.approx(2.0**1020, rel=1e-12)
        r = rates_from_ensemble([res.witness])
        assert (r.e_b, r.alpha, r.e_p) == pytest.approx((*point, res.ep_max), rel=1e-9)

    @pytest.mark.parametrize(
        "e_b", [3.1571837583107767e-34, 2.2312818145724366e-308], ids=str
    )
    def test_alpha_half_rounding_over_cap(self, e_b):
        # e_b * h rounds above 1/2 from gamma to the maximizer, so neither
        # the |a_Y| grid nor the crossing finds an attack; the maximizer's
        # own witness reproduces (e_b, 1/2, 1/2)
        res = exact_bound(e_b, 0.5)
        assert res.ep_max == exact_ep(e_b, 0.5) == 0.5 < res.ep_uncapped
        r = rates_from_ensemble([res.witness])
        assert (r.e_b, r.alpha, r.e_p) == pytest.approx((e_b, 0.5, 0.5), rel=1e-9)

    def test_smallest_bounded_product(self):
        # e_b * alpha = 1e-308 still has finite odds ratios
        assert exact_ep(1e-154, 1e-154) == pytest.approx(5e-154, rel=1e-12)

    @pytest.mark.parametrize("point", [(1e-300, 1e-300), (1e-160, 1e-160)], ids=str)
    def test_closed_forms_bound_exact(self, point):
        # e_b * alpha underflows here; the closed forms must still hold
        # their sqrt term (5e-300, not 3e-300) and stay above the exact bound
        ep = exact_ep(*point)
        for closed in (approx_bound(*point), simple_bound(*point)):
            assert closed == pytest.approx(5.0 * point[0], rel=1e-12)
            assert closed >= ep * (1.0 - 1e-12)


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
