import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkd3 import (
    DegenerateAttackError,
    KrausCoefficients,
    combine_pair,
    exact_bound,
    phase_cosines,
    random_attack,
    rates_from_ensemble,
    reduce_ensemble,
)
from qkd3.attack import _element

component = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def kraus_elements(draw):
    vals = draw(
        st.tuples(*([component] * 8)).filter(lambda v: any(x != 0.0 for x in v))
    )
    return KrausCoefficients(
        complex(vals[0], vals[1]),
        complex(vals[2], vals[3]),
        complex(vals[4], vals[5]),
        complex(vals[6], vals[7]),
    )


def random_ensemble(rng, size):
    return [random_attack(int(rng.integers(0, 2**31))) for _ in range(size)]


class TestRatesFromEnsemble:
    def test_identity_channel(self):
        r = rates_from_ensemble([KrausCoefficients(1, 0, 0, 0)])
        assert (r.e_b, r.alpha, r.e_p) == (0.0, 0.0, 0.0)

    def test_pure_phase_flip(self):
        r = rates_from_ensemble([KrausCoefficients(0, 0, 0, 1)])
        assert (r.e_b, r.alpha, r.e_p) == (0.0, 1.0, 1.0)

    def test_weak_phase_noise(self):
        k = KrausCoefficients(math.sqrt(0.9), 0, 0, 1j * math.sqrt(0.1))
        r = rates_from_ensemble([k])
        assert r.e_b == pytest.approx(0.0, abs=1e-15)
        assert r.alpha == pytest.approx(0.1, abs=1e-15)
        assert r.e_p == pytest.approx(0.1, abs=1e-15)

    def test_two_element_sums(self):
        ens = [KrausCoefficients(1, 0, 0, 0), KrausCoefficients(0, 1, 0, 0)]
        r = rates_from_ensemble(ens)
        assert r.e_b == pytest.approx(0.5, abs=1e-15)
        assert r.alpha == 0.0
        assert r.e_p == 0.0

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            rates_from_ensemble([])

    def test_degenerate_check_denominator(self):
        # a_Z = i*a_Y and a_X = -a_I zero out both check-state outcomes
        k = KrausCoefficients(1.0, -1.0, 0.5, 0.5j)
        with pytest.raises(DegenerateAttackError):
            rates_from_ensemble([k])

    def test_tiny_check_terms_rescaled(self):
        # the total weight 8e-308 is a normal double, |i a_Y|^2 = 1e-340 is
        # not: the rates are those of the same attack scaled by 2**600
        k = KrausCoefficients(2e-154, -2e-154, 1e-170, 0)
        assert rates_from_ensemble([k]) == rates_from_ensemble([k.scaled(2.0**600)])
        assert rates_from_ensemble([k]).alpha == 1.0

    @given(st.lists(kraus_elements(), min_size=1, max_size=5))
    def test_rates_within_unit_interval(self, elements):
        try:
            r = rates_from_ensemble(elements)
        except DegenerateAttackError:
            assume(False)
        assert 0.0 <= r.e_b <= 1.0
        assert 0.0 <= r.alpha <= 1.0
        assert 0.0 <= r.e_p <= 1.0

    @given(
        kraus_elements(),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
        st.integers(min_value=0, max_value=1000),
    )
    def test_global_phase_invariance(self, k, theta, shift):
        # a factor 2**-shift is exact while every nonzero part stays a
        # normal double; past shift ~ 511 the squares underflow
        parts = [x for a in (k.a_I, k.a_X, k.a_Y, k.a_Z) for x in (a.real, a.imag)]
        assume(all(x == 0.0 or abs(x) * 2.0**-shift >= 2.0**-1022 for x in parts))
        try:
            base = rates_from_ensemble([k])
        except DegenerateAttackError:
            assume(False)
        rotated = rates_from_ensemble([k.scaled(cmath.exp(1j * theta) * 2.0**-shift)])
        assert rotated.e_b == pytest.approx(base.e_b, abs=1e-12)
        assert rotated.alpha == pytest.approx(base.alpha, abs=1e-12)
        assert rotated.e_p == pytest.approx(base.e_p, abs=1e-12)


class TestCombinePair:
    def test_identity_with_bit_flip(self):
        out = combine_pair(
            KrausCoefficients(1, 0, 0, 0), KrausCoefficients(0, 1, 0, 0)
        )
        assert abs(out.a_I) == pytest.approx(1.0)
        assert abs(out.a_X) == pytest.approx(1.0)
        assert abs(out.a_Y) == abs(out.a_Z) == 0.0
        # zero I/X cosine puts a quarter turn between a_I and a_X
        assert out.a_I == pytest.approx(1j, abs=1e-15)
        assert out.a_X == pytest.approx(1.0)
        assert abs(out.a_I + out.a_X) ** 2 == pytest.approx(2.0, abs=1e-12)

    def test_self_combination_doubles_weights(self):
        k = random_attack(11)
        out = combine_pair(k, k)
        for name in ("a_I", "a_X", "a_Y", "a_Z"):
            assert abs(getattr(out, name)) == pytest.approx(
                math.sqrt(2.0) * abs(getattr(k, name)), abs=1e-12
            )
        assert phase_cosines(out) == pytest.approx(phase_cosines(k), abs=1e-12)
        merged = rates_from_ensemble([out])
        doubled = rates_from_ensemble([k, k])
        assert merged.e_b == pytest.approx(doubled.e_b, abs=1e-12)

    @given(kraus_elements(), kraus_elements())
    @settings(max_examples=200)
    def test_rates_preserved(self, s1, s2):
        try:
            pair = rates_from_ensemble([s1, s2])
        except DegenerateAttackError:
            assume(False)
        merged = rates_from_ensemble([combine_pair(s1, s2)])
        assert merged.e_b == pytest.approx(pair.e_b, abs=1e-12)
        assert merged.alpha == pytest.approx(pair.alpha, abs=1e-12)
        assert merged.e_p == pytest.approx(pair.e_p, abs=1e-12)

    @given(kraus_elements(), kraus_elements())
    @settings(max_examples=200)
    def test_cosines_bounded(self, s1, s2):
        c_ix, c_yz = phase_cosines(combine_pair(s1, s2))
        assert -1.0 <= c_ix <= 1.0
        assert -1.0 <= c_yz <= 1.0

    def test_nearby_witnesses_at_small_alpha(self):
        # two bound witnesses a relative 1e-9..1e-5 apart: their
        # interference terms nearly cancel at small alpha, and the merge
        # must still keep the rates of the pair
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            alpha = 10.0 ** rng.uniform(-12.0, -3.0)
            e_b = 10.0 ** rng.uniform(-6.0, math.log10(0.5))
            f = 1.0 + 10.0 ** rng.uniform(-9.0, -5.0)
            s1 = exact_bound(e_b, alpha).witness
            s2 = exact_bound(min(e_b * f, 0.5), alpha * f).witness
            pair = rates_from_ensemble([s1, s2])
            merged = rates_from_ensemble([combine_pair(s1, s2)])
            assert (merged.e_b, merged.alpha, merged.e_p) == pytest.approx(
                (pair.e_b, pair.alpha, pair.e_p), rel=1e-9, abs=0.0
            )

    def test_weight_additivity(self):
        s1, s2 = random_attack(3), random_attack(4)
        out = combine_pair(s1, s2)
        assert out.total_weight == pytest.approx(
            s1.total_weight + s2.total_weight, abs=1e-12
        )


magnitude = st.floats(min_value=1e-100, max_value=1e100)
fraction = st.floats(min_value=0.0, max_value=1.0)


class TestElement:
    """`_element`, the canonical form of an attack element."""

    @given(st.tuples(*[magnitude] * 4), fraction, fraction)
    def test_targets_and_magnitudes_come_back(self, mags, f_ok, f_err):
        m_i, m_x, m_y, m_z = mags
        # targets anywhere in their attainable ranges [(m - m')^2, (m + m')^2]
        ok = (m_i - m_x) ** 2 + f_ok * 4.0 * m_i * m_x
        err = (m_y - m_z) ** 2 + f_err * 4.0 * m_y * m_z
        k = _element(*mags, ok, err)
        assert abs(abs(k.a_I + k.a_X) ** 2 - ok) <= 1e-12 * (m_i + m_x) ** 2
        assert abs(abs(1j * k.a_Y - k.a_Z) ** 2 - err) <= 1e-12 * (m_y + m_z) ** 2
        # |1 - 2t + 2i sqrt(t(1 - t))| is 1 to about an ulp
        for m, a in zip(mags, (k.a_I, k.a_X, k.a_Y, k.a_Z)):
            assert abs(abs(a) - m) <= 2.0 * math.ulp(m)
        # the phase convention: a_X and a_Y real and nonnegative
        assert k.a_X == m_x and k.a_Y == m_y

    @pytest.mark.parametrize("c", [1.0 + 1e-15, -1.0 - 1e-15, 2.0, -3.0])
    def test_out_of_range_cosine_clipped(self, c):
        # the targets of cosine c at magnitudes (1, 2, 3, 4); past [-1, 1]
        # they leave [(m - m')^2, (m + m')^2] and clip to its nearest end
        k = _element(1.0, 2.0, 3.0, 4.0, 5.0 + 4.0 * c, 25.0 - 24.0 * c)
        ends = (9.0, 1.0) if c > 0 else (1.0, 49.0)
        assert (abs(k.a_I + k.a_X) ** 2, abs(1j * k.a_Y - k.a_Z) ** 2) == (
            pytest.approx(ends, rel=1e-12)
        )
        assert phase_cosines(k) == pytest.approx((max(-1.0, min(1.0, c)),) * 2, abs=1e-12)

    @pytest.mark.parametrize(
        "mags", [(2.0, 0.0, 0.0, 3.0), (0.0, 2.0, 3.0, 0.0), (1e-170, 1e-170, 1e-170, 1e-170)]
    )
    def test_vanishing_product_gives_quarter_turn(self, mags):
        # a magnitude product of 0 (1e-170 squared underflows) puts a_I a
        # quarter turn from a_X and makes a_Z real, whatever the targets
        k = _element(*mags, 5.0, 7.0)
        assert k == KrausCoefficients(1j * mags[0], mags[1], mags[2], mags[3])


class TestReduceEnsemble:
    def test_singleton_unchanged(self):
        k = random_attack(5)
        out = reduce_ensemble([k])
        assert out == k

    def test_pair_matches_combine(self):
        ens = [KrausCoefficients(1, 0, 0, 0), KrausCoefficients(0, 1, 0, 0)]
        assert reduce_ensemble(ens) == combine_pair(*ens)

    @pytest.mark.parametrize("size", [2, 7, 64])
    def test_rates_preserved_at_size(self, size):
        rng = np.random.default_rng(size)
        ens = random_ensemble(rng, size)
        want = rates_from_ensemble(ens)
        got = rates_from_ensemble([reduce_ensemble(ens)])
        assert got.e_b == pytest.approx(want.e_b, abs=1e-12)
        assert got.alpha == pytest.approx(want.alpha, abs=1e-12)
        assert got.e_p == pytest.approx(want.e_p, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reduce_ensemble([])


class TestRandomAttack:
    def test_deterministic(self):
        assert random_attack(123) == random_attack(123)
        assert random_attack(123, region=True) == random_attack(123, region=True)

    def test_unit_normalization(self):
        for seed in range(20):
            assert random_attack(seed).total_weight == pytest.approx(1.0, abs=1e-12)

    def test_region_constraint(self):
        for seed in range(1000):
            r = rates_from_ensemble([random_attack(seed, region=True)])
            assert r.e_b <= 0.5
            assert r.alpha <= 0.5

    def test_region_draws_match_rates_reference(self):
        # the region test on the eight floats accepts the draws that
        # rates_from_ensemble accepts, so each seed gives the same attack
        def reference(seed):
            rng = np.random.default_rng(seed)
            while True:
                v = rng.standard_normal(8)
                norm = math.sqrt(float(np.dot(v, v)))
                if norm < 1e-12:
                    continue
                v = v / norm
                k = KrausCoefficients(*(complex(v[j], v[j + 1]) for j in (0, 2, 4, 6)))
                try:
                    r = rates_from_ensemble([k])
                except DegenerateAttackError:
                    continue
                if r.e_b <= 0.5 and r.alpha <= 0.5:
                    return k

        for seed in range(20_000):
            assert random_attack(seed, region=True) == reference(seed)


class TestSerialization:
    def test_round_trip(self):
        k = random_attack(9)
        assert KrausCoefficients.deserialize(k.serialize()) == k

    def test_field_order(self):
        k = KrausCoefficients(1, 2j, 3, 4j)
        assert k.serialize() == "1.0,0.0,0.0,2.0,3.0,0.0,0.0,4.0"

    def test_bad_field_count(self):
        with pytest.raises(ValueError):
            KrausCoefficients.deserialize("1,2,3")

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            KrausCoefficients(0, 0, 0, 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            KrausCoefficients(math.inf, 0, 0, 0)

    @pytest.mark.parametrize("k", [0, 3, 7])
    def test_overflowing_weight_rejected(self, k):
        # a squared magnitude or interference term past the largest float
        # would raise OverflowError in rates_from_ensemble
        for big in (1.5e308, 1e200, 1e154):
            parts = [0.0] * 8
            parts[k] = big
            with pytest.raises(ValueError, match="total weight"):
                KrausCoefficients.deserialize(",".join(map(repr, parts)))

    def test_large_weight_accepted(self):
        r = rates_from_ensemble([KrausCoefficients(1e153, 1e153, 1e153, 1e153j)])
        assert (r.e_b, r.alpha, r.e_p) == (0.5, 0.0, 0.5)
