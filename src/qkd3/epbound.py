"""Upper bounds on the phase error rate from observed (e_b, alpha).

The worst-case attack consistent with observed bit error rate e_b and
check-state error rate alpha maximizes e_p = (|a_Z|^2 + |a_Y|^2) * e_b
subject to

    |a_X|^2 + |a_Y|^2 = 1                      (scaling)
    eb_hat    := (1-e_b)/e_b  = |a_I|^2 + |a_Z|^2
    alpha_hat := (1-alpha)/alpha
              = (|a_I| + |a_X|)^2 / (|a_Y| - |a_Z|)^2   (aligned phases)

after aligning a_I with a_X and a_Z with i*a_Y, which only increases the
objective.

Angle form.  Write |a_Y| = sin(theta), |a_X| = cos(theta), |a_Z| =
r sin(phi), a_I = r cos(phi) with r = sqrt(eb_hat), and tan(gamma) =
1/sqrt(alpha_hat).  The alpha constraint becomes r sin(phi - gamma) =
sin(theta + gamma), so with v = theta + gamma in [gamma, gamma + pi/2]
and s = sin(v) the attack is, in closed form,

    |a_Y| = sin(v - gamma),    |a_X| = cos(v - gamma),
    |a_Z| = s cos(gamma) + sin(gamma) sqrt(eb_hat - s^2),
    a_I   = sqrt(eb_hat - s^2) cos(gamma) - s sin(gamma),

and the bound is e_p = e_b * max_v h(v) with h(v) = |a_Z|^2 + |a_Y|^2.
Every v is feasible (s <= 1 <= eb_hat).  A negative a_I is the case
where a_I opposes a_X: the constraint then holds with |a_I + a_X| =
||a_X| - |a_I||.

The maximizer is a root of h'.  With R = sqrt(eb_hat - s^2),

    h'(v) = 2 |a_Z| cos(v) (cos(gamma) - sin(gamma) s / R) + sin 2(v - gamma),

and h'(gamma + pi/2) = -|a_Z| sin(2 gamma) (1 - sin(gamma) / R) < 0 (as R
> sin(gamma) there, unless e_b = 1/2).  The maximum lies on [pi/2, gamma
+ pi/2], and h' changes sign there at most once, so the root there is the
global maximum.  Proof: in sigma = s^2 (cos(v) = -+sqrt(1 - sigma)),

    h = sin^2(gamma) (eb_hat + 1) + 2 sigma cos(2 gamma)
        + sin(2 gamma) [sqrt(sigma (eb_hat - sigma)) +- sqrt(sigma (1 - sigma))],

with + on [pi/2, gamma + pi/2] and - on [gamma, pi/2].
  - Left branch: h(v) - h(pi/2) = -2 (1 - sigma) cos(2 gamma) + sin(2 gamma)
    [a - b - sqrt(sigma (1 - sigma))] <= 0, with a = sqrt(sigma (eb_hat -
    sigma)) and b = sqrt(eb_hat - 1).  For alpha <= 1/2, gamma <= pi/4, so
    cos(2 gamma) >= 0; and a - b <= sqrt(a^2 - b^2) where a >= b, with a^2
    - b^2 = (1 - sigma)(1 + sigma - eb_hat) <= sigma (1 - sigma) as eb_hat
    >= 1.
  - Right branch: each square root is of a concave quadratic in sigma, so
    h is concave in sigma, and sigma falls monotonically in v; h is
    unimodal there.  At its lower end R h'/2 = sin(gamma) cos(gamma)
    sqrt(eb_hat - 1) > 0 for e_b < 1/2.
So for e_b < 1/2 the maximum is the one sign change of h' on [pi/2, gamma
+ pi/2], and `exact_ep` finds it by a bracketed Illinois search
(`_illinois_root`) to 1e-12 in v, about 3.4 evaluations of h' a point;
where rounding leaves h'(gamma + pi/2) >= 0 (e_b just below 1/2) the
maximum is gamma + pi/2 itself.  As v >= pi/2, every uncapped witness has
|a_X| = cos(v - gamma) <= sin(gamma), that is |a_X|^2 <= alpha at unit
weight.  At e_b = 1/2 (eb_hat = 1) the maximum is h = 2 at v = gamma +
pi/2 in closed form, with no search.  The search runs on R h'/2, which
has the sign and roots of h' but no division: R vanishes only at e_b =
1/2, where s rounds to 1 near v = pi/2 and h has a kink.
tests/test_epbound.py tests each step of the proof as a Hypothesis
property over [1e-15, 1/2]^2 and its edges, and the conclusion against a
4001-point grid in v over all of [gamma, gamma + pi/2].  `exact_bound`
also returns the attack attaining the maximum.  `approx_bound` is the
closed form obtained from an analytic upper bound on |a_Z|, and
`simple_bound` its small-rate simplification alpha + 2*e_b +
2*sqrt(e_b*alpha).

Reported bounds are capped at 1/2: a phase error rate of 1/2 already
gives away everything, so larger values are never needed.  A capped
`exact_bound` still returns an attack with e_p exactly 1/2, and its
`ay_star` is that attack's |a_Y|.  `_capped_witness` runs first, on the
odds ratios of the `_Angles` that found the maximum: it scans a
2001-point |a_Y| grid with the two interference terms free, so it also
covers alpha above about 0.35, where every aligned attack has e_p >
1/2, and returns the first attack it finds.  Where the grid finds
nothing (e_b > 1/4 with small alpha, where the feasible window narrows
like sqrt(alpha), and now and then just above the cap), the aligned
crossing takes over: the same Illinois search, to 1e-15 in v, for
e_b * h(v) = 1/2 between v = gamma, if it is below the cap, and the
maximizer.  The other endpoint is never below the cap when gamma is
not: as sin(gamma) <= cos(gamma), |a_Z| at gamma is at most |a_Z| at
gamma + pi/2, where |a_Y| = 1, so h(gamma + pi/2) >= h(gamma) + 1.  At
alpha = 1/2 with e_b below about 1e-30, e_b * h exceeds 1/2 by rounding
alone, from gamma on, so neither finds an attack; the maximizer's attack
then serves if it reproduces (e_b, alpha, 1/2) to 1e-9, and otherwise
`exact_bound` raises DomainError.  All
of the package's 1-D searches (the secure-region frontier, the decoy
secure distance and the decoy's optimal mu, a root of dR/dmu, too) use
`_illinois_root`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .attack import KrausCoefficients, _element, rates_from_ensemble
from .errors import DomainError

_V_TOL = 1e-12  # root-search tolerance in v
_CROSS_TOL = 1e-15  # root-search tolerance of the capped crossing in v
# approx_bound and simple_bound scale the rates under their square roots by
# 2**500 and the root back (exact), so e_b * alpha cannot underflow to 0
_UP, _DOWN = 2.0**500, 2.0**-500
_HALVE_WITNESS_FROM = 2.0**1021  # eb_hat from which `_Angles.witness` halves

EP_CAP = 0.5


@dataclass(frozen=True)
class BoundResult:
    """A phase-error bound with the attack element achieving it.

    ep_max is capped at 1/2 for reporting; ep_uncapped keeps the raw
    maximization value, which is what arbitrary attacks (whose e_p may
    exceed 1/2) are sound against.
    """

    ep_max: float
    witness: KrausCoefficients
    method: str  # "exact" | "limiting"
    ep_uncapped: float

    @property
    def ay_star(self) -> float:
        """|a_Y| of the witness."""
        return float(abs(self.witness.a_Y))


def _check_domain(e_b: float, alpha: float) -> None:
    if not (0.0 <= e_b <= 0.5) or not (0.0 <= alpha <= 0.5):
        raise DomainError(
            f"(e_b, alpha)=({e_b}, {alpha}) outside [0, 1/2] x [0, 1/2]"
        )


def _illinois_root(f, a: float, fa: float, b: float, fb: float, tol: float) -> float:
    """Sign change of f in [a, b], a < b, with fa = f(a) > 0 > fb = f(b), to tol.

    Illinois steps (regula falsi that halves the stored value at an end
    kept twice; Dowell and Jarratt, BIT 11, 1971), each at least tol/2
    inside the bracket so that it closes, and a bisection step whenever
    two steps have not halved the bracket or an end value is infinite.
    """
    kept = 0  # +1 after a step replaced a, -1 after one replaced b
    width = prev = math.inf  # bracket widths one and two steps back
    half = 0.5 * tol
    while b - a > tol:
        if b - a > 0.5 * prev or fa - fb == math.inf:
            c = 0.5 * (a + b)
        else:
            c = b - fb * (b - a) / (fb - fa)
            if c < a + half:
                c = a + half
            elif c > b - half:
                c = b - half
        prev, width = width, b - a
        fc = f(c)
        if fc > 0.0:
            a, fa = c, fc
            if kept == 1:
                fb *= 0.5
            kept = 1
        elif fc < 0.0:
            b, fb = c, fc
            if kept == -1:
                fa *= 0.5
            kept = -1
        else:
            return c
    return 0.5 * (a + b)


class _Angles:
    """h(v) and the attack at v for one (e_b, alpha) in (0, 1/2]^2, in angle
    form, from the odds ratios eb_hat = (1-e_b)/e_b and alpha_hat =
    (1-alpha)/alpha."""

    def __init__(self, e_b: float, alpha: float):
        self.eb_hat = (1.0 - e_b) / e_b
        self.alpha_hat = (1.0 - alpha) / alpha
        if not (self.eb_hat < math.inf and self.alpha_hat < math.inf):
            raise DomainError(
                f"(e_b, alpha)=({e_b}, {alpha}): the odds ratio (1 - rate) / "
                "rate of a subnormal rate overflows"
            )
        self.gamma = math.atan(1.0 / math.sqrt(self.alpha_hat))
        self.sin_g = math.sin(self.gamma)
        self.cos_g = math.cos(self.gamma)

    def h(self, v: float) -> float:
        """|a_Z|^2 + |a_Y|^2 of the aligned attack at v."""
        s = math.sin(v)
        az = s * self.cos_g + self.sin_g * math.sqrt(self.eb_hat - s * s)
        ay = s * self.cos_g - math.cos(v) * self.sin_g
        return az * az + ay * ay

    def slope(self, v: float) -> float:
        """R * h'(v) / 2 with R = sqrt(eb_hat - s^2), s = sin(v): the sign
        and roots of h'(v), and no division, so finite where R = 0."""
        s, c = math.sin(v), math.cos(v)
        root = math.sqrt(self.eb_hat - s * s)
        az = s * self.cos_g + self.sin_g * root
        ay = s * self.cos_g - c * self.sin_g
        ax = c * self.cos_g + s * self.sin_g
        return az * c * (self.cos_g * root - self.sin_g * s) + ay * ax * root

    def maximize(self) -> tuple[float, float]:
        """(v, h(v)) at the maximum of h on [gamma, gamma + pi/2], which lies
        on [pi/2, gamma + pi/2] (see the module docstring)."""
        lo, hi = 0.5 * math.pi, self.gamma + 0.5 * math.pi
        if self.eb_hat == 1.0:  # e_b = 1/2: |a_Z| = |a_Y| = 1 at hi, e_p = 1
            return hi, 2.0
        f_hi = self.slope(hi)
        if f_hi >= 0.0:
            return hi, self.h(hi)
        f_lo = self.sin_g * self.cos_g * math.sqrt(self.eb_hat - 1.0)  # slope(lo)
        v = _illinois_root(self.slope, lo, f_lo, hi, f_hi, _V_TOL)
        return v, self.h(v)

    def witness(self, v: float) -> KrausCoefficients:
        """The aligned attack at v, which attains e_p = e_b * h(v).

        Its weight is eb_hat + 1; from eb_hat = 2**1021 (e_b near the
        smallest normal double) every amplitude is halved, exactly, so
        that 4x the weight stays finite as KrausCoefficients requires."""
        s = math.sin(v)
        root = math.sqrt(self.eb_hat - s * s)
        u = 0.5 if self.eb_hat >= _HALVE_WITNESS_FROM else 1.0
        return KrausCoefficients(
            u * (root * self.cos_g - s * self.sin_g),
            u * math.cos(v - self.gamma),
            u * math.sin(v - self.gamma),
            1j * (u * (s * self.cos_g + self.sin_g * root)),
        )

    def crossing(self, e_b: float, v_star: float) -> float | None:
        """v with e_b * h(v) = 1/2 between gamma and the maximizer v_star;
        None when e_b * h(gamma) > 1/2.  The other endpoint never serves:
        for alpha <= 1/2, h(gamma + pi/2) >= h(gamma) + 1."""
        excess = lambda v: EP_CAP - e_b * self.h(v)
        f_lo = excess(self.gamma)
        if f_lo <= 0.0:
            return self.gamma if f_lo == 0.0 else None
        # excess(v_star) < 0, as e_b * h(v_star) > 1/2
        return _illinois_root(
            excess, self.gamma, f_lo, v_star, excess(v_star), _CROSS_TOL
        )


def _capped_witness(angles: _Angles) -> KrausCoefficients | None:
    """Attack element with e_p = 1/2 at the given (e_b, alpha), or None.

    Fixing |a_Y|^2 + |a_Z|^2 = (eb_hat + 1)/2 pins e_p to 1/2; the two
    interference terms are then free to meet the alpha constraint,
    which they can whenever the attainable ranges of |a_I + a_X|^2 and
    alpha_hat * |i a_Y - a_Z|^2 overlap for some |a_Y|.  The scan walks
    |a_Y| = i * (1 / 2000), i = 0..2000, on Python floats (1.0 exactly at
    the end; the same 2001 values as numpy's linspace(0, 1, 2001)) and at
    the first |a_Y| where the ranges overlap returns the `_element` with
    |a_I + a_X|^2 = w and |i a_Y - a_Z|^2 = w / alpha_hat, w mid-overlap.
    """
    ah, eh = angles.alpha_hat, angles.eb_hat
    q = 0.5 * (eh + 1.0)  # |a_Y|^2 + |a_Z|^2 forcing e_p = 1/2
    for i in range(2001):
        y = i * (1.0 / 2000)
        z = math.sqrt(max(q - y * y, 0.0))
        x = math.sqrt(max(1.0 - y * y, 0.0))
        ii = math.sqrt(max(eh - z * z, 0.0))
        lo_l, hi_l = (ii - x) ** 2, (ii + x) ** 2
        lo_r, hi_r = ah * (y - z) ** 2, ah * (y + z) ** 2
        if max(lo_l, lo_r) > min(hi_l, hi_r):
            continue
        w = 0.5 * (max(lo_l, lo_r) + min(hi_l, hi_r))
        return _element(ii, x, y, z, w, w / ah)
    return None


def _attains(witness: KrausCoefficients, rates: tuple[float, float, float]) -> bool:
    """Whether the witness reproduces (e_b, alpha, e_p) to 1e-9 relative."""
    r = rates_from_ensemble([witness])
    return all(
        math.isclose(got, want, rel_tol=1e-9)
        for got, want in zip((r.e_b, r.alpha, r.e_p), rates)
    )


def _limiting_case(e_b: float, alpha: float) -> BoundResult:
    """Bounds on the axes, where the hatted parameters are undefined."""
    if e_b == 0.0:
        # a_X = a_Y = 0 is forced, so e_p = alpha (identity attack at alpha = 0).
        w = KrausCoefficients(math.sqrt(1.0 - alpha), 0, 0, 1j * math.sqrt(alpha))
        return BoundResult(alpha, w, "limiting", alpha)
    # alpha = 0 forces a_Z = i*a_Y, so e_p <= 2*e_b, saturated at a_X = 0.
    ep = min(2.0 * e_b, EP_CAP)
    if e_b <= 0.25:
        ay = math.sqrt(e_b)
        w = KrausCoefficients(math.sqrt(1.0 - 2.0 * e_b), 0, ay, 1j * ay)
    else:
        # e_p caps at 1/2; put the surplus bit-error weight into a_X.
        ay = 0.5
        w = KrausCoefficients(
            math.sqrt(0.75 - e_b), math.sqrt(e_b - 0.25), ay, 0.5j
        )
    return BoundResult(ep, w, "limiting", 2.0 * e_b)


def exact_bound(e_b: float, alpha: float) -> BoundResult:
    """Tight phase-error bound by 1-D maximization over the angle v.

    Capped at 1/2.  When the cap binds, the witness is replaced by an
    attack with e_p exactly 1/2 (`_capped_witness`, else the aligned
    crossing) so that the witness still reproduces (e_b, alpha, ep_max).
    Callers that need only the value should use `exact_ep`, which skips
    the witness.  DomainError outside [0, 1/2]^2 or for a subnormal rate.
    """
    _check_domain(e_b, alpha)
    if e_b == 0.0 or alpha == 0.0:
        return _limiting_case(e_b, alpha)

    angles = _Angles(e_b, alpha)
    v_star, h_max = angles.maximize()
    val = e_b * h_max
    if val <= EP_CAP:
        return BoundResult(val, angles.witness(v_star), "exact", val)
    witness = _capped_witness(angles)
    if witness is None:
        v_cap = angles.crossing(e_b, v_star)
        # None also where val exceeds 1/2 by rounding alone (alpha = 1/2,
        # e_b below about 1e-30): the maximizer itself then serves
        witness = angles.witness(v_star if v_cap is None else v_cap)
        if v_cap is None and not _attains(witness, (e_b, alpha, EP_CAP)):
            raise DomainError(
                f"no attack with e_p = 1/2 found at (e_b, alpha)=({e_b}, {alpha})"
            )
    return BoundResult(EP_CAP, witness, "exact", val)


def exact_ep(e_b: float, alpha: float, capped: bool = True) -> float:
    """Value of `exact_bound` without the witness.

    Equals exact_bound(e_b, alpha).ep_max, or .ep_uncapped with
    ``capped=False``; for sweeps that read only the value.
    """
    _check_domain(e_b, alpha)
    if e_b == 0.0 or alpha == 0.0:
        val = _limiting_case(e_b, alpha).ep_uncapped
    else:
        val = e_b * _Angles(e_b, alpha).maximize()[1]
    return min(val, EP_CAP) if capped else val


def approx_bound(e_b: float, alpha: float, capped: bool = True) -> float:
    """Closed-form phase-error bound.

    alpha + e_b*(2 - 2*alpha - alpha^2)
          + 2*sqrt(alpha*(1-alpha)*e_b*(1 - e_b - e_b*alpha)),
    capped at 1/2 unless ``capped=False``.
    """
    _check_domain(e_b, alpha)
    a, e = alpha * _UP, e_b * _UP
    root = math.sqrt(max(a * (1.0 - alpha) * e * (1.0 - e_b - e_b * alpha), 0.0))
    val = alpha + e_b * (2.0 - 2.0 * alpha - alpha * alpha) + 2.0 * (root * _DOWN)
    return min(val, EP_CAP) if capped else val


def simple_bound(e_b: float, alpha: float) -> float:
    """Small-rate bound alpha + 2*e_b + 2*sqrt(e_b*alpha)."""
    _check_domain(e_b, alpha)
    return alpha + 2.0 * e_b + 2.0 * (math.sqrt(e_b * _UP * (alpha * _UP)) * _DOWN)
