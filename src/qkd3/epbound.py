"""Upper bounds on the phase error rate from observed (e_b, alpha).

The worst-case attack consistent with observed bit error rate e_b and
check-state error rate alpha maximizes e_p = |a_Z|^2 + |a_Y|^2 subject to

    |a_I|^2 + |a_X|^2 + |a_Y|^2 + |a_Z|^2 = 1        (unit weight)
    |a_X|^2 + |a_Y|^2 = e_b
    alpha (|a_I| + |a_X|)^2 = (1 - alpha) (|a_Y| - |a_Z|)^2   (aligned phases)

after aligning a_I with a_X and a_Z with i*a_Y, which only increases the
objective.

Angle form.  Write p = sqrt(e_b), sin(gamma) = sqrt(alpha) and
cos(gamma) = sqrt(1 - alpha), |a_Y| = p sin(theta) and |a_X| = p
cos(theta).  With v = theta + gamma in [gamma, gamma + pi/2], s = sin(v),
c = cos(v) and rho = sqrt(1 - 2 e_b + e_b c^2) the attack is, in closed
form,

    |a_Y| = p (s cos(gamma) - c sin(gamma)),
    |a_X| = p (c cos(gamma) + s sin(gamma)),
    |a_Z| = p s cos(gamma) + sin(gamma) rho,
    a_I   = rho cos(gamma) - p s sin(gamma),

and the bound is e_p = max_v e_p(v) with

    e_p(v) = (p s cos(gamma) + sin(gamma) rho)^2
             + e_b (s cos(gamma) - c sin(gamma))^2.

Every v is feasible: a_I^2 + |a_Z|^2 = rho^2 + e_b s^2 = 1 - e_b, and
both sides of the alpha constraint are (sin(gamma) cos(gamma) (rho + p
c))^2; a negative a_I opposes a_X.  No term overflows or cancels at any
rate in [0, 1/2]: rho^2 >= 1 - 2 e_b, and p and sin(gamma) are normal
doubles even for a subnormal rate.

The maximizer is a root of e_p'.  With a_X and a_Y read at p = 1,

    rho e_p'(v) / (2 p) = |a_Z| c a_I + p |a_Y| |a_X| rho,

and at v = gamma + pi/2 (|a_X| = 0, c = -sin(gamma)) it is -|a_Z|
sin(gamma) a_I < 0, as a_I = cos(gamma) (rho - p sin(gamma)) > 0 there
unless e_b = 1/2.  The maximum lies on [pi/2, gamma + pi/2], and e_p'
changes sign there at most once, so the root there is the global
maximum.  Proof: in sigma = s^2 (c = -+sqrt(1 - sigma)),

    e_p = alpha + 2 e_b sigma cos(2 gamma)
          + sin(2 gamma) [p sqrt(sigma (1 - e_b - e_b sigma))
                          +- e_b sqrt(sigma (1 - sigma))],

with + on [pi/2, gamma + pi/2] and - on [gamma, pi/2].
  - Left branch: e_p(v) - e_p(pi/2) = -2 e_b (1 - sigma) cos(2 gamma) +
    sin(2 gamma) [a - b - e_b sqrt(sigma (1 - sigma))] <= 0, with a = p
    sqrt(sigma (1 - e_b - e_b sigma)) and b = p sqrt(1 - 2 e_b).  For
    alpha <= 1/2, gamma <= pi/4, so cos(2 gamma) >= 0; and a - b <=
    sqrt(a^2 - b^2) where a >= b, with a^2 - b^2 = e_b (1 - sigma)
    (e_b (sigma + 2) - 1) <= e_b^2 sigma (1 - sigma) as 2 e_b <= 1.
  - Right branch: each square root is of a concave quadratic in sigma, so
    e_p is concave in sigma, and sigma falls monotonically in v; e_p is
    unimodal there.  At its lower end rho e_p'/(2 p) = p sin(gamma)
    cos(gamma) sqrt(1 - 2 e_b) > 0 for e_b < 1/2.
So for e_b < 1/2 the maximum is the one sign change of e_p' on [pi/2,
gamma + pi/2], found by a bracketed Illinois search (`_illinois_root`)
to 1e-12 in v, about 3.5 evaluations of e_p' a point, or gamma + pi/2
itself where rounding leaves e_p' >= 0 there (e_b just below 1/2); at
e_b = 1/2 it is e_p = 1 at gamma + pi/2, with no search.  As v >= pi/2,
every uncapped witness has |a_X|^2 <= alpha (|a_X|^2 + |a_Y|^2).  The
search runs on rho e_p'/(2 p), which has no division: rho vanishes only
at e_b = 1/2 and v = pi/2, a kink of e_p.  The code takes u = v - pi/2
(s = cos(u), c = -sin(u), gamma = asin(sqrt(alpha))), so that the
bracket [0, gamma] keeps its digits however small gamma is.
tests/test_epbound.py tests each step of the proof as a Hypothesis
property, and the conclusion against a 4001-point grid in v.
`exact_bound` also returns the attack attaining the maximum, scaled to
|a_X|^2 + |a_Y|^2 = 1 (weight 1/e_b) and, for e_b below 2**-1021, by a
further 2**k, k = (1020 + frexp(e_b)[1]) // 2, to a weight of at most
2**1021.  `approx_bound` is the closed form obtained from an analytic
upper bound on |a_Z|, and `simple_bound` its small-rate simplification
alpha + 2*e_b + 2*sqrt(e_b*alpha).

Reported bounds are capped at 1/2: a phase error rate of 1/2 already
gives away everything.  A capped `exact_bound` still returns an attack
with e_p exactly 1/2.  `_capped_witness` scans a 2001-point |a_Y| grid
at unit weight with the two interference terms free, so it also covers
alpha above about 0.35, where every aligned attack has e_p > 1/2.  Where
it finds nothing (e_b > 1/4 with small alpha, where the feasible window
narrows like sqrt(alpha), and now and then just above the cap), the
same Illinois search, to 1e-15 in v, finds e_p(v) = 1/2 between v =
gamma, if it is below the cap, and the maximizer.  The other end is
never below the cap when gamma is not: |a_Z| at gamma is at most |a_Z|
at gamma + pi/2, where |a_Y| = p, so e_p(gamma + pi/2) >= e_p(gamma) +
e_b.  Where neither finds an attack, the maximizer's serves if it
reproduces (e_b, alpha, 1/2) to 1e-9, and otherwise `exact_bound`
raises DomainError.  All of the package's 1-D searches use
`_illinois_root`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .attack import KrausCoefficients, _element, rates_from_ensemble
from .errors import DomainError

_V_TOL = 1e-12  # root-search tolerance in v
_CROSS_TOL = 1e-15  # root-search tolerance of the capped crossing in v

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
    """e_p and the attack at u = v - pi/2 for one (e_b, alpha) in (0, 1/2]^2,
    in the unit-weight angle form of the module docstring."""

    def __init__(self, e_b: float, alpha: float):
        self.e_b, self.alpha = e_b, alpha
        self.q = 1.0 - 2.0 * e_b  # rho^2 at c = 0
        self.p = p = math.sqrt(e_b)
        self.sin_g, self.cos_g = math.sqrt(alpha), math.sqrt(1.0 - alpha)
        self.p_sin_g, self.p_cos_g = p * self.sin_g, p * self.cos_g
        self.gamma = math.asin(self.sin_g)

    def ep(self, u: float) -> float:
        """e_p = |a_Z|^2 + |a_Y|^2 of the aligned attack at u (s = cos(u),
        c = -sin(u))."""
        s, sn = math.cos(u), math.sin(u)
        e_b, sin_g = self.e_b, self.sin_g
        az = self.p_cos_g * s + sin_g * math.sqrt(self.q + e_b * sn * sn)
        ay = s * self.cos_g + sn * sin_g
        return az * az + e_b * ay * ay

    def slope(self, u: float) -> float:
        """rho e_p'(u) / (2 p) = |a_Z| c a_I + p |a_Y| |a_X| rho: the sign and
        roots of e_p'(u), and no division, so finite where rho = 0."""
        s, sn = math.cos(u), math.sin(u)
        sin_g, cos_g = self.sin_g, self.cos_g
        rho = math.sqrt(self.q + self.e_b * sn * sn)
        az = self.p_cos_g * s + sin_g * rho
        ay = s * cos_g + sn * sin_g
        ax = s * sin_g - sn * cos_g
        return self.p * ay * ax * rho - az * sn * (cos_g * rho - self.p_sin_g * s)

    def maximize(self) -> tuple[float, float]:
        """(u, e_p(u)) at the maximum of e_p on [gamma - pi/2, gamma], which
        lies on [0, gamma] (see the module docstring)."""
        hi = self.gamma
        if self.e_b == 0.5:  # |a_Z| = |a_Y| = sqrt(1/2) at hi, e_p = 1
            return hi, 1.0
        f_hi = self.slope(hi)
        if f_hi >= 0.0:
            return hi, self.ep(hi)
        f_lo = self.p_sin_g * self.cos_g * math.sqrt(self.q)  # slope(0)
        u = _illinois_root(self.slope, 0.0, f_lo, hi, f_hi, _V_TOL)
        return u, self.ep(u)

    def scale(self) -> tuple[float, float]:
        """(f, f / p), f = 2**min(0, (1020 + frexp(e_b)[1]) // 2): factors from
        |a_X|, |a_Y| at p = 1 and |a_I|, |a_Z| at unit weight to a witness."""
        f = 2.0 ** min(0, (1020 + math.frexp(self.e_b)[1]) // 2)
        return f, f / self.p

    def witness(self, u: float) -> KrausCoefficients:
        """The aligned attack at u, which attains e_p(u)."""
        s, sn = math.cos(u), math.sin(u)
        sin_g, cos_g = self.sin_g, self.cos_g
        rho = math.sqrt(self.q + self.e_b * sn * sn)
        f, t = self.scale()
        return KrausCoefficients(
            (cos_g * rho - self.p_sin_g * s) * t,
            (s * sin_g - sn * cos_g) * f,
            (s * cos_g + sn * sin_g) * f,
            1j * ((self.p_cos_g * s + sin_g * rho) * t),
        )

    def crossing(self, u_star: float) -> float | None:
        """u with e_p(u) = 1/2 between gamma - pi/2 (v = gamma) and the
        maximizer u_star; None when e_p there is above 1/2."""
        excess = lambda u: EP_CAP - self.ep(u)
        lo = self.gamma - 0.5 * math.pi
        f_lo = excess(lo)
        if f_lo <= 0.0:
            return lo if f_lo == 0.0 else None
        return _illinois_root(excess, lo, f_lo, u_star, excess(u_star), _CROSS_TOL)


def _capped_witness(angles: _Angles) -> KrausCoefficients | None:
    """Attack element with e_p = 1/2 at the given (e_b, alpha), or None.

    At unit weight, fixing |a_Y|^2 + |a_Z|^2 = 1/2 pins e_p to 1/2; the
    two interference terms are then free to meet the alpha constraint,
    which they can whenever the attainable ranges of alpha |a_I + a_X|^2
    and (1 - alpha) |i a_Y - a_Z|^2 overlap for some |a_Y|.  The scan
    walks |a_Y| = p y, y = i * (1 / 2000), i = 0..2000, on Python floats
    (1.0 exactly at the end; the same 2001 values as numpy's
    linspace(0, 1, 2001)), with |a_X| = p sqrt(1 - y^2), |a_Z| = sqrt(1/2
    - |a_Y|^2) and |a_I| = sqrt(1/2 - |a_X|^2), and at the first y where
    the ranges overlap returns the `_element` with alpha |a_I + a_X|^2 =
    (1 - alpha) |i a_Y - a_Z|^2 = w, w mid-overlap, scaled as
    `_Angles.witness` is.
    """
    alpha, p = angles.alpha, angles.p
    beta = 1.0 - alpha
    for i in range(2001):
        y = i * (1.0 / 2000)
        ay, ax = p * y, p * math.sqrt(1.0 - y * y)
        # p * p may round above 1/2 at e_b = 1/2
        az = math.sqrt(max(0.5 - ay * ay, 0.0))
        ai = math.sqrt(max(0.5 - ax * ax, 0.0))
        lo = max(alpha * (ai - ax) ** 2, beta * (ay - az) ** 2)
        hi = min(alpha * (ai + ax) ** 2, beta * (ay + az) ** 2)
        if lo > hi:
            continue
        t = angles.scale()[1]
        w = 0.5 * (lo + hi) * t * t
        return _element(ai * t, ax * t, ay * t, az * t, w / alpha, w / beta)
    return None


def _attains(witness: KrausCoefficients, rates: tuple[float, float, float]) -> bool:
    """Whether the witness reproduces (e_b, alpha, e_p) to 1e-9 relative."""
    r = rates_from_ensemble([witness])
    return all(
        math.isclose(got, want, rel_tol=1e-9)
        for got, want in zip((r.e_b, r.alpha, r.e_p), rates)
    )


def _limiting_case(e_b: float, alpha: float) -> BoundResult:
    """Bounds on the axes, in closed form."""
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
    the witness.  DomainError outside [0, 1/2]^2.
    """
    _check_domain(e_b, alpha)
    if e_b == 0.0 or alpha == 0.0:
        return _limiting_case(e_b, alpha)

    angles = _Angles(e_b, alpha)
    u_star, val = angles.maximize()
    if val <= EP_CAP:
        return BoundResult(val, angles.witness(u_star), "exact", val)
    witness = _capped_witness(angles)
    if witness is None:
        u_cap = angles.crossing(u_star)
        # None where e_p(gamma) > 1/2 too: the maximizer itself may serve
        witness = angles.witness(u_star if u_cap is None else u_cap)
        if u_cap is None and not _attains(witness, (e_b, alpha, EP_CAP)):
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
        val = _Angles(e_b, alpha).maximize()[1]
    return min(val, EP_CAP) if capped else val


def approx_bound(e_b: float, alpha: float, capped: bool = True) -> float:
    """Closed-form phase-error bound.

    alpha + e_b*(2 - 2*alpha - alpha^2)
          + 2*sqrt(alpha*(1-alpha)*e_b*(1 - e_b - e_b*alpha)),
    capped at 1/2 unless ``capped=False``.
    """
    _check_domain(e_b, alpha)
    # two roots, so that no product of the rates underflows
    root = math.sqrt(alpha * (1.0 - alpha)) * math.sqrt(e_b * (1.0 - e_b - e_b * alpha))
    val = alpha + e_b * (2.0 - 2.0 * alpha - alpha * alpha) + 2.0 * root
    return min(val, EP_CAP) if capped else val


def simple_bound(e_b: float, alpha: float) -> float:
    """Small-rate bound alpha + 2*e_b + 2*sqrt(e_b*alpha)."""
    _check_domain(e_b, alpha)
    return alpha + 2.0 * e_b + 2.0 * (math.sqrt(e_b) * math.sqrt(alpha))
