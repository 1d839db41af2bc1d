"""Upper bounds on the phase error rate from observed (e_b, alpha).

The worst-case attack consistent with observed bit error rate e_b and
check-state error rate alpha maximizes e_p = (|a_Z|^2 + |a_Y|^2) * e_b
subject to

    |a_X|^2 + |a_Y|^2 = 1                      (scaling)
    eb_hat    := (1-e_b)/e_b  = |a_I|^2 + |a_Z|^2
    alpha_hat := (1-alpha)/alpha
              = (|a_I| + |a_X|)^2 / (|a_Y| - |a_Z|)^2   (aligned phases)

after aligning a_I with a_X and a_Z with i*a_Y, which only increases the
objective.  Eliminating |a_I| and |a_X| leaves a quartic in |a_Z| whose
relevant root is `az_branch`; the remaining 1-D maximization over |a_Y|
is `exact_bound`, which also returns an attack attaining the bound, and
`exact_ep`, its value alone; both scan a 10 001-point |a_Y| grid in two
levels (every 100th point, then the stretch around the coarse maximum)
and refine by golden section.  `exact_ep_many` is `exact_ep` at many
points: the same scan broadcasts over a block of points, so one 2-D pass
serves up to `_BLOCK` of them.  `approx_bound` is the closed form
obtained from an analytic upper bound on |a_Z|, and `simple_bound` its
small-rate simplification alpha + 2*e_b + 2*sqrt(e_b*alpha).

Reported bounds are capped at 1/2: a phase error rate of 1/2 already
gives away everything, so larger values are never needed.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .attack import KrausCoefficients
from .errors import DomainError

_SCAN_POINTS = 10_001  # uniform |a_Y| grid on [0, 1]
_STRIDE = 100  # coarse-scan step; divides _SCAN_POINTS - 1 so |a_Y| = 1 is scanned
_AY_TOL = 1e-9  # golden-section |a_Y| tolerance
_BLOCK = 32  # points per 2-D scan in exact_ep_many; bounds its temporaries
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

EP_CAP = 0.5

# The |a_Y| scan grid and the grid terms every scan reuses (rows |a_Y|,
# |a_Y|^2, 1 - |a_Y|^2, 2|a_Y|), computed once here; they give the same bits
# as computing them per scan.  _STRIDE NaN cells pad each end, so that every
# fine window below is a full-width row; the scan reads NaN as infeasible.
_GRID = np.full((4, _SCAN_POINTS + 2 * _STRIDE), np.nan)
_FULL = _GRID[:, _STRIDE:-_STRIDE]
_AY, _AY2, _ONE_MINUS_AY2, _TWO_AY = _FULL
_AY[:] = np.linspace(0.0, 1.0, _SCAN_POINTS)
np.multiply(_AY, _AY, out=_AY2)
np.subtract(1.0, _AY2, out=_ONE_MINUS_AY2)
np.multiply(2.0, _AY, out=_TWO_AY)
_COARSE = _FULL[:, ::_STRIDE]  # every _STRIDE-th point, |a_Y| = 1 included
# Row r holds grid indices r - _STRIDE .. r + _STRIDE (NaN outside the grid).
_WINDOWS = sliding_window_view(_GRID, 2 * _STRIDE + 1, axis=1)


@dataclass(frozen=True)
class HatParams:
    """Odds ratios eb_hat = (1-e_b)/e_b and alpha_hat = (1-alpha)/alpha."""

    eb_hat: float
    alpha_hat: float

    def __post_init__(self):
        if not (self.eb_hat >= 1.0 and self.alpha_hat >= 1.0):
            raise DomainError(
                "hatted parameters require e_b and alpha in (0, 1/2]"
            )

    @classmethod
    def from_rates(cls, e_b: float, alpha: float) -> "HatParams":
        if not (0.0 < e_b <= 0.5) or not (0.0 < alpha <= 0.5):
            raise DomainError(
                f"(e_b, alpha)=({e_b}, {alpha}) outside (0, 1/2] x (0, 1/2]"
            )
        return cls((1.0 - e_b) / e_b, (1.0 - alpha) / alpha)


@dataclass(frozen=True)
class BoundResult:
    """A phase-error bound with the |a_Y| and attack element achieving it.

    ep_max is capped at 1/2 for reporting; ep_uncapped keeps the raw
    maximization value, which is what arbitrary attacks (whose e_p may
    exceed 1/2) are sound against.
    """

    ep_max: float
    ay_star: float
    witness: KrausCoefficients
    method: str  # "exact" | "limiting"
    ep_uncapped: float


def _check_domain(e_b: float, alpha: float) -> None:
    if not (0.0 <= e_b <= 0.5) or not (0.0 <= alpha <= 0.5):
        raise DomainError(
            f"(e_b, alpha)=({e_b}, {alpha}) outside [0, 1/2] x [0, 1/2]"
        )


def az_branch(ay: float, hats: HatParams) -> float | None:
    """|a_Z| on the (+ + -) root branch at |a_Y| = ay, or None if infeasible.

    Infeasible when the inner radicand is negative (the pre-squaring
    constraint has no solution there) or when |a_Z|^2 > eb_hat (which
    would force |a_I|^2 < 0).
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


def _objective(ay: float, hats: HatParams, e_b: float) -> float:
    """(|a_Z|^2 + |a_Y|^2) * e_b on the branch; -inf when infeasible."""
    z = az_branch(ay, hats)
    if z is None:
        return -math.inf
    return (z * z + ay * ay) * e_b


def _scan(eb_hat, alpha_hat, e_b, grid=_FULL) -> np.ndarray:
    """Objective over the grid terms `grid` (rows as in _GRID; -inf marks
    infeasible, NaN cells included).

    Broadcasts: floats give one point's objective along the grid's last
    axis, (B, 1) columns give B points' at once, with the same bits per
    point.  The full grid, the default, is the tests' oracle for
    `_grid_max`.
    """
    ay, ay2, one_minus_ay2, two_ay = grid
    s = np.sqrt(np.maximum(alpha_hat * one_minus_ay2, 0.0))
    r = eb_hat * (1.0 + alpha_hat) - 1.0 - ay2 * (alpha_hat - 1.0) - two_ay * s
    z = (alpha_hat * ay + s + np.sqrt(np.maximum(r, 0.0))) / (1.0 + alpha_hat)
    feasible = (r >= 0.0) & (z * z <= eb_hat)
    return np.where(feasible, (z * z + ay2) * e_b, -np.inf)


def _grid_max(eb_hat, alpha_hat, e_b):
    """Index into _AY of the objective's grid maximum, and its value.

    Scans every _STRIDE-th point, then all points between the coarse
    maximum's two neighbours (a row of _WINDOWS: a view for one point, one
    gather for a block): the full scan's argmax whenever the objective
    rises then falls along the grid, as it did (one local maximum, whole
    grid feasible) on 80 000 log- and linear-uniform points.  Takes floats
    or (B, 1) columns like `_scan` and returns scalars or length-B arrays.
    The value is not finite, and the index meaningless, when no scanned
    point has a finite objective, which happens where eb_hat * (1 +
    alpha_hat) overflows: e_b * alpha below about 5.6e-309, e.g. (1e-300,
    1e-300), or a subnormal rate.
    """
    j = _scan(eb_hat, alpha_hat, e_b, _COARSE).argmax(axis=-1)
    fine = _scan(eb_hat, alpha_hat, e_b, _WINDOWS[:, j * _STRIDE])
    return (j - 1) * _STRIDE + fine.argmax(axis=-1), fine.max(axis=-1)


def _golden_max(f, lo: float, hi: float, tol=_AY_TOL, best=None) -> tuple[float, float]:
    """Golden-section maximization of f on [lo, hi] to tol in x: the best
    (x, f(x)) seen, starting from `best` when given."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    best_x, best_f = best or ((c, fc) if fc >= fd else (d, fd))
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
        if fc > best_f:
            best_x, best_f = c, fc
        if fd > best_f:
            best_x, best_f = d, fd
    return best_x, best_f


def _witness_from_ay(ay: float, hats: HatParams) -> KrausCoefficients:
    """Attack element achieving the branch objective at |a_Y| = ay.

    The branch value solves the squared constraint, which the original
    equation enters either as u + v or as |u - v| (u = |a_X|, v = |a_I|);
    the a_I phase is picked to match whichever sign holds, so the witness
    reproduces (e_b, alpha) exactly in both cases.
    """
    z = az_branch(ay, hats)
    if z is None:
        raise ValueError(f"infeasible |a_Y|={ay}")
    v = math.sqrt(max(hats.eb_hat - z * z, 0.0))
    u = math.sqrt(max(1.0 - ay * ay, 0.0))
    rhs = math.sqrt(hats.alpha_hat) * abs(ay - z)
    scale = max(1.0, rhs)
    if abs(u + v - rhs) <= 1e-9 * scale:
        return KrausCoefficients(v, u, ay, 1j * z)
    if abs(abs(u - v) - rhs) <= 1e-9 * scale:
        return KrausCoefficients(-v, u, ay, 1j * z)
    raise RuntimeError(
        f"branch value at |a_Y|={ay} solves neither constraint sign"
    )


def _capped_witness(hats: HatParams) -> tuple[float, KrausCoefficients] | None:
    """Attack element with e_p = 1/2 at the given (e_b, alpha).

    Fixing |a_Y|^2 + |a_Z|^2 = (eb_hat + 1)/2 pins e_p to 1/2; the two
    interference cosines are then free to meet the alpha constraint,
    which they can whenever the attainable ranges of |a_I + a_X|^2 and
    alpha_hat * |i a_Y - a_Z|^2 overlap for some |a_Y|.
    """
    ah, eh = hats.alpha_hat, hats.eb_hat
    q = 0.5 * (eh + 1.0)  # |a_Y|^2 + |a_Z|^2 forcing e_p = 1/2
    for y in np.linspace(0.0, 1.0, 2001):
        y = float(y)
        z = math.sqrt(max(q - y * y, 0.0))
        x = math.sqrt(max(1.0 - y * y, 0.0))
        ii = math.sqrt(max(eh - z * z, 0.0))
        lo_l, hi_l = (ii - x) ** 2, (ii + x) ** 2
        lo_r, hi_r = ah * (y - z) ** 2, ah * (y + z) ** 2
        if max(lo_l, lo_r) > min(hi_l, hi_r):
            continue
        w = 0.5 * (max(lo_l, lo_r) + min(hi_l, hi_r))
        c_ix = (w - ii * ii - x * x) / (2.0 * ii * x) if ii * x > 0.0 else 0.0
        c_yz = (
            (y * y + z * z - w / ah) / (2.0 * y * z) if y * z > 0.0 else 0.0
        )
        c_ix = min(1.0, max(-1.0, c_ix))
        c_yz = min(1.0, max(-1.0, c_yz))
        witness = KrausCoefficients(
            ii * cmath.exp(1j * math.acos(c_ix)),
            x,
            y,
            z * cmath.exp(1j * (math.pi / 2 - math.acos(c_yz))),
        )
        return y, witness
    return None


def _limiting_case(e_b: float, alpha: float) -> BoundResult:
    """Bounds on the axes, where the hatted parameters are undefined."""
    if e_b == 0.0 and alpha == 0.0:
        return BoundResult(
            0.0, 0.0, KrausCoefficients(1.0, 0, 0, 0), "limiting", 0.0
        )
    if e_b == 0.0:
        # a_X = a_Y = 0 is forced, so e_p = alpha.
        w = KrausCoefficients(math.sqrt(1.0 - alpha), 0, 0, 1j * math.sqrt(alpha))
        return BoundResult(alpha, 0.0, w, "limiting", alpha)
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
    return BoundResult(ep, ay, w, "limiting", 2.0 * e_b)


def _refine(
    e_b: float, alpha: float, hats: HatParams, i: int, grid_val: float
) -> tuple[float, float]:
    """Uncapped maximum of the objective and the |a_Y| attaining it, from
    the grid maximum (i, grid_val) of `_grid_max`, by golden section between
    its grid neighbours.  DomainError if no |a_Y| was feasible."""
    i, grid_val = int(i), float(grid_val)
    if not math.isfinite(grid_val):
        raise DomainError(
            f"no feasible |a_Y| for (e_b, alpha)=({e_b}, {alpha}): "
            "rates too small, (1 - e_b) / (e_b * alpha) overflows"
        )
    lo = _AY[max(i - 1, 0)]
    hi = _AY[min(i + 1, _SCAN_POINTS - 1)]
    ay_star, val = _golden_max(
        lambda y: _objective(y, hats, e_b), float(lo), float(hi)
    )
    if grid_val > val:
        ay_star, val = float(_AY[i]), grid_val
    return val, ay_star


def _maximize(e_b: float, alpha: float) -> tuple[float, float, HatParams]:
    """Uncapped maximum of the objective, the |a_Y| attaining it, and the hats.

    Needs e_b and alpha in (0, 1/2]; DomainError if no |a_Y| is feasible.
    """
    hats = HatParams.from_rates(e_b, alpha)
    found = _grid_max(hats.eb_hat, hats.alpha_hat, e_b)
    return (*_refine(e_b, alpha, hats, *found), hats)


def exact_bound(e_b: float, alpha: float) -> BoundResult:
    """Tight phase-error bound by 1-D maximization over |a_Y|.

    Two-level grid scan and golden-section refine (`_maximize`), capped
    at 1/2.  When the cap binds, ay_star/witness are replaced by an
    attack with e_p exactly 1/2 so that the witness still reproduces
    (e_b, alpha, ep_max).  Callers that need only the value should use
    `exact_ep`, which skips the witness.
    """
    _check_domain(e_b, alpha)
    if e_b == 0.0 or alpha == 0.0:
        return _limiting_case(e_b, alpha)

    val, ay_star, hats = _maximize(e_b, alpha)
    if val <= EP_CAP:
        return BoundResult(
            val, ay_star, _witness_from_ay(ay_star, hats), "exact", val
        )
    capped = _capped_witness(hats)
    if capped is None:
        # Reached when the 2001-point grid in _capped_witness finds no
        # feasible |a_Y|: for e_b > 1/4 with alpha below about 1e-8 to
        # 3e-8 (e.g. at (0.3, 1e-8); 53 of the 2704 points of a 52x52 log
        # grid over [1e-15, 1/2]^2), and now and then just above the cap
        # elsewhere (e.g. at (0.2407, 6.9e-4)).  The maximizer is kept as
        # witness, so its e_p is ep_uncapped, not the reported cap.
        return BoundResult(
            EP_CAP, ay_star, _witness_from_ay(ay_star, hats), "exact", val
        )
    y_cap, witness = capped
    return BoundResult(EP_CAP, y_cap, witness, "exact", val)


def _axis_ep(e_b: float, alpha: float) -> float | None:
    """Uncapped bound on the axes (`_limiting_case`'s values: e_p = alpha on
    e_b = 0, e_p = 2*e_b on alpha = 0), None inside; checks the domain."""
    _check_domain(e_b, alpha)
    if e_b == 0.0:
        return alpha
    if alpha == 0.0:
        return 2.0 * e_b
    return None


def exact_ep(e_b: float, alpha: float, capped: bool = True) -> float:
    """Value of `exact_bound` without the witness.

    Equals exact_bound(e_b, alpha).ep_max, or .ep_uncapped with
    ``capped=False``; for sweeps that read only the value.
    """
    val = _axis_ep(e_b, alpha)
    if val is None:
        val = _maximize(e_b, alpha)[0]
    return min(val, EP_CAP) if capped else val


def exact_ep_many(
    e_bs: Iterable[float], alphas: Iterable[float], capped: bool = True
) -> list[float]:
    """`exact_ep` at each point (e_bs[k], alphas[k]), bit for bit.

    Checks every point's domain first, then scans the interior points in
    blocks of up to _BLOCK with one 2-D `_grid_max` each, and refines each
    point as `exact_ep` does.  For sweeps with many points at once, where
    it saves the per-point cost of the numpy calls.  DomainError if any
    point is outside [0, 1/2]^2 or too small to bound, ValueError if the
    two sequences differ in length.
    """
    vals, inner = [], []
    for e_b, alpha in zip(e_bs, alphas, strict=True):
        e_b, alpha = float(e_b), float(alpha)
        vals.append(_axis_ep(e_b, alpha))
        if vals[-1] is None:
            hats = HatParams.from_rates(e_b, alpha)
            inner.append((len(vals) - 1, e_b, alpha, hats))
    for start in range(0, len(inner), _BLOCK):
        block = inner[start : start + _BLOCK]
        # (B, 1) columns of eb_hat, alpha_hat and e_b
        columns = np.array([(h.eb_hat, h.alpha_hat, e) for _, e, _, h in block])
        # Overflow of eb_hat * (1 + alpha_hat) is silent in the scalar path
        # (Python floats) and is what _refine reports as a DomainError.
        with np.errstate(over="ignore"):
            found = _grid_max(*columns.T[:, :, None])
        for (k, e, a, hats), i, g in zip(block, *(f.tolist() for f in found)):
            vals[k] = _refine(e, a, hats, i, g)[0]
    return [min(v, EP_CAP) if capped else v for v in vals]


def approx_bound(e_b: float, alpha: float, capped: bool = True) -> float:
    """Closed-form phase-error bound.

    alpha + e_b*(2 - 2*alpha - alpha^2)
          + 2*sqrt(alpha*(1-alpha)*e_b*(1 - e_b - e_b*alpha)),
    capped at 1/2 unless ``capped=False``.
    """
    _check_domain(e_b, alpha)
    val = (
        alpha
        + e_b * (2.0 - 2.0 * alpha - alpha * alpha)
        + 2.0
        * math.sqrt(
            max(alpha * (1.0 - alpha) * e_b * (1.0 - e_b - e_b * alpha), 0.0)
        )
    )
    return min(val, EP_CAP) if capped else val


def simple_bound(e_b: float, alpha: float) -> float:
    """Small-rate bound alpha + 2*e_b + 2*sqrt(e_b*alpha)."""
    _check_domain(e_b, alpha)
    return alpha + 2.0 * e_b + 2.0 * math.sqrt(e_b * alpha)
