"""Single-photon key rates and the secure-region frontier.

R = 1 - H2(e_b) - H2(e_p) bits of key per sifted bit, with e_p taken
from the exact or the closed-form approximate phase-error bound.  The
frontier bisects all its alphas in lockstep, with one batched exact
bound (`exact_ep_many`) per bisection step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .epbound import EP_CAP, approx_bound, exact_ep, exact_ep_many, simple_bound
from .errors import DomainError

_ROOT_TOL = 1e-6
_MAX_BISECT = 200

METHODS = ("exact", "approximate", "simple")


@dataclass(frozen=True)
class KeyRatePoint:
    e_b: float
    alpha: float
    e_p_used: float
    R: float


def binary_entropy(x: float) -> float:
    """H2(x) = -x*log2(x) - (1-x)*log2(1-x), with H2(0) = H2(1) = 0."""
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"binary entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _bound(e_b: float, alpha: float, method: str) -> float:
    if method == "exact":
        return exact_ep(e_b, alpha)
    if method == "approximate":
        return approx_bound(e_b, alpha)
    if method == "simple":
        return min(simple_bound(e_b, alpha), EP_CAP)
    raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def key_rate_single_photon(
    e_b: float, alpha: float, method: str = "exact"
) -> KeyRatePoint:
    """Key rate with the phase error rate bounded by the chosen method.

    The rate may be negative (no key); callers decide whether to clamp.
    """
    ep = _bound(e_b, alpha, method)
    rate = 1.0 - binary_entropy(e_b) - binary_entropy(ep)
    return KeyRatePoint(e_b=e_b, alpha=alpha, e_p_used=ep, R=rate)


def _rates(e_bs: list[float], alphas: list[float], method: str) -> list[float]:
    """`key_rate_single_photon(e_b, alpha, method).R` at each point, the
    exact bounds in one `exact_ep_many` call."""
    if method == "exact":
        eps = exact_ep_many(e_bs, alphas)
    else:
        eps = [_bound(e, a, method) for e, a in zip(e_bs, alphas)]
    return [
        1.0 - binary_entropy(e) - binary_entropy(ep) for e, ep in zip(e_bs, eps)
    ]


def _bisect_root(f, lo: list[float], hi: list[float]) -> list[float]:
    """Root of f on [lo[k], hi[k]] with f(lo) > 0 > f(hi), for each lane k.

    The lanes are bisected in lockstep: f(lanes, xs) returns the values at
    xs[n] of lanes[n], the lanes not yet within _ROOT_TOL.  Each lane takes
    the steps that bisecting it alone would take.
    """
    lo, hi = list(lo), list(hi)
    for _ in range(_MAX_BISECT):
        lanes = [k for k in range(len(lo)) if hi[k] - lo[k] > _ROOT_TOL]
        if not lanes:
            break
        mids = [0.5 * (lo[k] + hi[k]) for k in lanes]
        for k, mid, value in zip(lanes, mids, f(lanes, mids)):
            if value > 0.0:
                lo[k] = mid
            else:
                hi[k] = mid
    return [0.5 * (a + b) for a, b in zip(lo, hi)]


def _tolerable_ebs(alphas: list[float], method: str) -> list[float]:
    """`tolerable_eb` at each alpha, all lanes bisected in lockstep."""
    n = len(alphas)
    lo = [0.0] * n
    # A lane whose rate is nonpositive at e_b = 0 is settled at 0 (lo = hi),
    # one positive at e_b = 1/2 at 1/2; the rest bisect [0, 1/2].
    hi = [0.5 if r > 0.0 else 0.0 for r in _rates(lo, alphas, method)]
    up = [k for k in range(n) if hi[k] > 0.0]
    for k, r in zip(up, _rates([0.5] * len(up), [alphas[k] for k in up], method)):
        if r > 0.0:
            lo[k] = 0.5
    return _bisect_root(
        lambda lanes, xs: _rates(xs, [alphas[k] for k in lanes], method), lo, hi
    )


def tolerable_eb(alpha: float, method: str = "approximate") -> float:
    """Largest e_b with nonnegative key rate at the given alpha.

    Returns 0 when the rate is already nonpositive at e_b = 0.
    """
    return _tolerable_ebs([alpha], method)[0]


def tolerable_eb_equal(method: str = "approximate") -> float:
    """Threshold on the diagonal e_b = alpha.

    With the approximate method the bound reduces to e_p = 5*e_b, the
    diagonal value of the small-rate bound.
    """
    if method == "approximate":
        rate = lambda e: 1.0 - binary_entropy(e) - binary_entropy(
            min(5.0 * e, 0.5)
        )
    elif method == "exact":
        rate = lambda e: key_rate_single_photon(e, e, "exact").R
    else:
        raise ValueError(
            f"method must be 'exact' or 'approximate', got {method!r}"
        )
    if rate(0.5) > 0.0:
        return 0.5
    return _bisect_root(lambda _, xs: map(rate, xs), [0.0], [0.5])[0]


def bb84_tolerable_eb() -> float:
    """Threshold of 1 - 2*H2(e) = 0, the one-way BB84 comparison point."""
    rate = lambda e: 1.0 - 2.0 * binary_entropy(e)
    return _bisect_root(lambda _, xs: map(rate, xs), [0.0], [0.5])[0]


def secure_region_frontier(
    alpha_steps: int, method: str = "approximate"
) -> list[tuple[float, float]]:
    """(alpha, largest tolerable e_b) on the alpha grid 0.5*i/(alpha_steps-1),
    i = 0 .. alpha_steps-1; the alphas are bisected together."""
    if alpha_steps < 2:
        raise ValueError("alpha_steps must be >= 2")
    alphas = [0.5 * i / (alpha_steps - 1) for i in range(alpha_steps)]
    return list(zip(alphas, _tolerable_ebs(alphas, method)))
