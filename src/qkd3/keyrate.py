"""Single-photon key rates and the secure-region frontier.

R = 1 - H2(e_b) - H2(e_p) bits of key per sifted bit, with e_p taken
from the exact or the closed-form approximate phase-error bound.  The
thresholds are the sign change of R in e_b on [0, 1/2], found to 1e-6
by the bracketed Illinois search of `epbound`, about 10 rate evaluations
each.  The search runs on a plain float rate: the bound function is
resolved from the method once per search, and no `KeyRatePoint` is built
per evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .epbound import EP_CAP, _illinois_root, approx_bound, exact_ep, simple_bound
from .errors import DomainError

_ROOT_TOL = 1e-6

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


def _simple_capped(e_b: float, alpha: float) -> float:
    return min(simple_bound(e_b, alpha), EP_CAP)


def _bound_for(method: str):
    """The bound e_p(e_b, alpha) of a method.  The bound functions are read
    from the module globals at each call, so a rebinding of them is seen."""
    if method == "exact":
        return exact_ep
    if method == "approximate":
        return approx_bound
    if method == "simple":
        return _simple_capped
    raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def key_rate_single_photon(
    e_b: float, alpha: float, method: str = "exact"
) -> KeyRatePoint:
    """Key rate with the phase error rate bounded by the chosen method.

    The rate may be negative (no key); callers decide whether to clamp.
    """
    ep = _bound_for(method)(e_b, alpha)
    rate = 1.0 - binary_entropy(e_b) - binary_entropy(ep)
    return KeyRatePoint(e_b=e_b, alpha=alpha, e_p_used=ep, R=rate)


def _threshold(rate) -> float:
    """Sign change of a decreasing rate on [0, 1/2], to _ROOT_TOL: 0 when
    rate(0) <= 0, 1/2 when rate(1/2) >= 0."""
    r_zero = rate(0.0)
    if r_zero <= 0.0:
        return 0.0
    r_half = rate(0.5)
    if r_half >= 0.0:
        return 0.5
    return _illinois_root(rate, 0.0, r_zero, 0.5, r_half, _ROOT_TOL)


def tolerable_eb(alpha: float, method: str = "approximate") -> float:
    """Largest e_b with nonnegative key rate at the given alpha.

    Returns 0 when the rate is already nonpositive at e_b = 0.
    """
    bound = _bound_for(method)
    return _threshold(
        lambda e: 1.0 - binary_entropy(e) - binary_entropy(bound(e, alpha))
    )


def tolerable_eb_equal(method: str = "approximate") -> float:
    """Threshold on the diagonal e_b = alpha.

    With the simple method the bound there is e_p = 5*e_b.
    """
    bound = _bound_for(method)
    return _threshold(
        lambda e: 1.0 - binary_entropy(e) - binary_entropy(bound(e, e))
    )


def bb84_tolerable_eb() -> float:
    """Threshold of 1 - 2*H2(e) = 0, the one-way BB84 comparison point."""
    return _threshold(lambda e: 1.0 - 2.0 * binary_entropy(e))


def secure_region_frontier(
    alpha_steps: int, method: str = "approximate"
) -> list[tuple[float, float]]:
    """(alpha, largest tolerable e_b) on the alpha grid 0.5*i/(alpha_steps-1),
    i = 0 .. alpha_steps-1."""
    if alpha_steps < 2:
        raise ValueError("alpha_steps must be >= 2")
    alphas = [0.5 * i / (alpha_steps - 1) for i in range(alpha_steps)]
    return [(a, tolerable_eb(a, method)) for a in alphas]
