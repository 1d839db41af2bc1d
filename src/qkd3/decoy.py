"""Phase-randomized weak-coherent-source channel and GLLP decoy key rates.

Asymptotic (infinite-decoy) model with threshold detectors: the
single-photon gain Q1 and error rate e1 follow exactly from the channel
constants, so the key rate

    R = -Q_mu * f_ec * H2(E_mu) + Q1 * (1 - H2(e_p))

needs no finite-decoy estimation.  For the three-state protocol e_p is
the exact phase-error bound evaluated at (e1, e1); for BB84, e_p = e1.

`optimal_mu` evaluates the model and the rate, each written once with exp
and H2 passed in, with numpy on the 400-point mu grid only to pick the
argmax, then refines by golden section (about 20 steps) in floats from
the float rate there.  np.exp and np.log2 may differ from math in the
last bit, so the refine keeps math and near-ties of the scan are ranked
again in floats: every printed bit is the one a float scan gives.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .epbound import EP_CAP, _illinois_root, exact_ep
from .errors import DomainError, NoSecureDistanceError
from .keyrate import binary_entropy

PROTOCOLS = ("three-state", "bb84")

_MU_GRID = np.linspace(0.0, 1.0, 401)[1:]  # scan grid on (0, 1]
_MU_TOL = 1e-6
# np.exp and np.log2 may differ from math in the last bit; 1 - exp(-eta*mu)
# and H2' amplify that to at most about 5e-13 * f_ec in the rate.
_TIE_TOL = 1e-12
_DISTANCE_RESOLUTION_KM = 0.01
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_MIN_NORMAL = sys.float_info.min


@dataclass(frozen=True)
class ChannelParams:
    """Channel and detector constants (defaults: GYS fiber experiment)."""

    fiber_loss_db_per_km: float = 0.21
    eta_bob: float = 0.045  # receiver transmittance incl. detector efficiency
    y0: float = 1.7e-6  # background/dark-count yield (probability) per pulse
    e_det: float = 0.033  # misalignment error probability
    e0: float = 0.5  # error rate of background events
    f_ec: float = 1.22  # error-correction inefficiency

    def __post_init__(self):
        if not (0.0 <= self.fiber_loss_db_per_km < math.inf):
            raise ValueError("loss must be finite and nonnegative")
        for name in ("eta_bob", "y0", "e_det", "e0"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name}={v} outside [0, 1]")
        if not (1.0 <= self.f_ec < math.inf):
            raise ValueError("f_ec must be finite and >= 1")


GYS = ChannelParams()


@dataclass(frozen=True)
class DecoyObservables:
    """Signal gain/QBER and the single-photon gain/error they imply."""

    Q_mu: float
    E_mu: float
    Q1: float
    e1: float

    def __post_init__(self):
        for name in ("Q_mu", "E_mu", "Q1", "e1"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name}={v} outside [0, 1]")
        if self.Q1 > self.Q_mu + 1e-12:
            raise ValueError("single-photon gain exceeds signal gain")


def load_channel_params(path: str | Path) -> ChannelParams:
    """Read ChannelParams from a flat key=value text file.

    Unknown keys are rejected; missing keys keep their defaults.  Blank
    lines and lines starting with '#' are ignored.
    """
    values = {}
    fields = ChannelParams.__dataclass_fields__
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in fields:
            raise ValueError(f"{path}:{lineno}: unknown parameter {key!r}")
        values[key] = float(val.strip())
    return ChannelParams(**values)


def transmittance(params: ChannelParams, L_km: float) -> float:
    """Overall single-photon transmittance at distance L_km."""
    if L_km < 0:
        raise DomainError(f"negative distance {L_km}")
    return params.eta_bob * 10.0 ** (-params.fiber_loss_db_per_km * L_km / 10.0)


def _model(params: ChannelParams, eta: float, mu, exp):
    """(Q_mu, E_mu, Q1, e1) at transmittance eta for a float mu and math.exp
    or an array of mu and np.exp; a ratio 0/0 (no clicks) is read as 0/1."""
    detected = 1.0 - exp(-eta * mu)
    q_mu = params.y0 + detected
    y1 = params.y0 + eta
    e_mu = (params.e0 * params.y0 + params.e_det * detected) / (q_mu + (q_mu == 0.0))
    e1 = (params.e0 * params.y0 + params.e_det * eta) / (y1 + (y1 == 0.0))
    if e1 < _MIN_NORMAL:
        # a subnormal e1 has no finite odds ratio for the exact bound; at 0
        # the rate has the same bits, as 1 - H2(e_p) rounds to 1 either way
        e1 = 0.0
    return q_mu, e_mu, y1 * mu * exp(-mu), e1


def _rate(params: ChannelParams, q_mu, e_mu, q1, ep: float, h2):
    """R from the model's terms; h2 is binary_entropy or _h2_array."""
    return -q_mu * params.f_ec * h2(e_mu) + q1 * (1.0 - binary_entropy(ep))


def _h2_array(x: np.ndarray) -> np.ndarray:
    """binary_entropy of an array in [0, 1]."""
    inside = (x > 0.0) & (x < 1.0)
    x = np.where(inside, x, 0.5)  # log2 only of interior points
    return np.where(inside, -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x), 0.0)


def channel_observables(
    params: ChannelParams, L_km: float, mu: float
) -> DecoyObservables:
    """Model observables for mean photon number mu at distance L_km."""
    if mu <= 0.0:
        raise DomainError(f"mean photon number must be positive, got {mu}")
    return DecoyObservables(*_model(params, transmittance(params, L_km), mu, math.exp))


def phase_error_for(e1: float, protocol: str) -> float | None:
    """Phase error rate for the key-rate formula at single-photon error
    rate e1; None past the three-state bound's domain (e1 > 1/2): no key."""
    if protocol == "bb84":
        return e1
    if protocol == "three-state":
        if e1 > 0.5:
            return None
        # Misalignment hits the data and check states identically here,
        # so the bound is evaluated at alpha = e_b = e1.
        return exact_ep(e1, e1)
    raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")


def key_rate_decoy(
    obs: DecoyObservables, params: ChannelParams, protocol: str
) -> float:
    """GLLP key rate per signal pulse on the sifted key (may be negative);
    -inf past the three-state bound's domain (e1 > 1/2): no key."""
    ep = phase_error_for(obs.e1, protocol)
    if ep is None:
        return -math.inf
    return _rate(params, obs.Q_mu, obs.E_mu, obs.Q1, ep, binary_entropy)


def _golden_max(f, lo: float, hi: float, tol: float, best=None) -> tuple[float, float]:
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


def _optimize(
    params: ChannelParams, L_km: float, protocol: str
) -> tuple[float, float, float]:
    """(mu_star, R_star, e_p) at L_km; past the three-state bound's domain
    (e1 > 1/2) R_star is -inf at the first grid point and e_p reads 1/2."""
    eta = transmittance(params, L_km)
    with np.errstate(over="ignore", invalid="ignore"):  # silent in floats too
        q_mu, e_mu, q1, e1 = _model(params, eta, _MU_GRID, np.exp)
        ep = phase_error_for(e1, protocol)
        if ep is None:
            return float(_MU_GRID[0]), -math.inf, EP_CAP
        scan = _rate(params, q_mu, e_mu, q1, ep, _h2_array)
        k = int(np.argmax(scan))
        near = np.flatnonzero(scan >= scan[k] - _TIE_TOL * params.f_ec).tolist()

    def rate(mu: float) -> float:
        q_mu, e_mu, q1, _ = _model(params, eta, mu, math.exp)
        return _rate(params, q_mu, e_mu, q1, ep, binary_entropy)

    # the first best grid point by the float rate, as np.argmax of a float scan
    near = near or [k]  # empty when the top is nan
    rates = [rate(float(_MU_GRID[j])) for j in near]
    best = int(np.argmax(rates))
    i = near[best]
    lo, hi = _MU_GRID[np.clip([i - 1, i + 1], 0, _MU_GRID.size - 1)].tolist()
    return (*_golden_max(rate, lo, hi, _MU_TOL, (float(_MU_GRID[i]), rates[best])), ep)


def optimal_mu(
    params: ChannelParams, L_km: float, protocol: str
) -> tuple[float, float]:
    """(mu_star, R_star) maximizing the key rate over mu in (0, 1]."""
    return _optimize(params, L_km, protocol)[:2]


def max_secure_distance(params: ChannelParams, protocol: str) -> float:
    """Largest distance (km) with positive optimal rate, to 0.005 km.

    Doubles a bracket from 10 km, then closes in on the sign change of
    the optimal rate by the bracketed Illinois search of `epbound`, from
    the rates at the bracket's ends, to a 0.01 km bracket and returns its
    midpoint (GYS: 88.5009 km three-state, 142.2109 km BB84).  A rate of
    exactly 0 (no clicks) counts as no key.  NoSecureDistanceError when
    the rate is nonpositive at 0 km; DomainError when it stays positive
    past 20 000 km (e.g. a lossless fiber).
    """

    def rate(L_km: float) -> float:
        r = optimal_mu(params, L_km, protocol)[1]
        return r if r != 0.0 else -math.inf  # never a root of the search

    r_lo = rate(0.0)
    if r_lo <= 0.0:
        raise NoSecureDistanceError(
            f"{protocol}: key rate nonpositive already at L = 0"
        )
    lo, hi = 0.0, 10.0
    while (r_hi := rate(hi)) > 0.0:
        lo, hi, r_lo = hi, 2.0 * hi, r_hi
        if hi > 20_000.0:
            raise DomainError(
                f"{protocol}: key rate still positive past 20000 km"
            )
    return _illinois_root(rate, lo, r_lo, hi, r_hi, _DISTANCE_RESOLUTION_KM)
