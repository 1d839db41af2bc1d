"""Phase-randomized weak-coherent-source channel and GLLP decoy key rates.

Asymptotic (infinite-decoy) model with threshold detectors: the
single-photon gain Q1 and error rate e1 follow exactly from the channel
constants, so the key rate

    R = -Q_mu * f_ec * H2(E_mu) + Q1 * (1 - H2(e_p))

needs no finite-decoy estimation.  For the three-state protocol e_p is
the exact phase-error bound evaluated at (e1, e1); for BB84, e_p = e1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .epbound import _golden_max, exact_ep
from .errors import DomainError, NoSecureDistanceError
from .keyrate import binary_entropy

PROTOCOLS = ("three-state", "bb84")

_MU_SCAN_POINTS = 400  # scan grid on (0, 1]
_MU_TOL = 1e-6
_DISTANCE_RESOLUTION_KM = 0.01


@dataclass(frozen=True)
class ChannelParams:
    """Channel and detector constants (defaults: GYS fiber experiment)."""

    fiber_loss_db_per_km: float = 0.21
    eta_bob: float = 0.045  # receiver transmittance incl. detector efficiency
    y0: float = 1.7e-6  # background/dark-count yield per pulse
    e_det: float = 0.033  # misalignment error probability
    e0: float = 0.5  # error rate of background events
    f_ec: float = 1.22  # error-correction inefficiency

    def __post_init__(self):
        if self.fiber_loss_db_per_km < 0 or self.y0 < 0:
            raise ValueError("loss and dark-count yield must be nonnegative")
        for name in ("eta_bob", "e_det", "e0"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name}={v} outside [0, 1]")
        if self.f_ec < 1.0:
            raise ValueError("f_ec must be >= 1")


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


def channel_observables(
    params: ChannelParams, L_km: float, mu: float
) -> DecoyObservables:
    """Model observables for mean photon number mu at distance L_km."""
    if mu <= 0.0:
        raise DomainError(f"mean photon number must be positive, got {mu}")
    eta = transmittance(params, L_km)
    detected = 1.0 - math.exp(-eta * mu)
    q_mu = params.y0 + detected
    err = params.e0 * params.y0 + params.e_det * detected
    e_mu = err / q_mu if q_mu > 0.0 else 0.0
    y1 = params.y0 + eta
    q1 = y1 * mu * math.exp(-mu)
    e1 = (
        (params.e0 * params.y0 + params.e_det * eta) / y1 if y1 > 0.0 else 0.0
    )
    return DecoyObservables(Q_mu=q_mu, E_mu=e_mu, Q1=q1, e1=e1)


def phase_error_for(obs: DecoyObservables, protocol: str) -> float:
    """Single-photon phase error rate used in the key-rate formula."""
    if protocol == "bb84":
        return obs.e1
    if protocol == "three-state":
        if obs.e1 > 0.5:
            raise DomainError(f"e1={obs.e1} exceeds the bound domain")
        # Misalignment hits the data and check states identically here,
        # so the bound is evaluated at alpha = e_b = e1.
        return exact_ep(obs.e1, obs.e1)
    raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")


def key_rate_decoy(
    obs: DecoyObservables, params: ChannelParams, protocol: str
) -> float:
    """GLLP key rate per signal pulse on the sifted key (may be negative).

    Returns -inf when the three-state bound domain is exceeded (e1 > 1/2),
    so scans can treat the point as hopeless rather than fail.
    """
    try:
        ep = phase_error_for(obs, protocol)
    except DomainError:
        return -math.inf
    return -obs.Q_mu * params.f_ec * binary_entropy(obs.E_mu) + obs.Q1 * (
        1.0 - binary_entropy(ep)
    )


def _rate_vs_mu(params: ChannelParams, L_km: float, protocol: str):
    """Closure R(mu) at fixed distance; e_p depends on L only."""
    eta = transmittance(params, L_km)
    y1 = params.y0 + eta
    e1 = (params.e0 * params.y0 + params.e_det * eta) / y1 if y1 > 0 else 0.0
    if protocol == "three-state":
        if e1 > 0.5:
            return lambda mu: -math.inf
        ep = exact_ep(e1, e1)
    elif protocol == "bb84":
        ep = e1
    else:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    one_minus_h_ep = 1.0 - binary_entropy(ep)

    def rate(mu: float) -> float:
        detected = 1.0 - math.exp(-eta * mu)
        q_mu = params.y0 + detected
        err = params.e0 * params.y0 + params.e_det * detected
        e_mu = err / q_mu if q_mu > 0.0 else 0.0
        q1 = y1 * mu * math.exp(-mu)
        return -q_mu * params.f_ec * binary_entropy(e_mu) + q1 * one_minus_h_ep

    return rate


def optimal_mu(
    params: ChannelParams, L_km: float, protocol: str
) -> tuple[float, float]:
    """(mu_star, R_star) maximizing the key rate over mu in (0, 1]."""
    rate = _rate_vs_mu(params, L_km, protocol)
    grid = np.linspace(0.0, 1.0, _MU_SCAN_POINTS + 1)[1:]
    vals = np.array([rate(float(m)) for m in grid])
    i = int(np.argmax(vals))
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, len(grid) - 1)])
    return _golden_max(rate, lo, hi, _MU_TOL, (float(grid[i]), float(vals[i])))


def max_secure_distance(params: ChannelParams, protocol: str) -> float:
    """Largest distance (km, 0.01 resolution) with positive optimal rate."""
    if optimal_mu(params, 0.0, protocol)[1] <= 0.0:
        raise NoSecureDistanceError(
            f"{protocol}: key rate nonpositive already at L = 0"
        )
    lo, hi = 0.0, 10.0
    while optimal_mu(params, hi, protocol)[1] > 0.0:
        lo = hi
        hi *= 2.0
        if hi > 20_000.0:
            raise RuntimeError("secure distance exceeds 20000 km; bad params?")
    while hi - lo > _DISTANCE_RESOLUTION_KM:
        mid = 0.5 * (lo + hi)
        if optimal_mu(params, mid, protocol)[1] > 0.0:
            lo = mid
        else:
            hi = mid
    return lo
