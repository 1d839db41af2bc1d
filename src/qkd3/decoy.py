"""Phase-randomized weak-coherent-source channel and GLLP decoy key rates.

Asymptotic (infinite-decoy) model with threshold detectors: the
single-photon gain Q1 and error rate e1 follow exactly from the channel
constants, so the key rate

    R = -Q_mu * f_ec * H2(E_mu) + Q1 * (1 - H2(e_p))

needs no finite-decoy estimation.  For the three-state protocol e_p is
the exact phase-error bound evaluated at (e1, e1); for BB84, e_p = e1.

e1, and so e_p, does not depend on mu.  With E_mu' = eta e^{-eta mu}
(e_det - E_mu) / Q_mu and Y1 = y0 + eta the rate has the derivative

    R'(mu) = Y1 (1 - mu) e^{-mu} (1 - H2(e_p))
             - f_ec eta e^{-eta mu} [H2(E_mu) + H2'(E_mu) (e_det - E_mu)],

where the bracket is the cross entropy -e_det log2(E_mu) - (1 - e_det)
log2(1 - E_mu).

`optimal_mu` takes mu* on [0.0025, 1] from R'/Y1, which has the sign of
R' and is finite for every eta, 0 included: mu = 1 when R'(1) >= 0,
else the sign change by the Illinois search of `epbound`, to 1e-6
relative, in a bracket stepped down from 1/2 by factors of 4.  mu =
0.0025 wins a tie with it (past the cutoff, e1 > 1/2, or where the rate
is flat in mu).  1 - e^{-eta mu} is -expm1(-eta mu), which keeps the
digits of a tiny eta mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .epbound import EP_CAP, _illinois_root, exact_ep
from .errors import DomainError, NoSecureDistanceError
from .keyrate import binary_entropy

PROTOCOLS = ("three-state", "bb84")

_MU_MIN = 0.0025  # lower end of the mu domain
_MU_RTOL = 1e-6  # root tolerance relative to the bracket's lower end
_DISTANCE_RESOLUTION_KM = 0.01


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

    Unknown or repeated keys and non-numbers are rejected with their line;
    missing keys keep their defaults.  Blank and '#' lines are ignored.
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
        if key in values:
            raise ValueError(f"{path}:{lineno}: parameter {key!r} given twice")
        try:
            values[key] = float(val)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: {key} = {val.strip()!r} is not a number"
            ) from None
    return ChannelParams(**values)


def transmittance(params: ChannelParams, L_km: float) -> float:
    """Overall single-photon transmittance at distance L_km."""
    if L_km < 0:
        raise DomainError(f"negative distance {L_km}")
    return params.eta_bob * 10.0 ** (-params.fiber_loss_db_per_km * L_km / 10.0)


def _signal(params: ChannelParams, eta: float, mu: float) -> tuple[float, float]:
    """(Q_mu, E_mu) at transmittance eta; 0/0 (no clicks) reads E_mu = 0."""
    detected = -math.expm1(-eta * mu)
    q_mu = params.y0 + detected
    errors = params.e0 * params.y0 + params.e_det * detected
    return q_mu, errors / q_mu if q_mu else 0.0


def _model(
    params: ChannelParams, eta: float, mu: float
) -> tuple[float, float, float, float]:
    """(Q_mu, E_mu, Q1, e1) at transmittance eta; 0/0 (no clicks) reads 0."""
    y1 = params.y0 + eta
    e1 = (params.e0 * params.y0 + params.e_det * eta) / y1 if y1 else 0.0
    return (*_signal(params, eta, mu), y1 * mu * math.exp(-mu), e1)


def _rate(
    params: ChannelParams, q_mu: float, e_mu: float, q1: float, ep: float
) -> float:
    """R from the model's terms."""
    leak = q_mu * params.f_ec * binary_entropy(e_mu)
    return -leak + q1 * (1.0 - binary_entropy(ep))


def channel_observables(
    params: ChannelParams, L_km: float, mu: float
) -> DecoyObservables:
    """Model observables for mean photon number mu at distance L_km."""
    if mu <= 0.0:
        raise DomainError(f"mean photon number must be positive, got {mu}")
    return DecoyObservables(*_model(params, transmittance(params, L_km), mu))


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
    return _rate(params, obs.Q_mu, obs.E_mu, obs.Q1, ep)


def _optimize(
    params: ChannelParams, L_km: float, protocol: str
) -> tuple[float, float, float, tuple[float, float, float, float]]:
    """(mu_star, R_star, e_p, model terms (Q_mu, E_mu, Q1, e1) at mu_star)
    at L_km; past the three-state bound's domain (e1 > 1/2) R_star is
    -inf at mu = 0.0025 and e_p reads 1/2."""
    eta = transmittance(params, L_km)
    lowest = _model(params, eta, _MU_MIN)
    ep = phase_error_for(lowest[3], protocol)
    if ep is None:
        return _MU_MIN, -math.inf, EP_CAP, lowest
    gain = 1.0 - binary_entropy(ep)
    y1 = params.y0 + eta
    share = eta / y1 if y1 else 0.0  # eta / Y1, 0 with no transmission

    def slope(mu: float) -> float:
        """R'(mu) / Y1: the sign of R', finite for every eta, also 0."""
        e_mu = _signal(params, eta, mu)[1]
        cross = 0.0  # as H2 in the rate, where E_mu rounds to 0 or 1
        if 0.0 < e_mu < 1.0:
            e_det = params.e_det
            cross = -e_det * math.log2(e_mu) - (1.0 - e_det) * math.log2(1.0 - e_mu)
        leak = params.f_ec * share * math.exp(-eta * mu) * cross
        return (1.0 - mu) * math.exp(-mu) * gain - leak

    mu = 1.0
    if (f_hi := slope(mu)) < 0.0:
        lo = 0.5
        while (f_lo := slope(lo)) <= 0.0 and lo > _MU_MIN:
            mu, f_hi = lo, f_lo
            lo = max(0.25 * lo, _MU_MIN)
        mu = (
            _illinois_root(slope, lo, f_lo, mu, f_hi, _MU_RTOL * lo)
            if f_lo > 0.0
            else _MU_MIN
        )
    terms = _model(params, eta, mu)
    rate = _rate(params, *terms[:3], ep)
    low_rate = _rate(params, *lowest[:3], ep)
    if not rate > low_rate:
        return _MU_MIN, low_rate, ep, lowest
    return mu, rate, ep, terms


def optimal_mu(
    params: ChannelParams, L_km: float, protocol: str
) -> tuple[float, float]:
    """(mu_star, R_star) maximizing the key rate over mu in [0.0025, 1]."""
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
