"""Collective attacks as Pauli-decomposed Kraus coefficients.

One attack element is E = a_I*I + a_X*X + a_Y*Y + a_Z*Z with complex
amplitudes.  The error-rate triple (e_b, alpha, e_p) induced on the
three-state protocol depends only on the summed squared magnitudes
|a_beta|^2 and the two interference terms |a_I + a_X|^2 and
|i*a_Y - a_Z|^2.  All six are additive over an ensemble, so any two
elements merge into one element with a_X, a_Y real and nonnegative and
the phases in a_I, a_Z, which keeps the rates to rounding
(`combine_pair`), and any ensemble folds down to one (`reduce_ensemble`).

Everything here runs on Python floats and complex numbers; numpy is
imported inside `random_attack` alone, for its draws, so that importing
the package does not load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateAttackError, SamplingError

_MAX_REJECTION_DRAWS = 10**6
_RESCALE_BELOW = 2.0**-400  # total weight under which the rates rescale


@dataclass(frozen=True)
class KrausCoefficients:
    """Pauli amplitudes (a_I, a_X, a_Y, a_Z) of a single attack element."""

    a_I: complex
    a_X: complex
    a_Y: complex
    a_Z: complex

    def __post_init__(self):
        amps = (self.a_I, self.a_X, self.a_Y, self.a_Z)
        weight = 0.0
        for a in amps:
            weight += a.real * a.real + a.imag * a.imag
        # every squared magnitude and interference term in the rates is at
        # most twice the total weight; 4x keeps them finite past rounding
        if not 4.0 * weight < math.inf:
            raise ValueError(
                "Kraus coefficients must be finite, with total weight "
                "below a quarter of the largest float"
            )
        if not any(amps):
            raise ValueError("at least one Kraus coefficient must be nonzero")

    @property
    def total_weight(self) -> float:
        """Sum of all four squared magnitudes."""
        return (
            abs(self.a_I) ** 2
            + abs(self.a_X) ** 2
            + abs(self.a_Y) ** 2
            + abs(self.a_Z) ** 2
        )

    def scaled(self, factor: complex) -> "KrausCoefficients":
        return KrausCoefficients(
            self.a_I * factor, self.a_X * factor, self.a_Y * factor, self.a_Z * factor
        )

    def serialize(self) -> str:
        """Eight comma-separated decimals: Re/Im pairs in I, X, Y, Z order."""
        parts = []
        for a in (self.a_I, self.a_X, self.a_Y, self.a_Z):
            a = complex(a)
            parts.append(repr(float(a.real)))
            parts.append(repr(float(a.imag)))
        return ",".join(parts)

    @classmethod
    def deserialize(cls, text: str) -> "KrausCoefficients":
        fields = text.split(",")
        if len(fields) != 8:
            raise ValueError(
                f"expected 8 comma-separated scalars, got {len(fields)}"
            )
        vals = [float(f) for f in fields]
        return cls(
            complex(vals[0], vals[1]),
            complex(vals[2], vals[3]),
            complex(vals[4], vals[5]),
            complex(vals[6], vals[7]),
        )


# An attack ensemble is any nonempty sequence of KrausCoefficients; no
# wrapper type is needed since all operations below validate their input.
AttackEnsemble = Sequence[KrausCoefficients]


@dataclass(frozen=True)
class ErrorRates:
    """Bit, check and phase error rates induced by an attack."""

    e_b: float
    alpha: float
    e_p: float

    def __post_init__(self):
        for name in ("e_b", "alpha", "e_p"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name}={v} outside [0, 1]")


def _weights(ensemble: AttackEnsemble) -> tuple[float, float, float, float, float]:
    """Ensemble sums of the total weight, |a_X|^2 + |a_Y|^2, |a_Z|^2 +
    |a_Y|^2, |i a_Y - a_Z|^2 and |a_I + a_X|^2."""
    total = bit = phase = check_err = check_ok = 0.0
    for k in ensemble:
        total += k.total_weight
        bit += abs(k.a_X) ** 2 + abs(k.a_Y) ** 2
        phase += abs(k.a_Z) ** 2 + abs(k.a_Y) ** 2
        check_err += abs(1j * k.a_Y - k.a_Z) ** 2
        check_ok += abs(k.a_I + k.a_X) ** 2
    return total, bit, phase, check_err, check_ok


def rates_from_ensemble(ensemble: AttackEnsemble) -> ErrorRates:
    """Error rates induced by an ensemble of attack elements.

    e_b  = sum(|a_X|^2 + |a_Y|^2) / sum over all four magnitudes,
    e_p  = sum(|a_Z|^2 + |a_Y|^2) / same denominator,
    alpha = sum |i a_Y - a_Z|^2 / sum(|i a_Y - a_Z|^2 + |a_I + a_X|^2).

    The rates do not depend on the scale of the amplitudes: when the
    total weight is below 2**-400 (the largest amplitude below about
    2**-200), the ensemble is first scaled by the exact power of two that
    brings its largest amplitude into [1/2, 1), so that the check-state
    terms, which may be much smaller than the total, do not underflow.
    Raises DegenerateAttackError when the check-state denominator vanishes.
    """
    if len(ensemble) == 0:
        raise ValueError("ensemble must be nonempty")
    total, bit, phase, check_err, check_ok = _weights(ensemble)
    if total < _RESCALE_BELOW:
        big = max(abs(a) for k in ensemble for a in (k.a_I, k.a_X, k.a_Y, k.a_Z))
        shift = -math.frexp(big)[1]  # up to 1073: two factors, as 2**1024 overflows
        up, rest = 2.0 ** (shift // 2), 2.0 ** (shift - shift // 2)
        total, bit, phase, check_err, check_ok = _weights(
            [k.scaled(up).scaled(rest) for k in ensemble]
        )
    if check_err + check_ok <= 0.0:
        raise DegenerateAttackError("check-state probabilities sum to zero")
    return ErrorRates(
        e_b=bit / total,
        alpha=check_err / (check_err + check_ok),
        e_p=phase / total,
    )


def phase_cosines(k: KrausCoefficients) -> tuple[float, float]:
    """(c_IX, c_YZ) with |a_I+a_X|^2 = |a_I|^2+|a_X|^2+2*c_IX*|a_I||a_X|
    and |i a_Y-a_Z|^2 = |a_Y|^2+|a_Z|^2-2*c_YZ*|a_Y||a_Z|, in [-1, 1];
    a cosine is 0 where either of its magnitudes is."""
    cosines = []
    for u, v in ((k.a_I, k.a_X), (1j * k.a_Y, k.a_Z)):
        m = abs(u) * abs(v)
        c = (u * v.conjugate()).real / m if m else 0.0
        cosines.append(min(1.0, max(-1.0, c)))
    return cosines[0], cosines[1]


def _element(
    m_i: float, m_x: float, m_y: float, m_z: float, ok: float, err: float
) -> KrausCoefficients:
    """The canonical attack element with magnitudes m_* and interference
    terms ok = |a_I + a_X|^2, err = |i a_Y - a_Z|^2: a_X = m_x, a_Y = m_y,
    a_I = m_i e^{i chi} and a_Z = i m_z e^{-i phi}, from the half angles

        t = sin^2(chi/2) = ((m_i + m_x)^2 - ok) / (4 m_i m_x),
        u = sin^2(phi/2) = (err - (m_y - m_z)^2) / (4 m_y m_z)

    as a_I = m_i (1 - 2t + 2i sqrt(t(1 - t))) and a_Z = m_z (2 sqrt(u(1 -
    u)) + i (1 - 2u)).  t and u are clipped to [0, 1] (a target outside
    [(m - m')^2, (m + m')^2] gives the nearest end), and are 1/2, a
    quarter turn, where their magnitude product is 0."""
    p, q = 4.0 * m_i * m_x, 4.0 * m_y * m_z
    t = min(1.0, max(0.0, ((m_i + m_x) ** 2 - ok) / p)) if p else 0.5
    u = min(1.0, max(0.0, (err - (m_y - m_z) ** 2) / q)) if q else 0.5
    return KrausCoefficients(
        m_i * complex(1.0 - 2.0 * t, 2.0 * math.sqrt(t * (1.0 - t))),
        m_x,
        m_y,
        m_z * complex(2.0 * math.sqrt(u * (1.0 - u)), 1.0 - 2.0 * u),
    )


def combine_pair(
    s1: KrausCoefficients, s2: KrausCoefficients
) -> KrausCoefficients:
    """Merge two attack elements into one with their error rates, to
    rounding: the `_element` with the root-sum-squares of the inputs'
    magnitudes and the sums of their |a_I + a_X|^2 and |i a_Y - a_Z|^2.
    """
    return _element(
        math.hypot(abs(s1.a_I), abs(s2.a_I)),
        math.hypot(abs(s1.a_X), abs(s2.a_X)),
        math.hypot(abs(s1.a_Y), abs(s2.a_Y)),
        math.hypot(abs(s1.a_Z), abs(s2.a_Z)),
        abs(s1.a_I + s1.a_X) ** 2 + abs(s2.a_I + s2.a_X) ** 2,
        abs(1j * s1.a_Y - s1.a_Z) ** 2 + abs(1j * s2.a_Y - s2.a_Z) ** 2,
    )


def reduce_ensemble(ensemble: AttackEnsemble) -> KrausCoefficients:
    """Left-fold of combine_pair; the result induces the ensemble's rates."""
    if len(ensemble) == 0:
        raise ValueError("ensemble must be nonempty")
    if len(ensemble) == 1:
        return ensemble[0]
    return functools.reduce(combine_pair, ensemble)


def random_attack(seed: int, region: bool = False) -> KrausCoefficients:
    """Deterministic random attack element with unit total weight.

    Components are i.i.d. standard normals normalized to sum(|a|^2) = 1
    (uniform on the coefficient sphere).  With ``region=True`` draws are
    rejected until the induced rates satisfy e_b <= 1/2 and alpha <= 1/2.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    for _ in range(_MAX_REJECTION_DRAWS):
        v = rng.standard_normal(8)
        norm = math.sqrt(float(np.dot(v, v)))
        if norm < 1e-12:
            continue
        ir, ii, xr, xi, yr, yi, zr, zi = (v / norm).tolist()
        if region:
            # e_b <= 1/2 and alpha <= 1/2 as weight comparisons, without
            # building the element; a vanishing check-state total is rejected
            check_ok = (ir + xr) ** 2 + (ii + xi) ** 2  # |a_I + a_X|^2
            check_err = (yi + zr) ** 2 + (yr - zi) ** 2  # |i a_Y - a_Z|^2
            bit = xr * xr + xi * xi + yr * yr + yi * yi
            if not (
                bit <= ir * ir + ii * ii + zr * zr + zi * zi
                and check_err <= check_ok
                and check_ok > 0.0
            ):
                continue
        return KrausCoefficients(
            complex(ir, ii), complex(xr, xi), complex(yr, yi), complex(zr, zi)
        )
    raise SamplingError(
        f"no admissible attack within {_MAX_REJECTION_DRAWS} draws"
    )
