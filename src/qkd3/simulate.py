"""Monte Carlo simulator of the three-state prepare-and-measure protocol.

Each of the 8N(1+delta) rounds has Alice pick a basis (Z sends a uniform
key bit, X sends the check state) and Bob a measurement basis, both
uniformly; mismatched rounds are sifted out.  Outcomes follow the
analytic per-round distribution of the configured attack: a Z round
flips with probability e_b, an X-check round errs with probability
alpha.  Phase errors are never sampled; they stay analytic, which is
exactly what the bound is for.

Only the announced counts are drawn, never the rounds: three draws
from one counter-based Philox stream keyed by SeedSequence(seed).
Substream k is the counter block that starts at (0, 0, 0, k), so the
substreams lie 2^192 blocks apart; before each draw the run's one bit
generator is moved to the start of its substream, buffer emptied, by a
single state assignment.  Substream 0 draws the (Z, X, discarded) sift
split as Multinomial(m; 1/4, 1/4, 1/2), substream 1 the Z check errors
as Binomial(N, e_b), substream 2 the X check errors as
Binomial(2N, alpha).  Each count thus has a fixed stream position: at a
given (seed, N, delta) the split never depends on the attack, the Z
count depends on it only through e_b and the X count only through
alpha.  This is exact: errors are iid given the basis and independent
of which sifted rounds the uniform check subsets pick, so each subset's
error count is binomial and independent of the split.  A run takes the
same time and memory at every N.  numpy is imported inside
`_substreams`, on the first run, so that importing the package does not
load it.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .attack import KrausCoefficients, rates_from_ensemble
from .errors import InsufficientSiftError

if TYPE_CHECKING:
    import numpy as np

_SIFT, _Z_CHECK, _X_CHECK = 0, 1, 2  # substream (top counter word) of each draw
_SIGMA_FACTOR = 5.0  # deviation flag threshold, in binomial sigmas
_ROUNDS_LIMIT = 2.0**63  # 8N(1+delta) must stay below: multinomial takes int64 counts


@dataclass(frozen=True)
class SimConfig:
    N: int  # data bits (and Z check bits; X check bits are 2N)
    attack: KrausCoefficients
    seed: int
    delta: float = 0.1  # oversampling fraction

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.delta <= 0.0:
            raise ValueError("delta must be > 0")
        if not 8 * self.N * (1.0 + self.delta) < _ROUNDS_LIMIT:
            raise ValueError("8N(1+delta) rounds must be below 2^63")


@dataclass(frozen=True)
class ProtocolStats:
    transmitted: int
    sifted: int
    z_check_errors: int
    z_check_total: int
    x_check_errors: int
    x_check_total: int
    observed_eb: float
    observed_alpha: float

    def to_json(self) -> str:
        """Flat JSON object; integer counts, decimal rates."""
        return json.dumps(asdict(self), sort_keys=True)


def _substreams(seed: int) -> Callable[[int], np.random.Generator]:
    """stream(k): the run's one Generator, moved to the start of
    substream k, the Philox counter block (0, 0, 0, k)."""
    import numpy as np

    bit_gen = np.random.Philox(np.random.SeedSequence(seed))
    gen = np.random.Generator(bit_gen)
    state = bit_gen.state  # counter (0, 0, 0, 0), buffer empty
    counter = state["state"]["counter"]

    def stream(k: int) -> np.random.Generator:
        counter[3] = k
        bit_gen.state = state
        return gen

    return stream


def run_protocol(config: SimConfig) -> ProtocolStats:
    """Simulate one protocol run and tally the announced error counts.

    N Z-sifted rounds become check bits, N more become data bits, and 2N
    X-sifted rounds become check bits, all chosen uniformly; surplus
    sifted rounds are unused.  Raises InsufficientSiftError when fewer
    than 2N rounds sift in either basis.
    """
    rates = rates_from_ensemble([config.attack])
    n = config.N
    m = round(8 * n * (1.0 + config.delta))
    stream = _substreams(config.seed)

    n_z, n_x, _ = (int(c) for c in stream(_SIFT).multinomial(m, [0.25, 0.25, 0.5]))
    if n_z < 2 * n or n_x < 2 * n:
        raise InsufficientSiftError(
            f"need 2N={2 * n} sifted rounds per basis, got "
            f"{n_z} (Z) and {n_x} (X)"
        )
    # data-bit errors are never announced, so they are never drawn
    z_check_errors = int(stream(_Z_CHECK).binomial(n, rates.e_b))
    x_check_errors = int(stream(_X_CHECK).binomial(2 * n, rates.alpha))
    return ProtocolStats(
        transmitted=m,
        sifted=n_z + n_x,
        z_check_errors=z_check_errors,
        z_check_total=n,
        x_check_errors=x_check_errors,
        x_check_total=2 * n,
        observed_eb=z_check_errors / n,
        observed_alpha=x_check_errors / (2 * n),
    )


@dataclass(frozen=True)
class AzumaReport:
    """Observed check-state frequencies vs the analytic probabilities.

    A 5-sigma binomial check, not Azuma's inequality despite the name.
    The no-error fields mirror the error fields: dev_no_error ==
    dev_error, threshold_no_error == threshold_error and
    within_no_error == within_error hold by construction, since
    |(1 - f) - (1 - p)| = |f - p|.
    """

    p_error: float
    p_no_error: float
    dev_error: float
    dev_no_error: float
    threshold_error: float
    threshold_no_error: float
    within_error: bool
    within_no_error: bool
    alpha_gap: float


def azuma_check(stats: ProtocolStats, attack: KrausCoefficients) -> AzumaReport:
    """Compare X-check counts against the attack's analytic probabilities.

    within_error is set when the observed X-check error frequency f has
    |f - alpha| at most 5 binomial sigmas, sigma = sqrt(alpha (1 - alpha)
    / 2N).
    """
    alpha = rates_from_ensemble([attack]).alpha
    n_x = stats.x_check_total
    dev_err = abs(stats.x_check_errors / n_x - alpha)
    sigma = math.sqrt(alpha * (1.0 - alpha) / n_x)
    thr = _SIGMA_FACTOR * sigma
    return AzumaReport(
        p_error=alpha,
        p_no_error=1.0 - alpha,
        dev_error=dev_err,
        dev_no_error=dev_err,
        threshold_error=thr,
        threshold_no_error=thr,
        within_error=dev_err <= thr,
        within_no_error=dev_err <= thr,
        alpha_gap=abs(stats.observed_alpha - alpha),
    )
