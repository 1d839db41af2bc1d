"""Security analysis of the three-state QKD protocol.

Phase-error-rate bounds from observed error rates, single-photon and
decoy-state key rates, and a Monte Carlo protocol simulator for checking
the bounds against concrete attacks.
"""

from .attack import (
    AttackEnsemble,
    ErrorRates,
    KrausCoefficients,
    combine_pair,
    phase_cosines,
    random_attack,
    rates_from_ensemble,
    reduce_ensemble,
)
from .decoy import (
    GYS,
    ChannelParams,
    DecoyObservables,
    channel_observables,
    key_rate_decoy,
    load_channel_params,
    max_secure_distance,
    optimal_mu,
)
from .epbound import (
    BoundResult,
    approx_bound,
    exact_bound,
    exact_ep,
    simple_bound,
)
from .errors import (
    DegenerateAttackError,
    DomainError,
    InsufficientSiftError,
    NoSecureDistanceError,
    SamplingError,
)
from .keyrate import (
    KeyRatePoint,
    bb84_tolerable_eb,
    binary_entropy,
    key_rate_single_photon,
    secure_region_frontier,
    tolerable_eb,
    tolerable_eb_equal,
)
from .simulate import (
    AzumaReport,
    ProtocolStats,
    SimConfig,
    azuma_check,
    run_protocol,
)

__version__ = "0.15.0"
