"""retroflow: backward extension of diagonalizable semigroups.

States of a diagonal flow are kept spectrally, in sign/log-magnitude form, so
backward evolution never overflows.  The library classifies how far backward
each trajectory extends, runs the flow both ways within that horizon, builds
the extended space on which the flow becomes a group, constructs certified
reversible approximations, inverts forced (affine) flows, and realizes
coefficient functionals as extended classes.
"""

from .errors import (
    DomainError,
    GeneratorDomainError,
    HorizonExceededError,
    NotConvergedError,
    NotFullyReversibleError,
    NotWithinBackwardReachError,
    OracleFailedError,
    RetroflowError,
    UnrepresentableFunctionalError,
)
from .logdomain import LogAmplitude, log_add, log_sum
from .spectral import (
    ExpTail,
    PowerTail,
    SpectralState,
    Spectrum,
    ZERO_TAIL,
    ZeroTail,
    add,
    embed,
    evolve,
    inner_product,
    log_inner_product,
    log_norm,
    log_tail_norm,
    make_heat_spectrum,
    negate,
    norm,
    relative_gap,
    scale,
    subtract,
    tail_norm,
)
from .reversibility import (
    Classification,
    Horizon,
    ReversibilityClass,
    amplification_log,
    backward_evolve,
    classify,
    frechet_seminorms,
    horizon,
    log_backward_norm,
    log_frechet_seminorms,
)
from .extended import (
    ExtendedState,
    add_extended,
    apply_generator,
    canonicalize,
    entry_infimum,
    extended_norm,
    generator_action,
    group_evolve,
    lift,
    log_extended_norm,
    scale_extended,
    states_equal,
)
from .density import (
    CONTRACTION,
    DensityCertificate,
    GrowthBound,
    iterate_to_reversible,
    truncate_to_reversible,
    truncation_preimage_oracle,
)
from .inhomogeneous import (
    ConstantForcing,
    ExponentialForcing,
    Forcing,
    QuadratureConfig,
    TableForcing,
    ZERO_FORCING,
    affine_backward,
    affine_norm,
    duhamel_evolve,
    forcing_integral,
    log_affine_norm,
    mode_response,
)
from .duality import Functional, functional_to_extended, log_pairing, pairing, representable_time
from .shift import (
    ExclusionReport,
    GridFunction,
    constant_grid,
    distance_to_range,
    exclusion_onset,
    shift_evolve,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
