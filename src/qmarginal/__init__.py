"""Bipartite quantum states with prescribed reduced states.

Construction, feasibility predicates, optimal rank-constrained marginal
approximation, and extreme-point certification for density matrices on an
(m, n) system whose first partial trace is prescribed.
"""

from .constructors import (
    ApproxResult,
    construct_23,
    construct_rank_k,
    construct_with_spectra,
    horn_unitary,
    nonextreme_of_rank_k,
    optimal_low_rank,
    purify,
)
from .errors import (
    DimensionError,
    DomainError,
    InfeasibleError,
    InternalInvariantError,
    InvalidCertificateError,
    PreconditionError,
    UnsupportedRegimeError,
    ValidationError,
)
from .extremality import ExtremalityReport, is_extreme, split_nonextreme
from .feasibility import (
    CompatCheck,
    CompatReport,
    RankRange,
    compat_2x2,
    compat_2x3,
    element_rank_range,
    exact_low_rank_exists,
    extreme_rank_range,
    necessary_spectra_compat,
)
from .kernels import PortableRng
from .linalg import (
    BipartiteState,
    DensityMatrix,
    bipartite,
    hermitian_eig,
    partial_trace_first,
    partial_trace_second,
    random_density,
    spectrum,
    validate_density,
)
from .majorization import MajorizationReport, majorizes, schatten_norm
from .oracle import (
    SamplerConfig,
    random_state_with_marginal,
    random_unitary,
    search_min_norm,
    spectra_pair_census,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxResult",
    "BipartiteState",
    "CompatCheck",
    "CompatReport",
    "DensityMatrix",
    "DimensionError",
    "DomainError",
    "ExtremalityReport",
    "InfeasibleError",
    "InternalInvariantError",
    "InvalidCertificateError",
    "MajorizationReport",
    "PortableRng",
    "PreconditionError",
    "RankRange",
    "SamplerConfig",
    "UnsupportedRegimeError",
    "ValidationError",
    "bipartite",
    "compat_2x2",
    "compat_2x3",
    "construct_23",
    "construct_rank_k",
    "construct_with_spectra",
    "element_rank_range",
    "exact_low_rank_exists",
    "extreme_rank_range",
    "hermitian_eig",
    "horn_unitary",
    "is_extreme",
    "majorizes",
    "necessary_spectra_compat",
    "nonextreme_of_rank_k",
    "optimal_low_rank",
    "partial_trace_first",
    "partial_trace_second",
    "purify",
    "random_density",
    "random_state_with_marginal",
    "random_unitary",
    "schatten_norm",
    "search_min_norm",
    "spectra_pair_census",
    "spectrum",
    "split_nonextreme",
    "validate_density",
]
