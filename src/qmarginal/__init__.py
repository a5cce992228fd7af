"""Bipartite quantum states with prescribed reduced states.

Construction, feasibility predicates, optimal rank-constrained marginal
approximation, and extreme-point certification for density matrices on an
(m, n) system whose first partial trace is prescribed.
"""

from .constructors import (
    ApproxResult,
    GadgetSpec,
    constant_diagonal_conjugate,
    construct_23,
    construct_rank_k,
    construct_with_spectra,
    gadget,
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
from .linalg import (
    BipartiteState,
    DensityMatrix,
    bipartite,
    fold,
    hermitian_eig,
    kron,
    partial_trace_first,
    partial_trace_second,
    random_density,
    spectrum,
    unfold,
    validate_density,
)
from .majorization import (
    MajorizationReport,
    majorizes,
    schatten_norm,
    sum_k_largest,
    von_neumann_entropy,
)
from .oracle import (
    SamplerConfig,
    competitor_residual_spectra,
    random_state_with_marginal,
    random_unitary,
    search_min_norm,
    spectra_pair_census,
)
from .rng import PortableRng

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
    "GadgetSpec",
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
    "competitor_residual_spectra",
    "constant_diagonal_conjugate",
    "construct_23",
    "construct_rank_k",
    "construct_with_spectra",
    "element_rank_range",
    "exact_low_rank_exists",
    "extreme_rank_range",
    "fold",
    "gadget",
    "hermitian_eig",
    "horn_unitary",
    "is_extreme",
    "kron",
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
    "sum_k_largest",
    "unfold",
    "validate_density",
    "von_neumann_entropy",
]
