"""Free-fermionic state toolkit.

Correlation-matrix algebra for fermionic Gaussian states: Pfaffians and
normal forms, trace-distance and fidelity bounds, measurement simulation
with correlation-matrix estimators, property-testing and tomography
protocols, and a dense Jordan-Wigner oracle that cross-checks everything at
small mode counts.
"""

__version__ = "0.1.0"

from . import dense, learning, sampling, skew, states  # noqa: F401
from .skew import (  # noqa: F401
    NormalForm,
    SkewMatrix,
    ky_fan_norm,
    normal_eigenvalue_gap,
    normal_form,
    pfaffian,
    restricted_pfaffian,
    schatten_norm,
)
from .states import (  # noqa: F401
    BoundsReport,
    GaussianState,
    NonGaussReport,
    PnpCorrelation,
    distance_bounds,
    from_correlation,
    nongaussianity_bounds,
    overlap_pure,
    parity,
    product_state,
    purify,
    rank_exponent,
    rotate,
    vacuum,
    wick_expectation,
)
from .dense import (  # noqa: F401
    DenseState,
    correlation_matrix,
    gaussian_derivative,
    gaussian_to_dense,
    gaussian_unitary,
    gaussianification,
    majoranas,
    pnp_correlation,
    state_metrics,
)
from .sampling import (  # noqa: F401
    DenseSource,
    ExactGaussianSource,
    GammaEstimate,
    RngStream,
    estimate_gamma,
    matching_rotation,
    matchings,
)
from .learning import (  # noqa: F401
    TomographyReport,
    local_full_tomography,
    reduce_identity_testing,
    robustness_experiment,
    test_bounded_rank,
    test_pure,
    tomograph_mixed,
    tomograph_pure,
)
