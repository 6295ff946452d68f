"""oddspin: exact-arithmetic intersection theory on the moduli space of
odd spin curves.

Everything is computed over the rationals, with no floating point anywhere:
divisor classes on the spin and curve moduli spaces, the class of the
divisor of non-reduced odd theta-characteristics, the genus-12 Chern-class
pipeline producing a slope-conjecture counterexample of slope 4415/642,
and exact bigness certificates for the spin canonical class.
"""

from .bn import (
    BNContext,
    bn_context,
    evaluate_taut,
    evaluate_taut_recursion,
    jet_bundle_inverse_chern,
    point_pair_inverse_chern,
    restrict_to_locus,
)
from .errors import (
    BasisMismatchError,
    DimensionError,
    EngineError,
    ExprSyntaxError,
    InternalCheckError,
    PreconditionError,
    PresetMismatchError,
    RingDomainError,
    UndefinedSlopeError,
)
from .genus12 import (
    SIDE_X,
    SIDE_Y,
    BundleChern,
    Side,
    SlopeReport,
    d12_coefficients,
    d12_slope_report,
    side,
    sym2_chern,
)
from .linalg import LinearSolveReport, solve_linear
from .numerics import (
    MukaiProfile,
    SpinCounts,
    boundary_degrees,
    mukai_profile,
    rho,
    scorza_genus,
    theta_counts,
)
from .picard import (
    CertificateReport,
    DivisorClass,
    MODULI,
    PicBasis,
    SPIN,
    TestCurve,
    bn_divisor_class,
    canonical_class,
    certificate,
    combine,
    covering_degree,
    moduli_basis,
    pair,
    pullback,
    pushforward,
    slope,
    solve_zg,
    spin_basis,
    test_curve,
    theta_pencil_profile,
    zg_class,
)
from .ring import (
    RingElem,
    RingPreset,
    adjunction_genus,
    integrate,
    preset_jacobian_product,
    preset_surface_product,
    preset_universal_curve,
)
from .scalars import format_scalar

__version__ = "0.1.0"
