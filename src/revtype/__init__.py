"""Third-fundamental-form geometry of surfaces of revolution.

Evaluates the Beltrami operators induced by the third fundamental form,
fits the best constant matrix A in Laplacian(x) = A x over sample grids,
and certifies the resulting classification: the fit recovers the null
matrix exactly for catenoids, twice the identity for spheres, and admits
no constant matrix for anything else.
"""

from .beltrami import (
    first_beltrami,
    laplacian_profile_factors,
    normal_profiles,
    operator_equivalence_residual,
    position_identity_residual,
    second_beltrami,
    second_beltrami_divergence,
)
from .catalog import CatalogEntry, broken_diagonal, catenoid, sphere, torus
from .classify import (
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT,
    VERDICT_NULL,
    VERDICT_SPHERE,
    FitReport,
    ScanCertificate,
    contradiction_scan,
    eigen_system_residuals,
    fit_matrix,
    quartic_coefficients,
    radius_rate_defect,
    structure_check,
)
from .expressions import (
    DomainEvalError,
    ExpressionError,
    ParseError,
    UnboundParameterError,
    eval_jet3,
    parse,
    unparse,
)
from .geometry import (
    ProfileCurve,
    ProfileError,
    RegularJets,
    ValidationReport,
    curvatures,
    grid_rows,
    load_profile,
    profile_from_dict,
    profile_to_dict,
    radii_sum_jet,
    sample_regular,
    save_profile,
    validate_profile,
)
from .jets import Jet3, JetDomainError

__version__ = "0.1.0"
