"""Numerical certification of Hopf hypersurface constructions in complex
hyperbolic space, driven through horizontal lifts to the anti-de Sitter
hyperquadric.
"""

from .errors import (
    ConfigError,
    DegenerateCurveError,
    ExceptionalPairError,
    GeometryError,
    ImmersionError,
    InputError,
    ValidationError,
)
from .fibration import (
    AdSPoint,
    CHPoint,
    CurvatureResult,
    ParamCurve,
    canonical_rep,
    ch_equal,
    curve_curvature,
    horizontal_part,
    numeric_derivative,
    space_norm,
    tangent_project_ads,
)
from .generator import (
    GeneratorForm,
    commutator_residual,
    extra_curvature,
    form_value,
    is_horosphere_data,
    maurer_cartan_residual,
    orbit_patch_from_form,
    parse_constants,
    product_group_map,
    two_path_residual,
)
from .hypersurface import (
    HypersurfacePatch,
    ShapeReport,
    ShapeResult,
    build_patch,
    cluster_eigenvalues,
    horosphere,
    horosphere_defining_residual,
    pairing_residual,
    parallel_patch_residual,
    phi_project,
    pick_extra_eigenvalue,
    shape_operator,
    structure_lift,
    tube_complex,
    tube_real,
    verify_hopf,
)
from .linalg import (
    AlgebraElement,
    GroupElement,
    algebra_residual,
    group_residual,
    herm_form,
    matrix_exp,
    pair_form,
    real_form,
    signature_matrix,
)
from .twistor import (
    LiftCoefficients,
    StiefelPoint,
    TangentPair,
    TwistorClass,
    gauge_apply,
    is_horizontal,
    lift_coefficients,
    model_curve,
    normalize_lift_1d,
    para_apply,
    parallel_shift_residual,
    twistor_equivalent,
    unit_tangent_lift,
)

__version__ = "0.1.0"
