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
    CurvatureResult,
    curve_curvature,
    horizontal_part,
    space_norm,
    tangent_project_ads,
)
from .generator import (
    GeneratorForm,
    commutator_residual,
    constants_document,
    extra_curvature,
    form_value,
    maurer_cartan_residual,
    orbit_patch_from_form,
    parse_constants,
    two_path_residual,
)
from .hypersurface import (
    HypersurfacePatch,
    ShapeReport,
    ShapeResult,
    cluster_eigenvalues,
    horosphere,
    horosphere_defining_residual,
    pairing_residual,
    pick_extra_eigenvalue,
    shape_operator,
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
    real_form,
    signature_matrix,
)
from .twistor import (
    StiefelPoint,
    horizontality_residual,
    model_curve,
    parallel_shift_residual,
    unit_tangent_lift,
)

__version__ = "0.1.0"
