"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all geometric failures; a gate's error carries its residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ValidationError(GeometryError):
    """Structural membership failed (group, algebra, Stiefel, form shape)."""


class InputError(GeometryError):
    """Malformed or inadmissible input: dimension mismatch, non-tangency,
    non-horizontal lift, values leaving the required manifold."""


class DegenerateCurveError(GeometryError):
    """Curve construction broke down: vanishing horizontal speed, or the
    unit tangent is undefined (sign '+' at radius 0)."""


class ImmersionError(GeometryError):
    """The patch differential is rank deficient, or the construction is the
    documented non-immersion."""


class ExceptionalPairError(GeometryError):
    """Principal-curvature pairing denominator 2*lam - mu vanished; the pair
    belongs to the exceptional case and is reported separately."""


class NonFiniteCheckError(ValueError):
    """A check record got a value, expected value or tolerance that is not a
    finite float: the measurement overflowed.  The CLI reports it as a
    verification error (exit 1)."""


class ConfigError(Exception):
    """Command-line / config-file validation failure (exit status 2)."""
