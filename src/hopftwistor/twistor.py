"""Orthonormal timelike/spacelike pairs, the para-quaternionic frame, the
three model curve families, and the horizontal-lift calculus.

A pair p = (u_minus, u_plus) satisfies ((u-,u-)) = -1, ((u+,u+)) = 1,
((u-,u+)) = 0.

The sign argument below is one of the strings "plus", "minus", "zero",
naming the three twistor bundles (fiber STRUCTUREs squaring to -1, +1, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCurveError, InputError
from .linalg import STRUCTURE_TOL, _judge_rows, herm_form

# The para-quaternionic frame J1, J2, J3; each acts on a pair from the right,
# (X-, X+) -> (X-, X+) J.
FRAME = np.array([[[1j, 0], [0, -1j]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])
# The fiber structure of each twistor bundle: J1, J2 and the null J1 + J2.
STRUCTURE = {"plus": FRAME[0], "minus": FRAME[1], "zero": FRAME[0] + FRAME[1]}
SIGNS = tuple(STRUCTURE)
HORIZONTAL_TOL = 1e-6

__all__ = [
    "FRAME",
    "STRUCTURE",
    "SIGNS",
    "HORIZONTAL_TOL",
    "StiefelPoint",
    "model_curve",
    "unit_tangent_lift",
    "parallel_shift_residual",
    "horizontality_residual",
]


def _check_sign(sign: str) -> str:
    if sign not in SIGNS:
        raise InputError(f"sign must be one of {SIGNS}, got {sign!r}")
    return sign


@dataclass(frozen=True, eq=False)
class StiefelPoint:
    """An orthonormal pair: u_minus timelike (norm -1), u_plus spacelike (norm +1).

    u_minus and u_plus may be stacks (..., n+1) of pairs, judged once against
    STRUCTURE_TOL; the error names the worst pair's row.
    """

    u_minus: np.ndarray
    u_plus: np.ndarray

    def __post_init__(self):
        um = np.asarray(self.u_minus, dtype=complex)
        up = np.asarray(self.u_plus, dtype=complex)
        if um.shape != up.shape:
            raise InputError("u_minus and u_plus must share a dimension")
        object.__setattr__(self, "u_minus", um)
        object.__setattr__(self, "u_plus", up)
        pair = np.stack([um, up], axis=-2)
        gram = herm_form(pair[..., :, None, :], pair[..., None, :, :])
        res = np.maximum.reduce(
            [
                np.abs(gram[..., 0, 0] + 1.0),
                np.abs(gram[..., 1, 1] - 1.0),
                np.abs(gram[..., 0, 1]),
            ]
        )
        _judge_rows(res, STRUCTURE_TOL, "not an orthonormal (-,+) pair: residual {:.3e}")

    @property
    def dim_n(self) -> int:
        return self.u_minus.shape[-1] - 1


# The even and odd parts (C, S) of exp(tJ) = C(t) + S(t) J for a structure
# J with J^2 = -1, +1 or 0.
_ORBIT_PARTS = {-1.0: (np.cos, np.sin), 1.0: (np.cosh, np.sinh), 0.0: (np.ones_like, np.positive)}


def _start(sign: str, r: float) -> np.ndarray:
    """The coefficient row of the model curve at t = 0, (cosh r, phi sinh r)
    with phi = 1 for plus and i otherwise.  cosh r and sinh r are scalar
    math, so an overflowing r raises OverflowError."""
    return np.array([math.cosh(r), (1.0 if sign == "plus" else 1j) * math.sinh(r)])


def _tangent_start(sign: str, r: float) -> np.ndarray:
    """The start row of the unit horizontal tangent, -i d/dr of _start,
    since i T_r = dc/dr."""
    if sign == "plus" and abs(r) < 1e-14:
        raise DegenerateCurveError("unit tangent undefined for sign 'plus' at r = 0")
    return -1j * np.array([math.sinh(r), (1.0 if sign == "plus" else 1j) * math.cosh(r)])


def _curve_stack(sign: str, starts: np.ndarray, t: np.ndarray, p: StiefelPoint) -> np.ndarray:
    """The orbits s exp(tJ) (u_-, u_+) of the sign's structure J, for each
    start row s of starts (..., 2), at an array t of any shape, against the
    pair p or a stack of pairs whose leading axes are t's; the result is
    (starts.shape[:-1]..., t.shape..., n+1).

    s exp(tJ) = C(t) s + S(t) s J: C and S act elementwise on t, so each row
    has the bits of a call on its t alone.  The start row sJ^k gives the
    k-th t-derivative of the orbit of s exactly, since J commutes with
    exp(tJ)."""
    j = STRUCTURE[sign]
    s = np.asarray(starts)
    shape = s.shape[:-1] + (1,) * np.ndim(t) + (2,)
    even, odd = _ORBIT_PARTS[(j @ j)[0, 0].real]
    c = even(t)[..., None] * s.reshape(shape) + odd(t)[..., None] * (s @ j).reshape(shape)
    return c[..., :1] * p.u_minus + c[..., 1:] * p.u_plus


def model_curve(sign: str, r: float, p: StiefelPoint, t) -> np.ndarray:
    """The constant-curvature model curve c of the given sign and radius and
    its exact derivatives c' and c'' at a float t or an array of t, as the
    rows of a stack (3, t.shape..., n+1).

    The curve stays on the hyperquadric inside the complex span of the pair.
    """
    _check_sign(sign)
    start = _start(sign, r)
    j = STRUCTURE[sign]
    return _curve_stack(sign, np.array([start, start @ j, start @ j @ j]), np.asarray(t, dtype=float), p)


def unit_tangent_lift(sign: str, r: float, p: StiefelPoint, t) -> np.ndarray:
    """Closed-form unit horizontal tangent along the model curve, at a float
    t or at each t of an array."""
    _check_sign(sign)
    return _curve_stack(sign, _tangent_start(sign, r), np.asarray(t, dtype=float), p)


def parallel_shift_residual(sign: str, r: float, r_prime: float, p: StiefelPoint, t):
    """|| cosh r' * c_r(t) + sinh r' * i T_r(t) - c_{r+r'}(t) || at a float t,
    or one per t of an array.

    Vanishes identically: the model curves form parallel families.
    """
    _check_sign(sign)
    t = np.asarray(t, dtype=float)
    base = _curve_stack(sign, _start(sign, r), t, p)
    tangent = _curve_stack(sign, _tangent_start(sign, r), t, p)
    shifted = _curve_stack(sign, _start(sign, r + r_prime), t, p)
    diff = math.cosh(r_prime) * base + math.sinh(r_prime) * (1j * tangent) - shifted
    # Row-times-column sums of the real and imaginary parts, as np.linalg.norm
    # takes them for one vector.
    re, im = diff.real[..., None, :], diff.imag[..., None, :]
    return np.sqrt((re @ re.mT + im @ im.mT)[..., 0, 0])


def horizontality_residual(sign: str, here: np.ndarray, derivatives: np.ndarray) -> np.ndarray:
    """The defect max|[omega, J]|/2 of the sign's horizontality for each
    derivative (du_minus, du_plus) in a stack (..., m, 2, n+1) of a lift's
    derivatives at the pairs here = (u_minus, u_plus), (..., 2, n+1); the
    result has shape (..., m).  omega is the connection form of the frame,
    (du-, du+) = (u-, u+) omega + (rest orthogonal to u-, u+), kept to its
    u(1,1) part, and J = STRUCTURE[sign]: the lift is horizontal when omega
    commutes with J.

    Raises InputError when omega is not in u(1,1) (a real diagonal part, or
    ((du-, u+)) + conj((du+, u-)), above 1e-8, or NaN): the lift does not
    stay on the Stiefel manifold.
    """
    _check_sign(sign)
    # c[..., a, b] = ((d u_a, u_b)) with a, b in (minus, plus)
    c = herm_form(derivatives[..., :, None, :], here[..., None, None, :, :])
    c_mm, c_mp, c_pm, c_pp = c[..., 0, 0], c[..., 0, 1], c[..., 1, 0], c[..., 1, 1]
    # np.max of np.maximum: a NaN anywhere reaches the judge.
    stiefel = np.maximum.reduce([np.abs(c_mm.real), np.abs(c_pp.real), np.abs(c_pm + np.conj(c_mp))])
    _judge_rows(np.max(stiefel), 1e-8, "lift leaves the Stiefel manifold: residual {:.3e}", InputError)
    # omega[b, a], the coefficient of u_b in du_a, is eta_b c[a, b].
    eta = np.array([-1.0, 1.0])
    omega = eta[:, None] * c.mT
    omega = (omega - eta[:, None] * omega.conj().mT * eta) / 2.0
    j = STRUCTURE[sign]
    return np.abs(omega @ j - j @ omega).max(axis=(-2, -1)) / 2.0
