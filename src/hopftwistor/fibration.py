"""The circle fibration of the anti-de Sitter hyperquadric over complex
hyperbolic space: projections, the package's one central-difference stencil
and the geodesic curvature of a projected curve from exact derivatives of its
lift.

A point of the base is an S^1-orbit {e^{i theta} w}; we always compute on an
explicit representative w with ((w,w)) = -1.  "Horizontal" means orthogonal
to the fiber direction i*w.  Projected curves are handled through their lifts;
curvature is measured against the circle equation D_T T = kappa * (+-i) T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCurveError, InputError
from .linalg import STRUCTURE_TOL, _judge_rows, herm_form, real_form

FD_STEP = 1e-4

__all__ = [
    "FD_STEP",
    "AdSPoint",
    "CurvatureResult",
    "horizontal_part",
    "tangent_project_ads",
    "curve_curvature",
    "space_norm",
]


@dataclass(frozen=True, eq=False)
class AdSPoint:
    """A vector on the hyperquadric ((w,w)) = -1, within STRUCTURE_TOL."""

    vec: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=complex)
        object.__setattr__(self, "vec", v)
        res = abs(herm_form(v, v) + 1.0)
        _judge_rows(res, STRUCTURE_TOL, "not on the hyperquadric: |((w,w))+1| = {:.3e}")


class CurvatureResult(NamedTuple):
    """Floats for a float t; arrays of t's shape for a stack."""

    kappa: float
    residual: float


def space_norm(x):
    """Norm sqrt(<x, x>) of a tangent vector x; it needs no base point.  A
    stack x (..., n+1) gives one norm per row, with real_form's broadcasting.

    Valid on horizontal vectors (the restriction there is positive definite).
    """
    return np.sqrt(np.maximum(real_form(x, x), 0.0))


def horizontal_part(x, w, tol: float) -> np.ndarray:
    """Project a tangent vector at w onto the horizontal subspace.

    HX = X + <X, iw> iw.  Requires <X, w> = 0 within tol (tangency); the
    result satisfies ((HX, w)) = 0, i.e. full complex orthogonality.  x may
    be a stack (..., n+1) of tangent vectors at w (or at a matching stack of
    points); every row must pass the tangency test, and the error reports the
    largest defect.
    """
    wv = np.asarray(w, dtype=complex)
    xv = np.asarray(x, dtype=complex)
    tangency = np.abs(real_form(xv, wv)).max()
    _judge_rows(tangency, tol, "not tangent to the hyperquadric: <X,w> = {:.3e}", InputError)
    iw = 1j * wv
    return xv + np.asarray(real_form(xv, iw))[..., None] * iw


def tangent_project_ads(x, w) -> np.ndarray:
    """Project an ambient vector onto the tangent space at w: X + <X,w> w.

    x may be a stack (..., n+1); each row is projected as on its own.
    """
    wv = np.asarray(w, dtype=complex)
    xv = np.asarray(x, dtype=complex)
    return xv + np.asarray(real_form(xv, wv))[..., None] * wv


def _central_differences(func, at: np.ndarray, directions, step: float):
    """One central difference (func(at + step*d) - func(at - step*d)) / (2*step)
    per direction d, as the rows of a complex array, and func(at).  func takes
    the whole stencil, the points at + step*D over at - step*D and then at
    itself, in one call."""
    steps = step * np.asarray(directions, dtype=float)
    values = np.asarray(func(np.concatenate([at + steps, at - steps, at[None]])), dtype=complex)
    m = len(steps)
    return (values[:m] - values[m : 2 * m]) / (2 * step), values[-1]


def curve_curvature(jet, t) -> CurvatureResult:
    """Geodesic curvature at t of the projected curve whose lift c has the
    exact derivatives c' and c'' there: jet is the stack (c, c', c'') of
    twistor.model_curve, (3, n+1) for a float t or (3, k, n+1) for a 1-d
    stack of k parameters.

    Works on the lift: with a = <c', ic> the vertical rate, the horizontal
    velocity is Hc' = c' + a ic with speed v and unit tangent T = Hc'/v.  Its
    derivative is (Hc')' = c'' + a' ic + a ic' with a' = <c'', ic> + <c', ic'>,
    and v' = <(Hc')', T>.  The unit tangent field is carried along the lift,
    so the covariant derivative of the projected tangent needs the
    equivariance correction a*iT before the 1/v arclength rescaling:

        D_T T = (dT/dt + a iT) / v = ((Hc')' - v' T) / v^2 + a iT / v,

    then tangent + horizontal projection.  Returns kappa = ||D_T T|| and the
    circle-equation residual || D_T T - kappa sigma iT || of the better sign
    sigma = +-1, each with t's shape.
    """
    at = np.asarray(t, dtype=float).reshape(-1)
    jet = np.asarray(jet, dtype=complex)
    c, dc, ddc = jet.reshape(3, at.size, jet.shape[-1])
    ic, idc = 1j * c, 1j * dc
    a = real_form(dc, ic)
    hvel = dc + a[:, None] * ic
    v = space_norm(hvel)
    slow = v <= 1e-10
    if slow.any():
        i = int(np.argmax(slow))
        raise DegenerateCurveError(
            f"vanishing horizontal speed at t = {at[i]}: ||Hc'|| = {v[i]:.3e}"
        )
    t0 = hvel / v[:, None]
    da = real_form(ddc, ic) + real_form(dc, idc)
    dhvel = ddc + da[:, None] * ic + a[:, None] * idc
    dv = real_form(dhvel, t0)
    it0 = 1j * t0
    deriv = (dhvel - dv[:, None] * t0) / (v * v)[:, None] + (a / v)[:, None] * it0
    w = horizontal_part(tangent_project_ads(deriv, c), c, tol=1e-5)
    kappa = space_norm(w)
    res_plus = space_norm(w - kappa[:, None] * it0)
    res_minus = space_norm(w + kappa[:, None] * it0)
    residual = np.where(res_plus <= res_minus, res_plus, res_minus)
    # [()] turns the 0-d results of a float t into scalars.
    shape = np.shape(t)
    return CurvatureResult(kappa.reshape(shape)[()], residual.reshape(shape)[()])
