"""The circle fibration of the anti-de Sitter hyperquadric over complex
hyperbolic space: projections, the package's one central-difference stencil
and finite-difference curve geometry.

A point of the base is an S^1-orbit {e^{i theta} w}; we always compute on an
explicit representative w with ((w,w)) = -1.  "Horizontal" means orthogonal
to the fiber direction i*w.  Projected curves are handled through their lifts;
curvature is measured against the circle equation D_T T = kappa * (+-i) T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

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


def curve_curvature(
    curve: Callable[[np.ndarray], np.ndarray], t, step: float = FD_STEP
) -> CurvatureResult:
    """Geodesic curvature at t of the projected curve t -> curve(t).

    Works on the lift: with a = <c', ic> the vertical rate, the horizontal
    velocity is Hc' = c' + a ic with speed v.  The unit tangent field
    T = Hc'/v is carried along the lift, so the covariant derivative of the
    projected tangent needs the equivariance correction a*iT before the 1/v
    arclength rescaling:

        D_T T = (dT/dt + a iT) / v,

    then tangent + horizontal projection.  Returns kappa = ||D_T T|| and the
    circle-equation residual || D_T T - kappa sigma iT || of the better sign
    sigma = +-1.

    t is a float or a 1-d stack of k parameters, which is one point of R^k
    moved along (1, ..., 1): curve takes an array of t and returns one
    vector per t, and both derivatives are _central_differences stencils of
    it.  kappa and the residual have t's shape; each equals the value for
    its t alone.
    """

    def velocity(tau: np.ndarray):
        # c and Hc' at each parameter of a 1-d stack tau, and a.
        dc, c = _central_differences(curve, tau, np.ones((1, tau.size)), step)
        a = real_form(dc[0], 1j * c)
        return c, dc[0] + a[:, None] * (1j * c), a

    def unit_tangent(tau: np.ndarray) -> np.ndarray:
        _, hvel, _ = velocity(tau.ravel())
        return (hvel / space_norm(hvel)[:, None]).reshape(tau.shape + hvel.shape[-1:])

    at = np.asarray(t, dtype=float).reshape(-1)
    c0, hvel0, a0 = velocity(at)
    v = space_norm(hvel0)
    slow = v <= 1e-10
    if slow.any():
        i = int(np.argmax(slow))
        raise DegenerateCurveError(
            f"vanishing horizontal speed at t = {at[i]}: ||Hc'|| = {v[i]:.3e}"
        )

    # The stencil's center row is the unit tangent hvel0 / v.
    dt_vec, t0 = _central_differences(unit_tangent, at, np.ones((1, at.size)), step)
    deriv = (dt_vec[0] + a0[:, None] * (1j * t0)) / v[:, None]
    w = horizontal_part(tangent_project_ads(deriv, c0), c0, tol=1e-5)
    kappa = space_norm(w)
    it0 = 1j * t0
    res_plus = space_norm(w - kappa[:, None] * it0)
    res_minus = space_norm(w + kappa[:, None] * it0)
    residual = np.where(res_plus <= res_minus, res_plus, res_minus)
    # [()] turns the 0-d results of a float t into scalars.
    shape = np.shape(t)
    return CurvatureResult(kappa.reshape(shape)[()], residual.reshape(shape)[()])
