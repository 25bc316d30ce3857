"""The circle fibration of the anti-de Sitter hyperquadric over complex
hyperbolic space: projections and finite-difference curve geometry.

A point of the base is an S^1-orbit {e^{i theta} w}; we always compute on an
explicit representative w with ((w,w)) = -1.  "Horizontal" means orthogonal
to the fiber direction i*w.  Projected curves are handled through their lifts;
curvature is measured against the circle equation D_T T = kappa * (+-i) T.
"""

from __future__ import annotations

import math
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
    kappa: float
    residual: float


def space_norm(x) -> float:
    """Norm sqrt(<x, x>) of a tangent vector x; it needs no base point.

    Valid on horizontal vectors (the restriction there is positive definite).
    """
    val = real_form(x, x)
    return math.sqrt(max(val, 0.0))


def horizontal_part(x, w, tol: float = 1e-8) -> np.ndarray:
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


def curve_curvature(
    curve: Callable[[float], np.ndarray], t: float, step: float = FD_STEP
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
    """

    def tangent_data(tau: float):
        c = curve(tau)
        dc = (curve(tau + step) - curve(tau - step)) / (2.0 * step)
        a = real_form(dc, 1j * c)
        hvel = dc + a * (1j * c)
        return c, hvel, a

    c0, hvel0, a0 = tangent_data(t)
    v = space_norm(hvel0)
    if v <= 1e-10:
        raise DegenerateCurveError(
            f"vanishing horizontal speed at t = {t}: ||Hc'|| = {v:.3e}"
        )

    def unit_tangent(tau: float) -> np.ndarray:
        _, hvel, _ = tangent_data(tau)
        return hvel / space_norm(hvel)

    t0 = hvel0 / v
    dt_vec = (unit_tangent(t + step) - unit_tangent(t - step)) / (2.0 * step)
    deriv = (dt_vec + a0 * (1j * t0)) / v
    w = horizontal_part(tangent_project_ads(deriv, c0), c0, tol=1e-5)
    kappa = space_norm(w)
    it0 = 1j * t0
    res_plus = space_norm(w - kappa * it0)
    res_minus = space_norm(w + kappa * it0)
    return CurvatureResult(kappa, res_plus if res_plus <= res_minus else res_minus)
