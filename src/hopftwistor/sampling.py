"""Seeded random draws of the structured objects used by the property
suites: Stiefel pairs, tangent pairs, algebra elements, and one-parameter
generator constants (as n = 2 generator forms).

Every function takes an explicit numpy Generator so sweeps are reproducible
regardless of call order or scheduling.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .generator import (
    GeneratorForm,
    _documented_degeneracy,
    _scalar_form,
    extra_curvature,
)
from .linalg import AlgebraElement, herm_form, signature_matrix
from .twistor import StiefelPoint, TangentPair

__all__ = [
    "random_stiefel",
    "random_tangent_pair",
    "random_algebra",
    "random_one_param",
]

_RHO_LAMBDAS = (0.5, 1.0, 2.0)


def _complex_vec(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def random_stiefel(rng: np.random.Generator, n: int) -> StiefelPoint:
    """A random orthonormal (-,+) pair near the base point, by projection."""
    if n < 1:
        raise InputError("need n >= 1")
    for _ in range(64):
        v = _complex_vec(rng, n + 1)
        v[0] += 4.0
        norm = herm_form(v, v).real
        if norm >= -1e-6:
            continue
        um = v / np.sqrt(-norm)
        w = _complex_vec(rng, n + 1)
        w = w + herm_form(w, um) * um
        norm = herm_form(w, w).real
        if norm <= 1e-6:
            continue
        return StiefelPoint(um, w / np.sqrt(norm))
    raise InputError("failed to draw an orthonormal pair")


def random_tangent_pair(rng: np.random.Generator, p: StiefelPoint) -> TangentPair:
    """Two random vectors projected orthogonal to both base vectors."""

    def project(v: np.ndarray) -> np.ndarray:
        return v + herm_form(v, p.u_minus) * p.u_minus - herm_form(v, p.u_plus) * p.u_plus

    xm = project(_complex_vec(rng, p.dim_n + 1))
    xp = project(_complex_vec(rng, p.dim_n + 1))
    return TangentPair(xm, xp, p)


def random_algebra(
    rng: np.random.Generator, n: int, scale: float = 1.0
) -> AlgebraElement:
    """A random element of the isometry algebra, normalized to the requested
    1-norm.
    """
    s = signature_matrix(n)
    m = _complex_vec(rng, (n + 1) * (n + 1)).reshape(n + 1, n + 1)
    x = (m - s @ m.conj().T @ s) / 2.0
    norm = float(np.abs(x).sum(axis=0).max())
    if norm < 1e-12:
        raise InputError("degenerate draw")
    return AlgebraElement(x * (scale / norm), n)


def random_one_param(
    rng: np.random.Generator, horosphere: bool = False
) -> GeneratorForm:
    """Random one-parameter constants, as an n = 2 (dim_g = 1) form, kept away
    from every degeneracy the measurement pipeline cannot handle.

    Guards: overall scale, the documented non-immersion, the collapse b = 0
    of the transverse direction over the sampled heights, and (unless drawing
    horosphere data, where y1 is forced equal to y0) transverse curvature
    separated from both 1 and 2 so eigenvalue identification stays sharp.
    """
    heights = np.concatenate([np.linspace(0.4, 2.2, 19), _RHO_LAMBDAS])
    for _ in range(256):
        vals = rng.uniform(-1.0, 1.0, size=6)
        if horosphere:
            vals[4] = vals[3]
        if np.abs(vals).max() < 0.2:
            continue
        gen = _scalar_form(*vals)
        if _documented_degeneracy(gen):
            continue
        a0, a1, _, y0, y1, w = gen.scalars()
        ok = True
        for lam in heights:
            a = lam * (2 * w - a0 - a1) + 2 * y1 + 3 * lam * lam * (y0 - y1)
            b = a + 2 * (y0 - y1)
            if abs(b) < 0.15:
                ok = False
                break
        if not ok:
            continue
        if not horosphere:
            for lam in _RHO_LAMBDAS:
                rho = extra_curvature(gen, lam)
                if abs(rho - 1.0) < 2e-3 or abs(rho - 2.0) < 2e-3:
                    ok = False
                    break
        if ok:
            return gen
    raise InputError("failed to draw admissible constants")
