"""Seeded random draws of the structured objects used by the property
suites: Stiefel pairs, algebra elements, and one-parameter generator
constants (as n = 2 generator forms).

Every function takes an explicit numpy Generator so sweeps are reproducible
regardless of call order or scheduling.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .generator import (
    RHO_HEIGHTS,
    GeneratorForm,
    _documented_degeneracy,
    _scalar_form,
    _transverse_terms,
    extra_curvature,
)
from .linalg import AlgebraElement, herm_form, signature_matrix
from .twistor import StiefelPoint

__all__ = [
    "random_stiefel",
    "random_algebra",
    "random_one_param",
]

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
    heights = np.concatenate([np.linspace(0.4, 2.2, 19), RHO_HEIGHTS])
    for _ in range(256):
        vals = rng.uniform(-1.0, 1.0, size=6)
        if horosphere:
            vals[4] = vals[3]
        if np.abs(vals).max() < 0.2:
            continue
        gen = _scalar_form(*vals)
        if _documented_degeneracy(gen):
            continue
        if any(abs(_transverse_terms(gen, lam)[1]) < 0.15 for lam in heights):
            continue
        if horosphere or not any(
            abs(rho - 1.0) < 2e-3 or abs(rho - 2.0) < 2e-3
            for rho in (extra_curvature(gen, lam) for lam in RHO_HEIGHTS)
        ):
            return gen
    raise InputError("failed to draw admissible constants")
