"""Indefinite complex linear algebra on C^{n+1} with one timelike direction.

Vectors are plain 1-d numpy arrays of length n+1 (complex128); the ambient
dimension n is implied by the length.  A stack of vectors is an array of
shape (..., n+1).  The Hermitian form is

    ((z, w)) = -z_0 conj(w_0) + sum_{k>=1} z_k conj(w_k),

linear in the first slot and conjugate-linear in the second.  The matrix
S = diag(-1, 1, ..., 1) represents it; the isometry group U(1,n) is
{A : A* S A = S} and its Lie algebra is {X : X* S + S X = 0}.

Tolerance conventions: structural membership defaults to 1e-10 (double
precision roundoff scale), finite-difference residuals elsewhere default to
1e-5 (O(h^2) truncation at h = 1e-4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ValidationError

STRUCTURE_TOL = 1e-10

__all__ = [
    "STRUCTURE_TOL",
    "signature_matrix",
    "herm_form",
    "real_form",
    "pair_form",
    "is_anti_de_sitter",
    "group_residual",
    "algebra_residual",
    "GroupElement",
    "AlgebraElement",
    "matrix_exp",
]


def signature_matrix(dim_n: int) -> np.ndarray:
    """diag(-1, 1, ..., 1) of size (dim_n+1) x (dim_n+1)."""
    if dim_n < 1:
        raise InputError("dim_n must be a positive integer")
    s = np.eye(dim_n + 1)
    s[0, 0] = -1.0
    return s


def _as_vec(z) -> np.ndarray:
    v = np.asarray(z, dtype=complex)
    if v.ndim < 1 or v.shape[-1] < 2:
        raise InputError("expected coordinate vectors of length n+1 >= 2")
    return v


def herm_form(z, w):
    """The signature-(1,n) Hermitian form ((z, w)).

    Linear in z, conjugate-linear in w; ((z,w)) = conj(((w,z))).  z and w are
    vectors or stacks of shape (..., n+1); the leading axes broadcast and the
    result has their shape, so herm_form(W[None], E[:, None]) is the Gram
    matrix G[i, j] = ((W[j], E[i])).  On C-contiguous stacks each entry is
    bitwise the value for its two single vectors (numpy sums a strided
    coordinate axis in another order); two 1-d vectors give a Python complex.
    """
    zv, wv = _as_vec(z), _as_vec(w)
    if zv.shape[-1] != wv.shape[-1]:
        raise InputError(f"dimension mismatch: {zv.shape} vs {wv.shape}")
    # Coordinates on the first axis: for two single vectors every step then
    # stays on numpy scalars, which keeps the most frequent call cheap.
    prod = (zv * np.conj(wv)).T
    val = prod[1:].sum(0) - prod[0]
    return complex(val) if val.ndim == 0 else val.T


def real_form(z, w):
    """Real scalar product <z, w> = Re ((z, w)), with herm_form's broadcasting;
    two 1-d vectors give a Python float."""
    return herm_form(z, w).real


def pair_form(x, y) -> float:
    """Scalar product -<X_-, Y_-> + <X_+, Y_+> on pairs of vectors."""
    xm, xp = x
    ym, yp = y
    return -real_form(xm, ym) + real_form(xp, yp)


def is_anti_de_sitter(w, tol: float = STRUCTURE_TOL) -> bool:
    """True iff ((w, w)) = -1 within tol (the Lorentzian hyperquadric)."""
    return abs(herm_form(w, w) + 1.0) <= tol


def group_residual(matrix: np.ndarray) -> float:
    """max |A* S A - S|."""
    a = np.asarray(matrix, dtype=complex)
    s = signature_matrix(a.shape[0] - 1)
    return float(np.abs(a.conj().T @ s @ a - s).max())


def algebra_residual(matrix: np.ndarray) -> float:
    """max |X* S + S X|."""
    x = np.asarray(matrix, dtype=complex)
    s = signature_matrix(x.shape[0] - 1)
    return float(np.abs(x.conj().T @ s + s @ x).max())


def _check_square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise InputError(f"expected a square matrix of size n+1 >= 2, got {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise InputError("matrix has non-finite entries")
    return m


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A validated element of U(1,n)."""

    matrix: np.ndarray
    dim_n: int
    tol: float = STRUCTURE_TOL

    def __post_init__(self):
        m = _check_square(self.matrix)
        if m.shape[0] != self.dim_n + 1:
            raise InputError(f"matrix size {m.shape[0]} != dim_n+1 = {self.dim_n + 1}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        res = group_residual(m)
        if res > self.tol:
            raise ValidationError(
                f"not in U(1,{self.dim_n}): residual {res:.3e} > tol {self.tol:.1e}",
                residual=res,
            )

    def apply(self, z) -> np.ndarray:
        """A z for a vector z, or for each vector of a stack."""
        return _as_vec(z) @ self.matrix.T

    def compose(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.matrix @ other.matrix, self.dim_n, max(self.tol, other.tol))


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A validated element of u(1,n).

    Membership forces the block form: the (0,0) entry is purely imaginary and
    the lower-right n x n block is skew-Hermitian; both are checked alongside
    the defining identity.
    """

    matrix: np.ndarray
    dim_n: int
    tol: float = STRUCTURE_TOL

    def __post_init__(self):
        m = _check_square(self.matrix)
        if m.shape[0] != self.dim_n + 1:
            raise InputError(f"matrix size {m.shape[0]} != dim_n+1 = {self.dim_n + 1}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        res = algebra_residual(m)
        block = m[1:, 1:]
        res = max(
            res,
            abs(m[0, 0].real),
            float(np.abs(block.conj().T + block).max()),
        )
        if res > self.tol:
            raise ValidationError(
                f"not in u(1,{self.dim_n}): residual {res:.3e} > tol {self.tol:.1e}",
                residual=res,
            )

    def scaled(self, t: float) -> np.ndarray:
        return t * self.matrix


# Truncation order for the scaled Taylor series.  With the argument scaled to
# 1-norm <= 0.5, the first dropped term is bounded by 0.5^19/19! ~ 1.6e-23.
_EXP_ORDER = 18


def matrix_exp(x: AlgebraElement, t: float = 1.0) -> GroupElement:
    """exp(t X) by scaling and squaring with a degree-18 Taylor polynomial.

    The result is validated as a GroupElement; for ||t X|| <= 10 the group
    residual stays below 1e-10.
    """
    if not math.isfinite(t):
        raise InputError("t must be finite")
    a = x.scaled(t)
    norm1 = float(np.abs(a).sum(axis=0).max())
    squarings = 0
    if norm1 > 0.5:
        squarings = int(math.ceil(math.log2(norm1 / 0.5)))
        a = a / (2.0**squarings)
    # Horner evaluation of sum_{m<=18} a^m / m!
    eye = np.eye(a.shape[0], dtype=complex)
    result = eye + a / _EXP_ORDER
    for m in range(_EXP_ORDER - 1, 0, -1):
        result = eye + (a @ result) / m
    for _ in range(squarings):
        result = result @ result
    return GroupElement(result, x.dim_n, STRUCTURE_TOL)
