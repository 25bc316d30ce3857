"""Indefinite complex linear algebra on C^{n+1} with one timelike direction.

Vectors are plain 1-d numpy arrays of length n+1 (complex128); the ambient
dimension n is implied by the length.  A stack of vectors is an array of
shape (..., n+1); group and algebra elements hold one matrix or a stack
(..., n+1, n+1).  The Hermitian form is

    ((z, w)) = -z_0 conj(w_0) + sum_{k>=1} z_k conj(w_k),

linear in the first slot and conjugate-linear in the second.  The matrix
S = diag(-1, 1, ..., 1) represents it; the isometry group U(1,n) is
{A : A* S A = S} and its Lie algebra is {X : X* S + S X = 0}.

Tolerance conventions: structural membership defaults to 1e-10 (double
precision roundoff scale), finite-difference residuals elsewhere default to
1e-5 (O(h^2) truncation at h = 1e-4).  Every gate of the form "residual <=
tol, else raise" in the package is judged by _judge_rows: a residual passes
only when it is <= tol, so a NaN fails, and the error carries the residual
as a float.
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


def group_residual(matrix):
    """max |A* S A - S|; for a stack (..., n+1, n+1), one value per matrix."""
    a = np.asarray(matrix, dtype=complex)
    s = signature_matrix(a.shape[-1] - 1)
    return np.abs(np.swapaxes(a.conj(), -1, -2) @ s @ a - s).max(axis=(-2, -1))


def algebra_residual(matrix):
    """max |X* S + S X|; for a stack (..., n+1, n+1), one value per matrix."""
    x = np.asarray(matrix, dtype=complex)
    s = signature_matrix(x.shape[-1] - 1)
    return np.abs(np.swapaxes(x.conj(), -1, -2) @ s + s @ x).max(axis=(-2, -1))


def _judge_rows(residuals, tol: float, message: str, error=ValidationError) -> None:
    """Judge one residual, or a stack of residuals one per row, against tol.

    Raises error(message.format(residual)) for the largest residual above
    tol, naming its row when residuals is a stack; the error's residual is
    that value as a float.  A row passes only when its residual is <= tol,
    so a NaN residual fails (and is named first).
    """
    if isinstance(residuals, float):
        # One residual that passes, the frequent case, does no array work.
        if residuals <= tol:
            return
        residuals = np.float64(residuals)
    over = ~(residuals <= tol)
    if not over.any():
        return
    flat = int(np.argmax(np.where(over, residuals, -np.inf)))
    res = float(residuals.flat[flat])
    where = ""
    if np.ndim(residuals):
        index = np.unravel_index(flat, residuals.shape)
        row = int(index[0]) if len(index) == 1 else tuple(map(int, index))
        where = f" at stack row {row}"
    raise error(message.format(res) + where, residual=res)


def _check_square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 2:
        raise InputError(f"expected a square matrix of size n+1 >= 2, got {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise InputError("matrix has non-finite entries")
    return m


def _readonly_matrix(matrix, dim_n: int) -> np.ndarray:
    m = _check_square(matrix)
    if m.shape[-1] != dim_n + 1:
        raise InputError(f"matrix size {m.shape[-1]} != dim_n+1 = {dim_n + 1}")
    m = m.copy()
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A validated element of U(1,n), or a stack (..., n+1, n+1) of them.

    A stack is judged once against STRUCTURE_TOL; the error names the worst
    matrix's row.
    """

    matrix: np.ndarray
    dim_n: int

    def __post_init__(self):
        m = _readonly_matrix(self.matrix, self.dim_n)
        object.__setattr__(self, "matrix", m)
        _judge_rows(
            group_residual(m),
            STRUCTURE_TOL,
            f"not in U(1,{self.dim_n}): residual {{:.3e}} > tol {STRUCTURE_TOL:.1e}",
        )

    def compose(self, other: "GroupElement") -> "GroupElement":
        """The product, matrix by matrix for stacks."""
        return GroupElement(self.matrix @ other.matrix, self.dim_n)


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A validated element of u(1,n), or a stack (..., n+1, n+1) of them.

    Membership forces the block form: the (0,0) entry is purely imaginary and
    the lower-right n x n block is skew-Hermitian; both are checked alongside
    the defining identity.  A stack is judged once, as for GroupElement.
    """

    matrix: np.ndarray
    dim_n: int
    tol: float = STRUCTURE_TOL

    def __post_init__(self):
        m = _readonly_matrix(self.matrix, self.dim_n)
        object.__setattr__(self, "matrix", m)
        block = m[..., 1:, 1:]
        res = np.maximum.reduce(
            [
                algebra_residual(m),
                np.abs(m[..., 0, 0].real),
                np.abs(np.swapaxes(block.conj(), -1, -2) + block).max(axis=(-2, -1)),
            ]
        )
        _judge_rows(
            res, self.tol, f"not in u(1,{self.dim_n}): residual {{:.3e}} > tol {self.tol:.1e}"
        )

    def scaled(self, t) -> np.ndarray:
        """t X; an array t broadcasts against the stack's leading axes."""
        return np.asarray(t, dtype=float)[..., None, None] * self.matrix


# Truncation order for the scaled Taylor series.  With the argument scaled to
# 1-norm <= 0.5, the first dropped term is bounded by 0.5^19/19! ~ 1.6e-23.
_EXP_ORDER = 18


def _squarings(norm1: float) -> int:
    """Halvings that bring a 1-norm to <= 0.5."""
    return int(math.ceil(math.log2(norm1 / 0.5))) if norm1 > 0.5 else 0


def matrix_exp(x: AlgebraElement, t=1.0) -> GroupElement:
    """exp(t X) by scaling and squaring with a degree-18 Taylor polynomial.

    x may be a stack (..., n+1, n+1) and t a float or an array broadcasting
    against the stack's leading axes; the result is the stack of
    exponentials, validated once as a GroupElement.  Each matrix keeps its
    own number of squarings: the stack is evaluated in groups of equal
    count, so every matrix gets the arithmetic of a call on it alone, bit
    for bit.  For ||t X|| <= 10 the group residual stays below 1e-10; a
    1-norm of t X beyond 2^1022 raises InputError.
    In the package, the generator-form orbit chart (one exponential per
    evaluation) and the two-path witness are its only callers (the tube_real
    lift has a closed form).
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise InputError("t must be finite")
    a = x.scaled(t)
    stack = a.reshape((-1,) + a.shape[-2:])
    norms = np.abs(stack).sum(axis=-2).max(axis=-1).tolist()
    # Beyond a 1-norm of 2^1022, 2.0**squarings overflows.
    too_large = "t X has 1-norm {:.3e}, too large to scale and square"
    _judge_rows(max(norms, default=0.0), 2.0**1022, too_large, InputError)
    counts = np.array([_squarings(v) for v in norms])
    eye = np.eye(a.shape[-1], dtype=complex)
    out = np.empty_like(stack)
    for squarings in np.unique(counts).tolist():
        rows = counts == squarings
        scaled = stack[rows] / (2.0**squarings)
        # Horner evaluation of sum_{m<=18} a^m / m!
        result = eye + scaled / _EXP_ORDER
        for m in range(_EXP_ORDER - 1, 0, -1):
            result = eye + (scaled @ result) / m
        for _ in range(squarings):
            result = result @ result
        out[rows] = result
    return GroupElement(out.reshape(a.shape), x.dim_n)
