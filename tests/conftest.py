import math

import numpy as np
import pytest

from hopftwistor import StiefelPoint
from hopftwistor.fibration import FD_STEP
from hopftwistor.hypersurface import _patch_from_lift, grid_key, pick_extra_eigenvalue
from hopftwistor.linalg import _PADE_COEFFS, _PADE_THETA, herm_form, real_form
from hopftwistor.twistor import horizontality_residual


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture
def canonical_pair():
    """The standard Stiefel point (e0, e1) in dimension n = 2."""
    um = np.array([1.0, 0.0, 0.0], dtype=complex)
    up = np.array([0.0, 1.0, 0.0], dtype=complex)
    return StiefelPoint(um, up)


def _loop_exp(a: np.ndarray) -> np.ndarray:
    """exp(a) for one matrix, as matrix_exp computes it one matrix per call:
    the degree m and the squarings s from its own 1-norm and the theta_m
    table, the diagonal Pade approximant r_m(2^-s a) = q^-1 p from the even
    powers of 2^-s a, then s squarings.  Unvalidated."""
    a = np.asarray(a, dtype=complex)
    norm1 = float(np.abs(a).sum(axis=0).max())
    degrees = [m for m, theta in _PADE_THETA if norm1 <= theta]
    m = degrees[0] if degrees else 13
    squarings = 0 if degrees else int(math.ceil(math.log2(norm1 / _PADE_THETA[-1][1])))
    a = a / (2.0**squarings)
    b = _PADE_COEFFS[m]
    eye = np.eye(a.shape[0], dtype=complex)
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        odd = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        odd = odd + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
        even = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        even = even + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    else:
        odd, even, power = b[1] * eye, b[0] * eye, a2
        for k in range(2, m, 2):
            odd = odd + b[k + 1] * power
            even = even + b[k] * power
            power = power @ a2
    u = a @ odd
    result = np.linalg.solve(even - u, even + u)
    for _ in range(squarings):
        result = result @ result
    return result


@pytest.fixture
def loop_exp():
    """The per-matrix exponential, the reference for stacked matrix_exp."""
    return _loop_exp


def _lift_residual(sign: str, lift, x: float, step: float = FD_STEP) -> float:
    """The horizontality residual of a one-parameter lift at x: one lift
    each at x, x + step and x - step (anything with u_minus and u_plus),
    their central difference, then horizontality_residual on a stack of
    one derivative."""
    here, plus, minus = (np.array([p.u_minus, p.u_plus]) for p in (lift(x), lift(x + step), lift(x - step)))
    (residual,) = horizontality_residual(sign, here, ((plus - minus) / (2.0 * step))[None])
    return residual


@pytest.fixture
def lift_residual():
    """The per-point lift differentiation and residual, the reference for
    the horizontality gate's stacked stencil."""
    return _lift_residual


def _sign_conditions(sign: str, here: np.ndarray, derivatives: np.ndarray) -> np.ndarray:
    """The largest defect of the sign's horizontality conditions, written out
    by hand, for each derivative (du_minus, du_plus) of a stack
    (..., m, 2, n+1) at the pairs here (..., 2, n+1).  With the coefficients

    du- = i alpha_minus u- + beta u+ + (rest orthogonal to u-, u+)
    du+ = conj(beta) u- + i alpha_plus u+ + (rest orthogonal to u-, u+)

    the conditions are
    plus:  beta = 0
    minus: alpha- = alpha+ and Im beta = 0
    zero:  alpha- - alpha+ = 2 Re beta and Im beta = 0
    """
    c = herm_form(derivatives[..., :, None, :], here[..., None, None, :, :])
    c_mm, c_mp, c_pp = c[..., 0, 0], c[..., 0, 1], c[..., 1, 1]
    if sign == "plus":
        return np.abs(c_mp)
    # alpha- - alpha+ = -Im c_mm - Im c_pp
    alpha_gap = -c_mm.imag - c_pp.imag
    if sign == "zero":
        alpha_gap = alpha_gap - 2.0 * c_mp.real
    return np.maximum(np.abs(alpha_gap), np.abs(c_mp.imag))


@pytest.fixture
def sign_conditions():
    """The hand-written horizontality conditions of each sign, the reference
    for the commutator residual."""
    return _sign_conditions


def _closed_form_coefficients(sign: str, r: float, t: float, row: int) -> np.ndarray:
    """The coefficients (c_minus, c_plus) on (u_minus, u_plus) at one float t
    of the model curve of the sign and radius (row 0), of its first and
    second t-derivatives (rows 1 and 2) or of its unit horizontal tangent
    (row 3), written out by hand per sign in scalar math."""
    ch, sh, er = math.cosh(r), math.sinh(r), math.exp(r)
    if sign == "plus":
        e, f = np.exp(1j * t), np.exp(-1j * t)
        rows = [[e * ch, f * sh], [1j * e * ch, -1j * f * sh], [-e * ch, -f * sh], [-1j * e * sh, -1j * f * ch]]
    elif sign == "minus":
        ct, st = math.cosh(t), math.sinh(t)
        curve = [ch * ct + 1j * sh * st, ch * st + 1j * sh * ct]
        rows = [curve, [ch * st + 1j * sh * ct, ch * ct + 1j * sh * st], curve, [ch * st - 1j * sh * ct, ch * ct - 1j * sh * st]]
    else:
        rows = [[ch + 1j * t * er, t * er + 1j * sh], [1j * er, er], [0.0, 0.0], [t * er - 1j * sh, ch - 1j * t * er]]
    return np.array(rows[row], dtype=complex)


@pytest.fixture
def closed_form_coefficients():
    """The per-sign closed forms of the model curves, their first two
    derivatives and their unit tangents, the reference for their evaluation
    as orbits of STRUCTURE."""
    return _closed_form_coefficients


def _pair_form(x: np.ndarray, y: np.ndarray) -> float:
    """The scalar product -<X_-, Y_-> + <X_+, Y_+> of two pairs, each a
    (2, n+1) array of rows (X_-, X_+)."""
    return -real_form(x[0], y[0]) + real_form(x[1], y[1])


@pytest.fixture
def pair_form():
    """The scalar product of pairs under which the frame is skew-adjoint."""
    return _pair_form


def _build_patch(sign: str, r: float, lift, base_dim: int):
    """A patch without closed forms from a lift of one base point
    (base_dim,) to a StiefelPoint, applied to each row of a stack."""

    def rows(q: np.ndarray) -> StiefelPoint:
        if q.ndim == 1:
            return lift(q)
        pairs = [lift(row) for row in q.reshape(-1, q.shape[-1])]
        shape = q.shape[:-1] + (-1,)
        return StiefelPoint(
            np.array([p.u_minus for p in pairs]).reshape(shape),
            np.array([p.u_plus for p in pairs]).reshape(shape),
        )

    return _patch_from_lift(sign, r, rows, base_dim, expected_mu=None, expected_spectrum=None)


@pytest.fixture
def build_patch():
    """The per-point patch builder, for lifts written one base point at a
    time."""
    return _build_patch


def _row_value(rep, name: str) -> float:
    """The value of the one check row of rep named name."""
    (value,) = [c["value"] for c in rep.checks if c["name"] == name]
    return value


@pytest.fixture
def row_value():
    """The value of a verifier row, read from the report's checks."""
    return _row_value


def _rho_values(rep, grid, lam_slot: int):
    """(lam, rho) at each point of the grid rep was measured on: lam is the
    chart coordinate lam_slot, rho the transverse eigenvalue of the point's
    sampled spectrum, as the one-parameter battery of the CLI picks it."""
    assert [gp for gp, _ in rep.samples] == [grid_key(at) for at in grid]
    return tuple(
        (float(at[lam_slot]), pick_extra_eigenvalue(eigs, 2.0))
        for at, (_, eigs) in zip(grid, rep.samples)
    )


@pytest.fixture
def rho_values():
    """The reference per-point transverse eigenvalues of an orbit report."""
    return _rho_values
