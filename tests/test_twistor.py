import functools
import math
import types

import numpy as np
import pytest

from hopftwistor import (
    InputError,
    StiefelPoint,
    ValidationError,
    AdSPoint,
    model_curve,
    parallel_shift_residual,
    unit_tangent_lift,
)
from hopftwistor.cli import DEFAULT_RADII, PARALLEL_SHIFTS
from hopftwistor.linalg import herm_form
from hopftwistor.twistor import (
    FRAME,
    HORIZONTAL_TOL,
    SIGNS,
    STRUCTURE,
    horizontality_residual,
)
from hopftwistor.sampling import random_stiefel


def frame_apply(k: int, x: np.ndarray) -> np.ndarray:
    """The k-th frame generator acting on a (2, n+1) pair from the right,
    (X-, X+) -> (X-, X+) FRAME[k-1]."""
    return FRAME[k - 1].T @ x


def pairs_close(a, b, tol=1e-12):
    return np.abs(a - b).max() <= tol


def random_pair(rng, n: int) -> np.ndarray:
    """A random pair (X-, X+) of vectors of C^{n+1}, as a (2, n+1) array."""
    return rng.standard_normal((2, n + 1)) + 1j * rng.standard_normal((2, n + 1))


def test_stiefel_validation(canonical_pair):
    with pytest.raises(ValidationError):
        StiefelPoint(canonical_pair.u_minus, 2.0 * canonical_pair.u_plus)
    with pytest.raises(InputError):
        StiefelPoint(canonical_pair.u_minus, np.zeros(4, dtype=complex))


def test_para_frame_multiplication_table(rng):
    """The nine split-quaternion products of the frame generators."""
    v = random_pair(rng, 3)
    i1, i2, i3 = (functools.partial(frame_apply, k) for k in (1, 2, 3))
    assert pairs_close(i1(i1(v)), -v)
    assert pairs_close(i2(i2(v)), v)
    assert pairs_close(i3(i3(v)), v)
    assert pairs_close(i1(i2(v)), i3(v))
    assert pairs_close(i2(i1(v)), -i3(v))
    assert pairs_close(i2(i3(v)), -i1(v))
    assert pairs_close(i3(i2(v)), i1(v))
    assert pairs_close(i3(i1(v)), i2(v))
    assert pairs_close(i1(i3(v)), -i2(v))


def test_para_frame_skew_adjoint(rng, pair_form):
    v, w = random_pair(rng, 2), random_pair(rng, 2)
    for k in (1, 2, 3):
        assert abs(pair_form(frame_apply(k, v), w) + pair_form(v, frame_apply(k, w))) <= 1e-12


def test_structures_square_to_minus_one_plus_one_and_zero():
    squares = {sign: STRUCTURE[sign] @ STRUCTURE[sign] for sign in SIGNS}
    assert np.array_equal(squares["plus"], -np.eye(2))
    assert np.array_equal(squares["minus"], np.eye(2))
    assert np.array_equal(squares["zero"], np.zeros((2, 2)))


def test_model_curves_are_orbits_of_their_structure(canonical_pair, closed_form_coefficients):
    """The model curves, their first two derivatives and their unit
    tangents, evaluated as orbits of their start rows under exp(t J) of the
    sign's structure, are the per-sign closed forms to within 4u (3.0u
    measured) relative to the larger of the value and cosh r, the size of the
    start row: the curves are circles of the structure in the complex line of
    the pair.  cosh r bounds every curve and tangent row from below; it is
    larger than the zero curve's derivative row, e^r (i, 1), whose start row
    is the rounded sum cosh r + sinh r.  Against the pair (e0, e1) the curve's
    first two coordinates are its coefficients."""
    for sign in SIGNS:
        for r in np.linspace(-5.0, 5.0, 41):
            for t in np.linspace(-1.2, 1.2, 25):
                got = dict(enumerate(model_curve(sign, r, canonical_pair, t)))
                if sign != "plus" or r != 0.0:
                    got[3] = unit_tangent_lift(sign, r, canonical_pair, t)
                for row, vec in got.items():
                    want = closed_form_coefficients(sign, r, t, row)
                    bound = 4 * 2.0**-53 * max(np.abs(want).max(), math.cosh(r))
                    assert np.abs(vec[:2] - want).max() <= bound, (sign, r, t, row)


@pytest.mark.parametrize("sign", SIGNS)
def test_a_stack_of_t_has_the_bits_of_each_t_alone(sign, rng):
    """Each row of a stacked model curve (with its derivatives) or unit
    tangent is bitwise the call on its t alone, at every stack length 1-33
    and for a strided t (a column of chart points, as the classical charts
    pass it)."""
    p = random_stiefel(rng, 2)
    columns = rng.uniform(-1.2, 1.2, size=(33, 3))
    stacks = [columns[:m, 0].copy() for m in range(1, 34)] + [columns[:, 1], columns[::2, 2]]
    for ts in stacks:
        want = np.stack([model_curve(sign, 0.7, p, float(t)) for t in ts], axis=1)
        assert np.array_equal(model_curve(sign, 0.7, p, ts), want), len(ts)
        tangents = unit_tangent_lift(sign, 0.7, p, ts)
        assert np.array_equal(tangents, [unit_tangent_lift(sign, 0.7, p, float(t)) for t in ts]), len(ts)


def test_model_curves_stay_on_quadric(canonical_pair):
    for sign in SIGNS:
        for t in (-1.0, 0.0, 0.6):
            AdSPoint(model_curve(sign, 0.4, canonical_pair, t)[0])  # membership check inside


def test_horizontality_residual_separates_the_signs(canonical_pair, lift_residual):
    """Boost lifts are 'minus'-horizontal, phase lifts 'plus'-horizontal,
    and neither is horizontal for another sign."""
    e0, e1 = canonical_pair.u_minus, canonical_pair.u_plus

    def boost(x: float) -> StiefelPoint:
        return StiefelPoint(
            np.cosh(x) * e0 + np.sinh(x) * e1,
            np.sinh(x) * e0 + np.cosh(x) * e1,
        )

    def phase(x: float) -> StiefelPoint:
        return StiefelPoint(np.exp(1j * x) * e0, np.exp(-1j * x) * e1)

    for lift, own in ((boost, "minus"), (phase, "plus")):
        for sign in SIGNS:
            residual = lift_residual(sign, lift, 0.0)
            assert (residual <= HORIZONTAL_TOL) == (sign == own), (own, sign, residual)


def _connection_derivatives(rng, p: StiefelPoint, omega: np.ndarray) -> np.ndarray:
    """Derivatives (du-, du+) = (u-, u+) omega + rest, one per connection of
    a stack omega (m, 2, 2), with a random rest orthogonal to u- and u+."""
    frame = np.array([p.u_minus, p.u_plus])
    shape = omega.shape[:-1] + frame.shape[-1:]
    rest = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rest = rest - (np.array([-1.0, 1.0]) * herm_form(rest[..., None, :], frame)) @ frame
    return omega.mT @ frame + rest


def test_horizontality_residual_keeps_the_zeros_of_the_sign_conditions(rng, sign_conditions):
    """On random u(1,1) connections the commutator residual lies within a
    factor 2 of the hand-written conditions; on the connections x iI + y J
    of each structure J, which commute with J alone, both vanish for the
    same signs."""
    p = random_stiefel(rng, 3)
    here = np.array([p.u_minus, p.u_plus])
    a, d, x, y = rng.normal(size=(4, 200, 1, 1))
    b = rng.normal(size=(200, 1, 1)) + 1j * rng.normal(size=(200, 1, 1))
    generic = np.block([[1j * a, np.conj(b)], [b, 1j * d]])
    for sign in SIGNS:
        derivatives = _connection_derivatives(rng, p, generic)
        new, old = horizontality_residual(sign, here, derivatives), sign_conditions(sign, here, derivatives)
        assert np.all(old > 1e-12), sign
        assert np.all((new >= 0.5 * old) & (new <= 2.0 * old)), sign
        for own in SIGNS:
            derivatives = _connection_derivatives(rng, p, 1j * x * np.eye(2) + y * STRUCTURE[own])
            new = horizontality_residual(sign, here, derivatives)
            old = sign_conditions(sign, here, derivatives)
            assert np.array_equal(new <= 1e-12, old <= 1e-12), (sign, own)
            assert np.array_equal(new <= 1e-12, np.full(200, sign == own)), (sign, own)


def test_horizontality_residual_keeps_the_stack_shape(canonical_pair):
    here = np.array([canonical_pair.u_minus, canonical_pair.u_plus])
    derivatives = np.zeros((4, 3, 2, 3), dtype=complex)
    derivatives[..., 0, 2] = 1.0  # du- along e2: every coefficient vanishes
    # beta = 0.5i on one row: du- gains beta u+ and du+ gains conj(beta) u-.
    derivatives[1, 2, 0, 1], derivatives[1, 2, 1, 0] = 0.5j, -0.5j
    for sign in SIGNS:
        residual = horizontality_residual(sign, here, derivatives)
        assert residual.shape == (4, 3)
        want = np.zeros((4, 3))
        want[1, 2] = 0.5
        assert np.array_equal(residual, want)


def test_unit_tangent_lift_is_unit(canonical_pair):
    for sign in SIGNS:
        for t in (-0.5, 0.3):
            c = model_curve(sign, 0.7, canonical_pair, t)[0]
            tv = unit_tangent_lift(sign, 0.7, canonical_pair, t)
            from hopftwistor import real_form
            assert real_form(tv, tv) == pytest.approx(1.0, abs=1e-12)
            assert abs(real_form(tv, c)) <= 1e-12
            assert abs(real_form(tv, 1j * c)) <= 1e-12


def test_parallel_shift_identity(canonical_pair):
    worst = 0.0
    for sign in SIGNS:
        for r in (-0.6, 0.2, 0.9):
            for rp in (-0.5, 0.3):
                for t in (-0.8, 0.0, 0.4):
                    if sign == "plus" and abs(r) < 1e-14:
                        continue
                    worst = max(
                        worst,
                        parallel_shift_residual(sign, r, rp, canonical_pair, t),
                    )
    assert worst <= 1e-10


def _point_parallel_shift_residual(sign, r, r_prime, p, t):
    """Reference: parallel_shift_residual as it was before it took stacks of
    t, at one float t."""
    base, shifted = model_curve(sign, r, p, t)[0], model_curve(sign, r + r_prime, p, t)[0]
    tangent = unit_tangent_lift(sign, r, p, t)
    diff = math.cosh(r_prime) * base + math.sinh(r_prime) * (1j * tangent) - shifted
    return float(np.linalg.norm(diff))


def test_stacked_parallel_shift_residual_equals_the_point_path(canonical_pair, rng):
    ts = np.linspace(-1.0, 1.0, 5)
    for base in (canonical_pair, random_stiefel(rng, 2)):
        for sign in SIGNS:
            for r in DEFAULT_RADII + (1e-9,):
                tangents = unit_tangent_lift(sign, r, base, ts)
                assert np.array_equal(tangents, [unit_tangent_lift(sign, r, base, float(t)) for t in ts])
                for rp in PARALLEL_SHIFTS:
                    want = [_point_parallel_shift_residual(sign, r, rp, base, float(t)) for t in ts]
                    assert np.array_equal(parallel_shift_residual(sign, r, rp, base, ts), want), (sign, r, rp)
                    assert parallel_shift_residual(sign, r, rp, base, float(ts[3])) == want[3]


def test_lift_coefficients_refuse_a_nan_reconstruction(canonical_pair, lift_residual):
    nan_pair = types.SimpleNamespace(u_minus=np.full(3, np.nan, dtype=complex), u_plus=canonical_pair.u_plus)
    with pytest.raises(InputError, match=r"leaves the Stiefel manifold: residual nan$"):
        lift_residual("plus", lambda x: nan_pair if x > 0 else canonical_pair, 0.0)


def test_lift_coefficients_refuse_a_nan_in_the_spacelike_derivative(canonical_pair, lift_residual):
    # A NaN in du+ alone makes c_pp and c_pm NaN while c_mm stays finite; the
    # gate must still fail, whichever coefficient carries the NaN.
    nan_pair = types.SimpleNamespace(u_minus=canonical_pair.u_minus, u_plus=np.full(3, np.nan, dtype=complex))
    with pytest.raises(InputError, match=r"leaves the Stiefel manifold: residual nan$"):
        lift_residual("plus", lambda x: nan_pair if x > 0 else canonical_pair, 0.0)
