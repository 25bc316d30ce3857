import math
import types

import numpy as np
import pytest

from hopftwistor import (
    InputError,
    StiefelPoint,
    TangentPair,
    ValidationError,
    AdSPoint,
    model_curve,
    pair_form,
    para_apply,
    parallel_shift_residual,
    unit_tangent_lift,
)
from hopftwistor.cli import DEFAULT_RADII, PARALLEL_SHIFTS
from hopftwistor.linalg import herm_form
from hopftwistor.twistor import (
    HORIZONTAL_TOL,
    SIGNS,
    STRUCTURE,
    _tangent_coefficients,
    curve_coefficients,
    horizontality_residual,
)
from hopftwistor.sampling import random_stiefel, random_tangent_pair


def pairs_close(a, b, tol=1e-12):
    return (
        np.abs(a.x_minus - b.x_minus).max() <= tol
        and np.abs(a.x_plus - b.x_plus).max() <= tol
    )


def scaled(v, s):
    return type(v)(s * v.x_minus, s * v.x_plus, v.base)


def test_stiefel_validation(canonical_pair):
    with pytest.raises(ValidationError):
        StiefelPoint(canonical_pair.u_minus, 2.0 * canonical_pair.u_plus)
    with pytest.raises(InputError):
        StiefelPoint(canonical_pair.u_minus, np.zeros(4, dtype=complex))


def test_tangent_pair_validation(rng):
    p = random_stiefel(rng, 3)
    v = random_tangent_pair(rng, p)
    with pytest.raises(ValidationError):
        TangentPair(v.x_minus + p.u_plus, v.x_plus, p)
    with pytest.raises(InputError):
        TangentPair(v.x_minus, v.x_plus[:3], p)
    with pytest.raises(InputError):
        TangentPair(v.x_minus[:3], v.x_plus[:3], p)


def test_para_frame_multiplication_table(rng):
    """The nine split-quaternion products of the frame generators."""
    p = random_stiefel(rng, 3)
    v = random_tangent_pair(rng, p)
    i1 = lambda u: para_apply(1, u)
    i2 = lambda u: para_apply(2, u)
    i3 = lambda u: para_apply(3, u)
    assert pairs_close(i1(i1(v)), scaled(v, -1.0))
    assert pairs_close(i2(i2(v)), v)
    assert pairs_close(i3(i3(v)), v)
    assert pairs_close(i1(i2(v)), i3(v))
    assert pairs_close(i2(i1(v)), scaled(i3(v), -1.0))
    assert pairs_close(i2(i3(v)), scaled(i1(v), -1.0))
    assert pairs_close(i3(i2(v)), i1(v))
    assert pairs_close(i3(i1(v)), i2(v))
    assert pairs_close(i1(i3(v)), scaled(i2(v), -1.0))


def test_para_frame_skew_adjoint(rng):
    p = random_stiefel(rng, 2)
    v = random_tangent_pair(rng, p)
    w = random_tangent_pair(rng, p)
    for k in (1, 2, 3):
        lhs = pair_form(
            (para_apply(k, v).x_minus, para_apply(k, v).x_plus),
            (w.x_minus, w.x_plus),
        )
        rhs = pair_form(
            (v.x_minus, v.x_plus),
            (para_apply(k, w).x_minus, para_apply(k, w).x_plus),
        )
        assert abs(lhs + rhs) <= 1e-12


def test_para_apply_rejects_bad_index(rng):
    p = random_stiefel(rng, 2)
    v = random_tangent_pair(rng, p)
    with pytest.raises(InputError):
        para_apply(0, v)


def test_structures_square_to_minus_one_plus_one_and_zero():
    squares = {sign: STRUCTURE[sign] @ STRUCTURE[sign] for sign in SIGNS}
    assert np.array_equal(squares["plus"], -np.eye(2))
    assert np.array_equal(squares["minus"], np.eye(2))
    assert np.array_equal(squares["zero"], np.zeros((2, 2)))


def _structure_exp(sign: str, t: float) -> np.ndarray:
    """exp(t J) of the sign's structure in closed form, from J^2 = -1, +1, 0."""
    j = STRUCTURE[sign]
    if sign == "plus":
        return math.cos(t) * np.eye(2) + math.sin(t) * j
    if sign == "minus":
        return math.cosh(t) * np.eye(2) + math.sinh(t) * j
    return np.eye(2) + t * j


def test_model_curves_are_orbits_of_their_structure():
    """The coefficient column (c-, c+) of each model curve is exp(t J) of its
    value at t = 0: the curves are circles of the structure in the complex
    line of the pair."""
    for sign in SIGNS:
        for r in (-1.3, -0.2, 0.4, 2.0):
            start = np.array([math.cosh(r), (1.0 if sign == "plus" else 1j) * math.sinh(r)])
            for t in (-0.9, 0.0, 0.35, 1.1):
                want = _structure_exp(sign, t) @ start
                got = np.array(curve_coefficients(sign, r, t))
                assert np.abs(got - want).max() <= 4 * 2.0**-53 * np.abs(want).max(), (sign, r, t)


def test_model_curves_stay_on_quadric(canonical_pair):
    for sign in SIGNS:
        curve = model_curve(sign, 0.4, canonical_pair)
        for t in (-1.0, 0.0, 0.6):
            AdSPoint(curve(t))  # membership check inside


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
            c = model_curve(sign, 0.7, canonical_pair)(t)
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
    cm, cp = curve_coefficients(sign, r, t)
    tm, tp = _tangent_coefficients(sign, r, t)
    sm, sp = curve_coefficients(sign, r + r_prime, t)
    base, tangent, shifted = (am * p.u_minus + ap * p.u_plus for am, ap in ((cm, cp), (tm, tp), (sm, sp)))
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
