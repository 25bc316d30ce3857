import math

import numpy as np
import pytest

from hopftwistor import (
    AdSPoint,
    DegenerateCurveError,
    InputError,
    ValidationError,
    curve_curvature,
    horizontal_part,
    model_curve,
    real_form,
    space_norm,
    tangent_project_ads,
)
from hopftwistor.cli import DEFAULT_RADII
from hopftwistor.fibration import FD_STEP
from hopftwistor.sampling import random_stiefel
from hopftwistor.twistor import SIGNS


def coth(x: float) -> float:
    return math.cosh(x) / math.sinh(x)


def test_ads_point_validation():
    AdSPoint(np.array([1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(ValidationError):
        AdSPoint(np.array([1.0, 1.0, 0.0], dtype=complex))


def test_horizontal_part_properties(rng):
    p = random_stiefel(rng, 3)
    w = p.u_minus
    raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x = tangent_project_ads(raw, w)
    assert abs(real_form(x, w)) <= 1e-12
    h = horizontal_part(x, w, 1e-8)
    assert abs(real_form(h, w)) <= 1e-10
    assert abs(real_form(h, 1j * w)) <= 1e-10
    # idempotent on the horizontal subspace
    assert np.abs(horizontal_part(h, w, 1e-8) - h).max() <= 1e-12


def test_stacked_projections_equal_row_by_row(rng):
    for n in (2, 4, 6):
        w = random_stiefel(rng, n).u_minus
        raw = rng.standard_normal((6, n + 1)) + 1j * rng.standard_normal((6, n + 1))
        tangent = tangent_project_ads(raw, w)
        assert tangent.shape == raw.shape
        assert np.array_equal(tangent, [tangent_project_ads(x, w) for x in raw])
        flat = horizontal_part(tangent, w, 1e-8)
        assert np.array_equal(flat, [horizontal_part(x, w, 1e-8) for x in tangent])
        with pytest.raises(InputError):
            horizontal_part(np.vstack([tangent, w]), w, 1e-8)


def test_horizontal_part_rejects_non_tangent():
    w = np.array([1.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(InputError):
        horizontal_part(w, w, 1e-8)


def test_curvature_matches_closed_forms(canonical_pair):
    cases = [
        ("plus", 0.5, 2.0 * coth(1.0)),
        ("minus", 0.5, 2.0 * math.tanh(1.0)),
        ("zero", 0.5, 2.0),
    ]
    for sign, r, want in cases:
        curve = model_curve(sign, r, canonical_pair)
        for t in (-0.4, 0.0, 0.7):
            res = curve_curvature(curve, t)
            assert res.kappa == pytest.approx(want, abs=1e-5)
            assert res.residual <= 1e-5


def test_curvature_fiber_curve_degenerate(canonical_pair):
    # the fiber itself projects to a point; a curve takes an array of t
    with pytest.raises(DegenerateCurveError, match=r"at t = 0\.0: "):
        curve_curvature(lambda t: np.exp(1j * t)[..., None] * canonical_pair.u_minus, 0.0)


def test_space_norm_on_horizontal(rng):
    p = random_stiefel(rng, 2)
    w = p.u_minus
    raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h = horizontal_part(tangent_project_ads(raw, w), w, 1e-8)
    assert space_norm(h) == pytest.approx(math.sqrt(real_form(h, h)))
    stack = np.array([h, 2.0 * h, 0.0 * h])
    assert np.array_equal(space_norm(stack), [space_norm(x) for x in stack])


def _point_space_norm(x):
    return math.sqrt(max(real_form(x, x), 0.0))


def _point_curve_curvature(curve, t, step=FD_STEP):
    """Reference: curve_curvature as it was before it took stacks of t, at
    one float t with nested difference quotients."""

    def tangent_data(tau):
        c = curve(tau)
        dc = (curve(tau + step) - curve(tau - step)) / (2.0 * step)
        a = real_form(dc, 1j * c)
        return c, dc + a * (1j * c), a

    c0, hvel0, a0 = tangent_data(t)
    v = _point_space_norm(hvel0)
    assert v > 1e-10

    def unit_tangent(tau):
        _, hvel, _ = tangent_data(tau)
        return hvel / _point_space_norm(hvel)

    t0 = hvel0 / v
    dt_vec = (unit_tangent(t + step) - unit_tangent(t - step)) / (2.0 * step)
    deriv = (dt_vec + a0 * (1j * t0)) / v
    w = horizontal_part(tangent_project_ads(deriv, c0), c0, tol=1e-5)
    kappa = _point_space_norm(w)
    res_plus = _point_space_norm(w - kappa * (1j * t0))
    res_minus = _point_space_norm(w + kappa * (1j * t0))
    return kappa, res_plus if res_plus <= res_minus else res_minus


def test_stacked_curvature_equals_the_point_path(canonical_pair, rng):
    ts = np.linspace(-1.0, 1.0, 5)
    for base in (canonical_pair, random_stiefel(rng, 2)):
        for sign in SIGNS:
            for r in DEFAULT_RADII + (1e-9,):
                got = curve_curvature(model_curve(sign, r, base), ts)
                want = np.array([_point_curve_curvature(model_curve(sign, r, base), float(t)) for t in ts])
                assert np.array_equal(got.kappa, want[:, 0]), (sign, r)
                assert np.array_equal(got.residual, want[:, 1]), (sign, r)
                one = curve_curvature(model_curve(sign, r, base), float(ts[1]))
                assert (one.kappa, one.residual) == tuple(want[1]), (sign, r)
