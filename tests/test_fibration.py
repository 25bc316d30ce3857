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
        for t in (-0.4, 0.0, 0.7):
            res = curve_curvature(model_curve(sign, r, canonical_pair, t), t)
            assert res.kappa == pytest.approx(want, abs=1e-5)
            assert res.residual <= 1e-5


@pytest.mark.parametrize("sign", SIGNS)
def test_exact_curvature_error_grows_like_u_e_2r(sign, rng):
    """From exact derivatives, kappa and the circle residual are off the
    closed form by rounding alone: pairing vectors of size e^|r| loses
    about u e^{2|r|}, at most 20 times that measured over these radii, so
    100 u e^{2|r|} bounds them.  This pins the zero family at negative r
    (r = -3 read kappa = 1.965 with the nested stencils)."""
    ts = np.linspace(-1.0, 1.0, 5)
    bases = [random_stiefel(rng, 2) for _ in range(3)]
    for r in (-10.0, -5.0, -3.0, -2.0, 0.7, 2.5, 5.0, 10.0):
        want = {"plus": abs(2.0 / math.tanh(2.0 * r)), "minus": abs(2.0 * math.tanh(2.0 * r)), "zero": 2.0}[sign]
        bound = 100 * 2.0**-53 * math.exp(2.0 * abs(r))
        for base in bases:
            res = curve_curvature(model_curve(sign, r, base, ts), ts)
            assert np.abs(res.kappa - want).max() <= bound, (sign, r)
            assert res.residual.max() <= bound, (sign, r)


def test_curvature_fiber_curve_degenerate(canonical_pair):
    # the fiber e^{it} u_- itself projects to a point: c, c' = ic, c'' = -c at t = 0
    c = canonical_pair.u_minus
    with pytest.raises(DegenerateCurveError, match=r"at t = 0\.0: "):
        curve_curvature(np.array([c, 1j * c, -c]), 0.0)


def test_space_norm_on_horizontal(rng):
    p = random_stiefel(rng, 2)
    w = p.u_minus
    raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h = horizontal_part(tangent_project_ads(raw, w), w, 1e-8)
    assert space_norm(h) == pytest.approx(math.sqrt(real_form(h, h)))
    stack = np.array([h, 2.0 * h, 0.0 * h])
    assert np.array_equal(space_norm(stack), [space_norm(x) for x in stack])


def test_stacked_curvature_equals_the_point_path(canonical_pair, rng):
    # Each value of a stack of t has the bits of the call on its t alone.
    ts = np.linspace(-1.0, 1.0, 5)
    for base in (canonical_pair, random_stiefel(rng, 2)):
        for sign in SIGNS:
            for r in DEFAULT_RADII + (1e-9,):
                got = curve_curvature(model_curve(sign, r, base, ts), ts)
                want = np.array([curve_curvature(model_curve(sign, r, base, float(t)), float(t)) for t in ts])
                assert np.array_equal(got.kappa, want[:, 0]), (sign, r)
                assert np.array_equal(got.residual, want[:, 1]), (sign, r)
