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
from hopftwistor.sampling import random_stiefel


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
    h = horizontal_part(x, w)
    assert abs(real_form(h, w)) <= 1e-10
    assert abs(real_form(h, 1j * w)) <= 1e-10
    # idempotent on the horizontal subspace
    assert np.abs(horizontal_part(h, w) - h).max() <= 1e-12


def test_stacked_projections_equal_row_by_row(rng):
    for n in (2, 4, 6):
        w = random_stiefel(rng, n).u_minus
        raw = rng.standard_normal((6, n + 1)) + 1j * rng.standard_normal((6, n + 1))
        tangent = tangent_project_ads(raw, w)
        assert tangent.shape == raw.shape
        assert np.array_equal(tangent, [tangent_project_ads(x, w) for x in raw])
        flat = horizontal_part(tangent, w)
        assert np.array_equal(flat, [horizontal_part(x, w) for x in tangent])
        with pytest.raises(InputError):
            horizontal_part(np.vstack([tangent, w]), w)


def test_horizontal_part_rejects_non_tangent():
    w = np.array([1.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(InputError):
        horizontal_part(w, w)


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
    # the fiber itself projects to a point
    with pytest.raises(DegenerateCurveError):
        curve_curvature(lambda t: np.exp(1j * t) * canonical_pair.u_minus, 0.0)


def test_space_norm_on_horizontal(rng):
    p = random_stiefel(rng, 2)
    w = p.u_minus
    raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h = horizontal_part(tangent_project_ads(raw, w), w)
    assert space_norm(h) == pytest.approx(math.sqrt(real_form(h, h)))
