import numpy as np

from hopftwistor import herm_form
from hopftwistor.generator import extra_curvature
from hopftwistor.sampling import (
    random_algebra,
    random_one_param,
    random_stiefel,
)


def test_random_stiefel_constraints(rng):
    for n in (2, 3, 5):
        p = random_stiefel(rng, n)
        assert abs(herm_form(p.u_minus, p.u_minus) + 1.0) <= 1e-10
        assert abs(herm_form(p.u_plus, p.u_plus) - 1.0) <= 1e-10
        assert abs(herm_form(p.u_minus, p.u_plus)) <= 1e-10


def test_random_algebra_scale(rng):
    x = random_algebra(rng, 2, scale=2.5)
    norm1 = float(np.abs(x.matrix).sum(axis=0).max())
    assert norm1 == 2.5 or abs(norm1 - 2.5) <= 1e-12


def test_random_one_param_avoids_degeneracies(rng):
    for _ in range(10):
        gen = random_one_param(rng)
        # the transverse curvature must be defined on the working heights
        for lam in (0.5, 1.0, 2.0):
            rho = extra_curvature(gen, lam)
            assert np.isfinite(rho)


def test_random_one_param_horosphere_flag(rng):
    gen = random_one_param(rng, horosphere=True)
    assert gen.y0[0, 0] == gen.y1[0, 0]
    assert extra_curvature(gen, 1.3) == 1.0


def test_random_draws_are_seed_deterministic():
    a = random_one_param(np.random.default_rng(11)).scalars()
    b = random_one_param(np.random.default_rng(11)).scalars()
    assert a == b
