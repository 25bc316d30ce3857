import numpy as np
import pytest

from hopftwistor import (
    AlgebraElement,
    GroupElement,
    InputError,
    ValidationError,
    algebra_residual,
    group_residual,
    herm_form,
    matrix_exp,
    real_form,
    signature_matrix,
)
from hopftwistor.sampling import random_algebra


def expm_eig(m: np.ndarray) -> np.ndarray:
    """Independent oracle: exponential through the eigendecomposition."""
    vals, vecs = np.linalg.eig(m)
    return vecs @ np.diag(np.exp(vals)) @ np.linalg.inv(vecs)


def test_signature_matrix():
    s = signature_matrix(2)
    assert s.shape == (3, 3)
    assert np.array_equal(np.diag(s), [-1.0, 1.0, 1.0])
    assert np.count_nonzero(s - np.diag(np.diag(s))) == 0


def test_herm_form_linear_first_slot(rng):
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lam = 0.7 - 1.3j
    assert herm_form(lam * a, b) == pytest.approx(lam * herm_form(a, b))
    assert herm_form(a, lam * b) == pytest.approx(np.conj(lam) * herm_form(a, b))
    assert herm_form(a, b) == pytest.approx(np.conj(herm_form(b, a)))


def test_herm_form_signature():
    e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert herm_form(e0, e0) == pytest.approx(-1.0)
    assert herm_form(e1, e1) == pytest.approx(1.0)
    assert herm_form(e0, e1) == pytest.approx(0.0)


def _random_vectors(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("size", [3, 7, 13])
def test_stacked_forms_equal_the_per_vector_loop(rng, size):
    """Stacks broadcast over leading axes and reproduce every single-vector
    value bit for bit, Gram matrices included."""
    z = _random_vectors(rng, (5, size))
    w = _random_vectors(rng, (5, size))
    for form in (herm_form, real_form):
        rows = form(z, w)
        assert rows.shape == (5,)
        assert np.array_equal(rows, [form(a, b) for a, b in zip(z, w)])
        single = form(z, w[2])
        assert np.array_equal(single, [form(a, w[2]) for a in z])
    e = _random_vectors(rng, (4, size))
    gram = real_form(z[None], e[:, None])
    assert gram.shape == (4, 5)
    loop = np.array([[real_form(zj, ei) for zj in z] for ei in e])
    assert np.array_equal(gram, loop)
    stack3 = herm_form(z.reshape(5, 1, size), w.reshape(1, 5, size))
    assert np.array_equal(stack3, [[herm_form(a, b) for b in w] for a in z])


def test_form_shapes_and_return_types(rng):
    a = _random_vectors(rng, 4)
    b = _random_vectors(rng, 4)
    assert type(herm_form(a, b)) is complex
    assert type(real_form(a, b)) is float
    with pytest.raises(InputError):
        herm_form(a, b[:3])
    with pytest.raises(InputError):
        herm_form(_random_vectors(rng, (2, 4)), _random_vectors(rng, (2, 3)))
    with pytest.raises(InputError):
        herm_form(np.ones(1), np.ones(1))


def test_group_element_validation(rng):
    with pytest.raises(ValidationError):
        GroupElement(np.eye(3) * 2.0, 2)
    g = GroupElement(np.eye(3, dtype=complex), 2)
    assert group_residual(g.matrix) <= 1e-15
    with pytest.raises(InputError):
        GroupElement(np.eye(4, dtype=complex), 2)


def test_algebra_element_validation(rng):
    x = random_algebra(rng, 2)
    assert algebra_residual(x.matrix) <= 1e-12
    with pytest.raises(ValidationError):
        AlgebraElement(np.eye(3, dtype=complex), 2)


def test_matrix_exp_identity():
    x = AlgebraElement(np.zeros((3, 3), dtype=complex), 2)
    g = matrix_exp(x)
    assert np.allclose(g.matrix, np.eye(3), atol=1e-15)


def test_matrix_exp_against_eig_oracle(rng):
    for _ in range(20):
        x = random_algebra(rng, 3, scale=2.0)
        got = matrix_exp(x).matrix
        want = expm_eig(x.matrix)
        assert np.abs(got - want).max() <= 1e-9


def test_matrix_exp_one_parameter_law(rng):
    x = random_algebra(rng, 2, scale=1.5)
    a = matrix_exp(x, 0.6).matrix
    b = matrix_exp(x, 1.1).matrix
    c = matrix_exp(x, 1.7).matrix
    assert np.abs(a @ b - c).max() <= 1e-11
    inv = matrix_exp(x, -0.6).matrix
    assert np.abs(a @ inv - np.eye(3)).max() <= 1e-11


def test_matrix_exp_group_preservation_sweep(rng):
    """exp of an algebra element stays in the group up to ||tX|| = 10."""
    worst = 0.0
    for _ in range(25):
        x = random_algebra(rng, 2, scale=1.0)
        for t in (0.1, 1.0, 5.0, 10.0):
            g = matrix_exp(x, t)
            worst = max(worst, group_residual(g.matrix))
    assert worst <= 1e-10


def test_matrix_exp_never_returns_off_group(rng):
    """Far beyond the guaranteed range the result is on-group or rejected."""
    x = random_algebra(rng, 2, scale=1.0)
    try:
        g = matrix_exp(x, 40.0)
    except ValidationError:
        return
    assert group_residual(g.matrix) <= 1e-10


def test_compose_and_apply(rng):
    x = random_algebra(rng, 2)
    g = matrix_exp(x)
    h = matrix_exp(x, -1.0)
    prod = g.compose(h)
    assert np.abs(prod.matrix - np.eye(3)).max() <= 1e-11
    v = np.array([2.0, 1.0, 0.5], dtype=complex)
    assert np.allclose(g.apply(v), g.matrix @ v)
