import math

import mpmath
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
from hopftwistor.linalg import STRUCTURE_TOL, _PADE_THETA, _pade_plan
from hopftwistor.sampling import random_algebra, random_stiefel
from hopftwistor.twistor import StiefelPoint


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


def _relative_group_residual(g: np.ndarray) -> float:
    return group_residual(g) / max(1.0, float(np.abs(g).sum(axis=0).max()) ** 2)


def test_matrix_exp_never_returns_off_group(rng):
    """Far beyond the guaranteed range the result is on-group or rejected."""
    x = random_algebra(rng, 2, scale=1.0)
    try:
        g = matrix_exp(x, 40.0)
    except ValidationError:
        return
    assert _relative_group_residual(g.matrix) <= STRUCTURE_TOL


@pytest.mark.parametrize("scale", [16.0, 20.0])
def test_matrix_exp_output_is_a_group_element_at_large_norm(rng, scale):
    # |G* S G - S| grows like u ||G||^2 from forming G* S G alone; at 1-norm
    # 16 or 20, ||G||_1 reaches 5e4 and 8e5 in these draws, and GroupElement
    # judges the residual relative to ||G||_1^2, so matrix_exp accepts its
    # own output (an absolute 1e-10 would refuse 3 and 4 of the 10).
    for _ in range(10):
        g = matrix_exp(random_algebra(rng, 2, scale)).matrix
        assert _relative_group_residual(g) <= 100 * 2.0**-53


def _mp_expm(a: np.ndarray) -> np.ndarray:
    with mpmath.workdps(30):
        e = mpmath.expm(mpmath.matrix(a.tolist()))
        return np.array(e.tolist(), dtype=complex)


# Each degree's theta_m, just below and just above it (1.001 theta_13 takes
# one squaring), and degree 13 after 2 to 5 squarings.
_BRANCH_NORMS = [theta * f for _, theta in _PADE_THETA for f in (0.999, 1.001)]
_BRANCH_NORMS += [_PADE_THETA[-1][1] * 2.0**s * 0.9 for s in range(2, 6)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_matrix_exp_against_mpmath_on_every_degree_branch(rng, n):
    # The relative condition number of exp at a normal X is ||X||, so the
    # forward error is judged relative to max(1, ||X||_1) u ||exp X||_1;
    # measured up to 4.0 u over n = 1..6 and ||X||_1 <= 175.
    plans = set()
    for norm in _BRANCH_NORMS:
        x = random_algebra(rng, n, norm).matrix
        plans.add(_pade_plan(float(np.abs(x).sum(axis=0).max())))
        want = _mp_expm(x)
        err = np.abs(matrix_exp(AlgebraElement(x, n)).matrix - want).sum(axis=0).max()
        assert err <= 10 * 2.0**-53 * max(1.0, norm) * np.abs(want).sum(axis=0).max(), norm
    assert plans == {(3, 0), (5, 0), (7, 0), (9, 0)} | {(13, s) for s in range(6)}


def test_compose_with_inverse(rng):
    x = random_algebra(rng, 2)
    g = matrix_exp(x)
    h = matrix_exp(x, -1.0)
    prod = g.compose(h)
    assert np.abs(prod.matrix - np.eye(3)).max() <= 1e-11


def test_stacked_matrix_exp_equals_the_per_matrix_loop(rng, loop_exp):
    # A zero matrix and 1-norms up to 150, two of each, shuffled: every
    # degree and 0 to 5 squarings mixed in one stack, so every (m, s) group
    # is interleaved with the others.
    n = 6
    norms = [0.01, 0.2, 0.9, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 150.0] * 2
    mats = [np.zeros((n + 1, n + 1), dtype=complex)]
    mats += [random_algebra(rng, n, scale=v).matrix for v in norms]
    stack = np.array(mats)[rng.permutation(len(mats))]
    plans = {_pade_plan(float(np.abs(x).sum(axis=0).max())) for x in stack}
    assert plans == {(3, 0), (5, 0), (7, 0), (9, 0)} | {(13, s) for s in range(6)}
    want = np.array([loop_exp(x) for x in stack])
    assert np.array_equal(matrix_exp(AlgebraElement(stack, n)).matrix, want)
    grid = matrix_exp(AlgebraElement(stack.reshape((3, 7) + stack.shape[1:]), n))
    assert np.array_equal(grid.matrix.reshape(want.shape), want)
    # One element, a stack of parameters: exp(t_i X), t = 0 included.
    x = random_algebra(rng, n, scale=1.0)
    ts = np.array([0.0, -0.2, 0.7, 1.3, -2.6, 5.0, 9.0])
    got = matrix_exp(x, ts).matrix
    assert np.array_equal(got, np.array([loop_exp(float(t) * x.matrix) for t in ts]))
    assert np.array_equal(matrix_exp(x, 0.7).matrix, loop_exp(0.7 * x.matrix))


def _single_residual(cls, *args) -> float:
    with pytest.raises(ValidationError) as single:
        cls(*args)
    assert "stack row" not in str(single.value)
    return single.value.residual


def test_stack_validation_names_the_worst_row(rng):
    # Two perturbed rows: the stack fails on the worse one, with the residual
    # that row has on its own.
    n = 3
    xs = np.array([random_algebra(rng, n).matrix for _ in range(6)])
    AlgebraElement(xs, n)
    bad = xs.copy()
    bad[4, 1, 2] += 1e-6  # not skew-Hermitian
    bad[1, 2, 3] += 1e-8
    with pytest.raises(ValidationError, match=r"^not in u\(1,3\).* at stack row 4$") as exc:
        AlgebraElement(bad, n)
    assert exc.value.residual == _single_residual(AlgebraElement, bad[4], n)

    gs = matrix_exp(AlgebraElement(xs, n)).matrix
    GroupElement(gs, n)
    bad = gs.copy()
    bad[2] *= 1.0 + 1e-7  # not unitary for the form
    bad[5] *= 1.0 + 1e-9
    with pytest.raises(ValidationError, match=r"^not in U\(1,3\).* at stack row 2$") as exc:
        GroupElement(bad, n)
    assert exc.value.residual == _single_residual(GroupElement, bad[2], n)

    pairs = [random_stiefel(rng, n) for _ in range(5)]
    um = np.array([p.u_minus for p in pairs])
    up = np.array([p.u_plus for p in pairs])
    StiefelPoint(um, up)
    um[3] *= 1.001  # off the quadric
    um[0] *= 1.0 + 1e-6
    with pytest.raises(ValidationError, match=r"^not an orthonormal.* at stack row 3$") as exc:
        StiefelPoint(um, up)
    assert exc.value.residual == _single_residual(StiefelPoint, um[3], up[3])


def test_nan_residual_fails_and_is_named():
    from hopftwistor.fibration import AdSPoint
    from hopftwistor.linalg import _judge_rows

    _judge_rows(np.array([0.0, 1e-11]), 1e-10, "bad {:.3e}")
    with pytest.raises(ValidationError, match=r"^bad nan at stack row 1$"):
        _judge_rows(np.array([0.0, np.nan, 1.0]), 1e-10, "bad {:.3e}")
    with pytest.raises(ValidationError, match=r"^bad nan$"):
        _judge_rows(np.float64(np.nan), 1e-10, "bad {:.3e}")
    with pytest.raises(ValidationError, match=r"= nan$"):
        AdSPoint(np.array([np.nan, 0.0, 0.0], dtype=complex))
    um = np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]], dtype=complex)
    up = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex)
    with pytest.raises(ValidationError, match=r"^not an orthonormal.*nan at stack row 1$"):
        StiefelPoint(um, up)
    bad = np.zeros((2, 3, 3), dtype=complex)
    bad[1, 0, 0] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        GroupElement(bad, 2)
    assert math.isnan(group_residual(bad)[1])


def _gate_cases():
    """(trigger, error class, message template, residual) per residual gate
    of the package; residual None when only the message is pinned."""
    from hopftwistor import AdSPoint, GeneratorForm, horizontal_part
    from hopftwistor import generator, hypersurface, orbit_patch_from_form, tube_real
    from hopftwistor.twistor import horizontality_residual

    e = np.eye(3, dtype=complex)
    z2, z3 = np.zeros((2, 2)), np.zeros((2, 2, 2))

    def form(**kw):
        blocks = dict(alpha0=np.zeros(2), alpha1=np.zeros(2), x_form=z2, y0=z2, y1=z2, w1=z3, w2=z3)
        return GeneratorForm(**{**blocks, **kw})

    def bent_normal(monkeypatch):
        normal = generator._profile_normal
        monkeypatch.setattr(generator, "_profile_normal", lambda h, lam, p: normal(h, lam, p) + 1.0)
        orbit_patch_from_form(form(y0=np.eye(2), y1=np.eye(2)))

    def mis_signed_lift(monkeypatch):
        # tube_real's lift is horizontal for "minus", not for "zero".
        build = hypersurface._patch_from_lift
        monkeypatch.setattr(hypersurface, "_patch_from_lift", lambda _, *a, **kw: build("zero", *a, **kw))
        tube_real(2, 0.5)

    corner = np.array([[0.0, 2.0], [0.0, 0.0]])  # not symmetric, not alternating
    slices = np.array([corner, np.zeros((2, 2))])
    return {
        "AdSPoint": (
            lambda mp: AdSPoint(2.0 * e[0]),
            ValidationError,
            "not on the hyperquadric: |((w,w))+1| = {:.3e}",
            3.0,
        ),
        "alternating": (
            lambda mp: form(w1=slices),
            ValidationError,
            "rotation block is not alternating: residual {:.3e}",
            2.0,
        ),
        "symmetric": (
            lambda mp: form(w2=slices),
            ValidationError,
            "symmetric block is not symmetric: residual {:.3e}",
            2.0,
        ),
        "wedge": (
            lambda mp: form(y0=np.eye(2), y1=corner),
            ValidationError,
            "y-blocks violate the wedge constraint: residual {:.3e}",
            2.0,
        ),
        "connection": (
            lambda mp: horizontality_residual("plus", e[:2], np.array([[2.0 * e[0], 0.0 * e[0]]])),
            InputError,
            "lift leaves the Stiefel manifold: residual {:.3e}",
            2.0,
        ),
        "horizontality": (
            # The error names the worst base axis as its stack row.
            mis_signed_lift,
            InputError,
            "lift fails the 'zero' horizontality condition: residual {:.3e} at stack row 0",
            None,
        ),
        "horizontal_part": (
            # A stack is judged by its largest defect, without a row suffix.
            lambda mp: horizontal_part(np.array([0.0 * e[0], 2.0 * e[0]]), e[0], 1e-8),
            InputError,
            "not tangent to the hyperquadric: <X,w> = {:.3e}",
            2.0,
        ),
        "flatness": (
            # x(e_0) = y0(e_1) = (1, 0): 2 (x_0.y0_1 - x_1.y0_0) = 2.
            lambda mp: orbit_patch_from_form(form(x_form=np.diag([1.0, 0.0]), y0=corner / 2)),
            InputError,
            "form is not flat (residual {:.3e}); the product map is path dependent",
            2.0,
        ),
        "matrix-exp-norm": (
            # A boost with 1-norm 1e308 > 2^1022: its squarings overflow.
            lambda mp: matrix_exp(AlgebraElement(1e308 * (np.outer(e[0], e[1]) + np.outer(e[1], e[0])), 2)),
            InputError,
            "t X has 1-norm {:.3e}, too large to scale and square",
            1e308,
        ),
        "orbit-tangency": (
            bent_normal,
            InputError,
            "normal is not orthogonal to the chart directions (residual {:.3e}); "
            "the generator violates the tangency identity",
            None,
        ),
    }


@pytest.mark.parametrize("gate", sorted(_gate_cases()))
def test_every_residual_gate_raises_through_the_judge(gate, monkeypatch):
    trigger, error, template, residual = _gate_cases()[gate]
    with pytest.raises(error) as exc:
        trigger(monkeypatch)
    assert type(exc.value) is error
    assert type(exc.value.residual) is float
    assert str(exc.value) == template.format(exc.value.residual)
    if residual is None:
        assert exc.value.residual > 1e-6
    else:
        assert exc.value.residual == residual


@pytest.mark.parametrize("error", [ValidationError, InputError])
def test_a_single_nan_residual_fails_the_judge(error):
    from hopftwistor.linalg import _judge_rows

    for nan in (math.nan, np.float64(np.nan), np.array(np.nan)):
        with pytest.raises(error, match=r"^bad nan$") as exc:
            _judge_rows(nan, 1.0, "bad {:.3e}", error)
        assert type(exc.value.residual) is float and math.isnan(exc.value.residual)
    _judge_rows(1.0, 1.0, "bad {:.3e}", error)
    _judge_rows(np.array(0.5), 1.0, "bad {:.3e}", error)
