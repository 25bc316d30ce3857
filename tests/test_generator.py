import gc
import json
import math
import weakref

import numpy as np
import pytest

from hopftwistor import (
    ConfigError,
    GeneratorForm,
    ImmersionError,
    InputError,
    ValidationError,
    commutator_residual,
    extra_curvature,
    form_value,
    group_residual,
    matrix_exp,
    maurer_cartan_residual,
    orbit_patch_from_form,
    parse_constants,
    pick_extra_eigenvalue,
    shape_operator,
    two_path_residual,
    verify_hopf,
)
from hopftwistor import generator
from hopftwistor.cli import main
from hopftwistor.sampling import random_one_param


Z2 = np.zeros((2, 2))
Z3 = np.zeros((2, 2, 2))


def flat_form(**kw) -> GeneratorForm:
    base = dict(
        alpha0=np.zeros(2), alpha1=np.zeros(2), x_form=Z2,
        y0=Z2, y1=Z2, w1=Z3, w2=Z3,
    )
    base.update(kw)
    return GeneratorForm(**base)


def one_param(alpha0=0.0, alpha1=0.0, x=0.0, y0=0.0, y1=0.0, w=0.0) -> GeneratorForm:
    """The n = 2 (dim_g = 1) form of six one-parameter constants."""
    doc = dict(kind="one-param", alpha0=alpha0, alpha1=alpha1, x=x, y0=y0, y1=y1, w=w)
    return parse_constants(doc)


REFERENCE = one_param(0.0, 0.0, 1.0, 1.0, 0.0, 0.0)


def product_group_map(f: GeneratorForm, coords, flat_tol: float = 1e-9):
    """The ordered product exp(c_0 X_0) exp(c_1 X_1) ... of the form's basis
    values, for coordinates (..., dim_g): the orbit chart's group map as it
    was before it took one exponential, kept as its reference.  Refuses a
    form that is not flat, for which the product depends on the path."""
    generator._require_flat(f, flat_tol)
    coords = np.asarray(coords, dtype=float)
    if coords.shape[-1:] != (f.dim_g,):
        raise InputError(f"coordinates must have length {f.dim_g}")
    values = generator._basis_values(f)
    group = matrix_exp(values[0], coords[..., 0])
    for k, x in enumerate(values[1:], 1):
        group = group.compose(matrix_exp(x, coords[..., k]))
    return group


def test_form_validation_rejects_symmetric_w1():
    w1 = np.zeros((2, 2, 2))
    w1[0] = [[0.0, 1.0], [-1.0, 0.0]]
    flat_form(w1=w1)  # alternating slice passes
    w1 = w1.copy()
    w1[0, 0, 0] = 0.05  # symmetric contamination
    with pytest.raises(ValidationError):
        flat_form(w1=w1)


def test_form_validation_rejects_asymmetric_w2():
    w2 = np.zeros((2, 2, 2))
    w2[1] = [[0.0, 0.3], [-0.3, 0.0]]
    with pytest.raises(ValidationError):
        flat_form(w2=w2)


def test_form_validation_wedge_constraint():
    y0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    y1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    # y0(e0).y1(e1) = 1 but y0(e1).y1(e0) = 0
    with pytest.raises(ValidationError):
        flat_form(y0=y0, y1=y1)


def test_form_validation_shapes():
    with pytest.raises(InputError):
        GeneratorForm(
            alpha0=np.zeros(2), alpha1=np.zeros(3), x_form=Z2,
            y0=Z2, y1=Z2, w1=Z3, w2=Z3,
        )


def test_form_value_block_layout():
    f = flat_form(alpha0=np.array([1.0, 0.0]), x_form=np.eye(2))
    m = form_value(f, [1.0, 0.0]).matrix
    assert m[0, 0] == pytest.approx(1j)
    assert m[1, 1] == pytest.approx(0.0)
    assert m[0, 1] == pytest.approx(0.5j)
    assert m[1, 0] == pytest.approx(-0.5j)
    assert m[0, 2] == pytest.approx(1.0)  # x - i y0 on the first direction
    assert m[1, 2] == pytest.approx(-1.0)
    assert m[2, 0] == pytest.approx(1.0)
    assert m[2, 1] == pytest.approx(1.0)


def test_maurer_cartan_flat_examples():
    assert maurer_cartan_residual(flat_form(x_form=np.eye(2))) <= 1e-12
    assert maurer_cartan_residual(flat_form(y0=np.eye(2), y1=np.eye(2))) <= 1e-12


def test_maurer_cartan_bent_example():
    bent = flat_form(alpha0=np.array([1.0, 0.0]), x_form=np.eye(2))
    assert maurer_cartan_residual(bent) == pytest.approx(1.0, abs=1e-12)
    assert commutator_residual(bent) == pytest.approx(0.5, abs=1e-12)
    assert two_path_residual(bent) > 1e-3


def test_two_path_witness_flat():
    for f in (flat_form(x_form=np.eye(2)), flat_form(y0=np.eye(2), y1=np.eye(2))):
        assert two_path_residual(f) <= 1e-6


def test_product_group_map_needs_flat():
    flat = flat_form(x_form=np.eye(2))
    g = product_group_map(flat, [0.3, -0.2])
    assert group_residual(g.matrix) <= 1e-10
    bent = flat_form(alpha0=np.array([1.0, 0.0]), x_form=np.eye(2))
    with pytest.raises(InputError):
        product_group_map(bent, [0.3, -0.2])


def test_one_param_validation():
    with pytest.raises(ConfigError):
        parse_constants({"kind": "one-param", "x": 1.0, "w": float("nan")})
    with pytest.raises(InputError):
        GeneratorForm(
            alpha0=[float("nan")], alpha1=[0.0], x_form=[[1.0]],
            y0=[[0.0]], y1=[[0.0]], w1=np.zeros((1, 1, 1)), w2=np.zeros((1, 1, 1)),
        )


def test_product_group_map_dim_one_group_law():
    gen = REFERENCE
    a = product_group_map(gen, [0.4]).matrix
    b = product_group_map(gen, [0.9]).matrix
    c = product_group_map(gen, [1.3]).matrix
    assert np.abs(a @ b - c).max() <= 1e-11
    omega = form_value(gen, [1.0]).matrix
    assert omega.shape == (3, 3)


def test_extra_curvature_reference_values():
    assert extra_curvature(REFERENCE, 0.5) == pytest.approx(3.0 / 11.0, abs=1e-15)
    assert extra_curvature(REFERENCE, 1.0) == pytest.approx(0.6, abs=1e-15)
    assert extra_curvature(REFERENCE, 2.0) == pytest.approx(6.0 / 7.0, abs=1e-15)


def test_extra_curvature_horosphere_constant():
    gen = one_param(0.2, -0.1, 0.4, 0.7, 0.7, 0.5)
    assert gen.y0[0, 0] == gen.y1[0, 0]
    for lam in (0.5, 1.0, 2.0):
        assert extra_curvature(gen, lam) == pytest.approx(1.0, abs=1e-15)


def test_extra_curvature_degenerate_transverse():
    pure_x = one_param(x=1.0)
    with pytest.raises(ImmersionError):
        extra_curvature(pure_x, 1.0)


def test_pick_extra_eigenvalue():
    assert pick_extra_eigenvalue([2.0001, 1.0, 0.6], 2.0) == 0.6
    assert pick_extra_eigenvalue([2.0, 0.5, 1.5], 2.0) == 0.5
    assert pick_extra_eigenvalue([1.9999, 1.0, 1.0], 2.0) == 1.0


def test_orbit_patch_documented_degeneracy():
    gen = one_param(0.5, 0.5, 1.0, 0.0, 0.0, 0.5)
    with pytest.raises(ImmersionError):
        orbit_patch_from_form(gen)


def test_orbit_patch_certifies_reference(row_value, rho_values):
    patch = orbit_patch_from_form(REFERENCE)
    grid = [
        np.array([0.0, 0.0, 0.0, 0.5]),
        np.array([0.0, 0.0, 0.0, 1.0]),
        np.array([0.1, -0.2, 0.15, 1.0]),
    ]
    rep = verify_hopf(patch, grid)
    assert rep.certified, rep.failures
    assert rep.mu == pytest.approx(2.0, abs=1e-4)
    assert row_value(rep, "unit-multiplicity") >= patch.dim_n - 1
    for lam, rho in rho_values(rep, grid, lam_slot=3):
        assert rho == pytest.approx(extra_curvature(REFERENCE, lam), abs=1e-4)


def test_orbit_certification_is_pointwise():
    gen = random_one_param(np.random.default_rng(814))
    patch = orbit_patch_from_form(gen)
    grid = [
        np.array([0.0, 0.0, 0.0, 0.5]),
        np.array([0.0, 0.0, 0.0, 1.0]),
        np.array([0.0, 0.0, 0.0, 2.0]),
        np.array([0.1, -0.2, 0.15, 1.0]),
        np.array([-0.05, 0.1, -0.1, 0.8]),
    ]
    mus = [shape_operator(patch, at).matrix[0, 0] for at in grid]
    median_dev = abs(float(np.median(mus)) - 2.0)
    worst_dev = max(abs(m - 2.0) for m in mus)
    assert median_dev < worst_dev
    tol = 0.5 * (median_dev + worst_dev)
    rep = verify_hopf(patch, grid, tolerances={"mu": tol})
    assert not rep.certified
    assert rep.failures == ("mu",)
    (mu_row,) = [c for c in rep.checks if c["name"] == "mu"]
    assert mu_row["value"] == max(mus, key=lambda m: abs(m - 2.0))
    assert mu_row["value"] != rep.mu


def test_orbit_patch_from_form_flat_only():
    bent = flat_form(alpha0=np.array([1.0, 0.0]), x_form=np.eye(2))
    with pytest.raises(InputError):
        orbit_patch_from_form(bent)
    patch = orbit_patch_from_form(flat_form(y0=np.eye(2), y1=np.eye(2)))
    assert patch.dim_n == 3


def test_parse_constants_one_param():
    gen = parse_constants({"kind": "one-param", "x": 1.0, "y0": 1.0})
    assert isinstance(gen, GeneratorForm)
    assert (gen.dim_g, gen.dim_n) == (1, 2)
    assert gen.scalars() == (0.0, 0.0, 1.0, 1.0, 0.0, 0.0)


def test_parse_constants_rejections():
    with pytest.raises(ConfigError):
        parse_constants([1, 2, 3])
    with pytest.raises(ConfigError):
        parse_constants({"kind": "one-param", "bogus": 1.0})
    with pytest.raises(ConfigError):
        parse_constants({"kind": "one-param", "x": "big"})
    with pytest.raises(ConfigError):
        parse_constants({"kind": "one-param"})  # all zero
    with pytest.raises(ConfigError):
        parse_constants({"kind": "block-form", "alpha0": [0, 0]})
    w1 = [[[0.0, 1.0], [-1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    w1_bad = [[[0.1, 1.0], [-1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    doc = {
        "kind": "block-form",
        "alpha0": [0.0, 0.0],
        "alpha1": [0.0, 0.0],
        "x_form": [[1.0, 0.0], [0.0, 1.0]],
        "y0": [[0.0, 0.0], [0.0, 0.0]],
        "y1": [[0.0, 0.0], [0.0, 0.0]],
        "w1": w1,
        "w2": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    }
    assert isinstance(parse_constants(doc), GeneratorForm)
    doc_bad = dict(doc, w1=w1_bad)
    with pytest.raises(ConfigError):
        parse_constants(doc_bad)


def _point_orbit_chart(f, at, normal, loop_exp):
    """orbit_patch_from_form's chart map at one point: the sum of the
    coordinate images left to right, then one exponential."""
    nx = f.dim_g
    values = [form_value(f, e).matrix for e in np.eye(nx)]
    h, lam, c = at[1 + nx], at[2 + nx], at[3 + nx :]
    p = np.concatenate([[math.sqrt(1.0 - float(c @ c))], c])
    total = float(at[1]) * values[0]
    for x, coord in zip(values[1:], at[2 : 1 + nx]):
        total = total + float(coord) * x
    g = loop_exp(total)
    if normal:
        head = np.array([-lam * lam / 2.0 + 1j * h, lam * lam / 2.0 - 1.0 - 1j * h], dtype=complex)
        profile = np.concatenate([head, -lam * p.astype(complex)])
    else:
        head = np.array([1.0 + lam * lam / 2.0 - 1j * h, -lam * lam / 2.0 + 1j * h], dtype=complex)
        profile = np.concatenate([head, lam * p.astype(complex)])
    return np.exp(1j * at[0]) * (g @ profile)


def _flat_forms(rng, x_scale=0.0):
    """Flat forms at n = 3..6: y0 = y1 = Y with Y's 1-norm at 0.9 (n - 1), as
    in the largest benchmark draws, and x = x_scale Y (x^T Y is then
    symmetric, which keeps the form flat)."""
    forms = []
    for n in range(3, 7):
        y = rng.uniform(-1.0, 1.0, size=(n - 1, n - 1))
        y *= 0.9 * (n - 1) / np.abs(y).sum(axis=0).max()
        x = x_scale * y if x_scale else np.zeros_like(y)
        zeros = np.zeros((n - 1,) * 3)
        forms.append(
            GeneratorForm(
                alpha0=np.zeros(n - 1), alpha1=np.zeros(n - 1), x_form=x,
                y0=y, y1=y, w1=zeros, w2=zeros,
            )
        )
    return forms


def test_stacked_orbit_chart_equals_the_per_point_product(rng, loop_exp):
    # The stacks mix several squaring counts; a one-parameter draw is the
    # dim_g = 1 case.
    forms = [random_one_param(np.random.default_rng(7))] + _flat_forms(rng)
    for f in forms:
        patch = orbit_patch_from_form(f)
        lo, hi = np.array(patch.ranges).T
        points = np.array(patch.grid(2, cap=5) + list(rng.uniform(lo, hi, size=(20, lo.size))))
        for func, normal in ((patch.eval_func, False), (patch.normal_func, True)):
            want = np.array([_point_orbit_chart(f, at, normal, loop_exp) for at in points])
            assert np.array_equal(func(points), want)
            assert np.array_equal(func(points[3]), want[3])


# The single exponential and the ordered product round differently; over 800
# flat forms at n = 3..6 (x = c Y, c up to 2) they differed by at most 140
# u max|g|, and by at most 51 u max|g| on the forms below.
CHART_PRODUCT_MULTIPLE = 256


@pytest.mark.parametrize("x_scale", [0.0, 0.5, -1.3])
def test_orbit_chart_is_within_rounding_of_the_ordered_product(x_scale, rng):
    u = 2.0**-53
    for f in _flat_forms(rng, x_scale):
        assert maurer_cartan_residual(f) <= 1e-9
        coords = rng.uniform(-0.5001, 0.5001, size=(200, f.dim_g))
        got = generator._chart_group(generator._basis_values(f), coords).matrix
        want = product_group_map(f, coords).matrix
        scale = np.abs(want).max(axis=(-2, -1))
        assert np.all(np.abs(got - want).max(axis=(-2, -1)) <= CHART_PRODUCT_MULTIPLE * u * scale)


def _count_exponentials(monkeypatch):
    calls = []

    def counting(x, t=1.0):
        calls.append(x.matrix.shape)
        return matrix_exp(x, t)

    monkeypatch.setattr(generator, "matrix_exp", counting)
    return calls


def test_chart_takes_one_exponential_per_evaluation(rng, monkeypatch):
    calls = _count_exponentials(monkeypatch)
    forms = [random_one_param(np.random.default_rng(7))] + _flat_forms(rng)
    for f in forms:
        patch = orbit_patch_from_form(f)
        points = np.array(patch.grid(2, cap=6))
        for func in (patch.eval_func, patch.normal_func):
            for at in (points, points[2]):
                calls.clear()
                func(at)
                assert calls == [at.shape[:-1] + (f.dim_n + 1,) * 2], f.dim_g


@pytest.mark.parametrize("nan", [False, True], ids=["bent", "nan-residual"])
def test_non_flat_form_is_refused_before_any_chart(nan, rng, monkeypatch):
    calls = _count_exponentials(monkeypatch)
    patches = []
    monkeypatch.setattr(generator, "HypersurfacePatch", lambda **kw: patches.append(kw))
    forms = [flat_form(alpha0=np.array([1.0, 0.0]), x_form=np.eye(2))]
    if nan:
        forms = _flat_forms(rng)
        monkeypatch.setattr(generator, "maurer_cartan_residual", lambda f: math.nan)
    for f in forms:
        with pytest.raises(InputError, match=r"^form is not flat"):
            orbit_patch_from_form(f)
    assert calls == [] and patches == []


def _fresh_basis(f):
    return [form_value(f, e).matrix for e in np.eye(f.dim_g)]


def test_form_cache_returns_the_uncached_value(rng):
    forms = [
        flat_form(x_form=np.eye(2)),
        flat_form(alpha0=np.array([1.0, 0.0]), x_form=np.eye(2)),
        random_one_param(np.random.default_rng(7)),
    ]
    for n in (4, 6):
        y = rng.uniform(-1.0, 1.0, size=(n - 1, n - 1))
        w1 = rng.uniform(-1.0, 1.0, size=(n - 1,) * 3)
        forms.append(
            GeneratorForm(
                alpha0=rng.uniform(size=n - 1), alpha1=rng.uniform(size=n - 1),
                x_form=rng.uniform(size=(n - 1, n - 1)), y0=y, y1=y,
                w1=w1 - np.transpose(w1, (0, 2, 1)), w2=np.zeros((n - 1,) * 3),
            )
        )
    for f in forms:
        first = maurer_cartan_residual(f)
        assert first == generator._structure_residual(f)
        assert maurer_cartan_residual(f) == first
        basis = generator._basis_values(f)
        assert generator._basis_values(f) is basis
        for got, want in zip(basis, _fresh_basis(f), strict=True):
            assert np.array_equal(got.matrix, want)


def test_form_cache_goes_with_the_form():
    f = flat_form(x_form=np.eye(2))
    maurer_cartan_residual(f)
    generator._basis_values(f)
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def _count_form_values(monkeypatch):
    calls = []

    def counting(f, y):
        calls.append(1)
        return form_value(f, y)

    monkeypatch.setattr(generator, "form_value", counting)
    return calls


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cko_run_evaluates_the_form_once_per_direction(n, tmp_path, monkeypatch, rng):
    y = rng.uniform(-1.0, 1.0, size=(n - 1, n - 1))
    y *= 0.9 * (n - 1) / np.abs(y).sum(axis=0).max()
    zeros = np.zeros((n - 1, n - 1)).tolist()
    doc = {
        "kind": "block-form", "alpha0": [0.0] * (n - 1), "alpha1": [0.0] * (n - 1),
        "x_form": zeros, "y0": y.tolist(), "y1": y.tolist(),
        "w1": np.zeros((n - 1,) * 3).tolist(), "w2": np.zeros((n - 1,) * 3).tolist(),
    }
    path = tmp_path / "form.json"
    path.write_text(json.dumps(doc))
    calls = _count_form_values(monkeypatch)
    assert main(["cko-run", "--constants", str(path), "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == n - 1
    calls.clear()
    assert main(["cko-run", "--n", "2", "--seed", "5", "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1


def test_product_group_map_refuses_a_nan_flatness_residual(monkeypatch):
    monkeypatch.setattr(generator, "maurer_cartan_residual", lambda f: math.nan)
    with pytest.raises(InputError, match=r"^form is not flat \(residual nan\)"):
        product_group_map(flat_form(x_form=np.eye(2)), [0.3, -0.2])
