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
    is_horosphere_data,
    maurer_cartan_residual,
    orbit_patch_from_form,
    parse_constants,
    pick_extra_eigenvalue,
    product_group_map,
    shape_operator,
    two_path_residual,
    verify_hopf,
)
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
    assert is_horosphere_data(gen)
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


def test_orbit_patch_certifies_reference():
    patch = orbit_patch_from_form(REFERENCE)
    grid = [
        np.array([0.0, 0.0, 0.0, 0.5]),
        np.array([0.0, 0.0, 0.0, 1.0]),
        np.array([0.1, -0.2, 0.15, 1.0]),
    ]
    rep = verify_hopf(patch, grid)
    assert rep.certified, rep.failures
    assert rep.mu == pytest.approx(2.0, abs=1e-4)
    assert rep.unit_multiplicity >= patch.dim_n - 1
    for lam, rho in rep.rho_values:
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
    assert rep.failures == ("mu-pointwise",)
    (mu_row,) = [c for c in rep.checks if c["name"] == "mu"]
    assert mu_row["pass"]
    assert mu_row["value"] == rep.mu


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
