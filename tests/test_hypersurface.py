import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hopftwistor import (
    ExceptionalPairError,
    ImmersionError,
    InputError,
    StiefelPoint,
    build_patch,
    cluster_eigenvalues,
    horosphere,
    horosphere_defining_residual,
    pairing_residual,
    parallel_patch_residual,
    phi_project,
    real_form,
    shape_operator,
    structure_lift,
    tube_complex,
    tube_real,
    verify_hopf,
)
from hopftwistor.fibration import (
    FD_STEP,
    horizontal_part,
    space_norm,
    tangent_project_ads,
)
from hopftwistor.hypersurface import _point_report


def coth(x: float) -> float:
    return math.cosh(x) / math.sinh(x)


def test_tube_complex_input_gates():
    with pytest.raises(InputError):
        tube_complex(1, 0, 0.5)
    with pytest.raises(InputError):
        tube_complex(2, 2, 0.5)
    with pytest.raises(ImmersionError):
        tube_complex(2, 0, 0.0)


def test_tube_complex_center_spectrum():
    patch = tube_complex(2, 0, 0.5)
    sr = shape_operator(patch, patch.center)
    assert np.abs(sr.matrix - sr.matrix.T).max() <= 1e-5
    vals = sorted(np.linalg.eigvalsh(0.5 * (sr.matrix + sr.matrix.T)))
    want = sorted([-2.0 * coth(1.0), -coth(0.5), -coth(0.5)])
    assert np.abs(np.array(vals) - np.array(want)).max() <= 1e-5
    assert sr.min_singular >= 1e-6


def test_tube_complex_verify_certifies():
    patch = tube_complex(2, 0, 0.5)
    rep = verify_hopf(patch)
    assert rep.certified, rep.failures
    assert rep.mu == pytest.approx(-2.0 * coth(1.0), abs=1e-4)
    assert rep.mu_deviation <= 1e-4
    table = dict(rep.eigenvalues)
    assert len(table) == 2
    assert set(table.values()) == {1, 2}


def test_tube_real_certifies_and_pairs():
    patch = tube_real(2, 0.3)
    rep = verify_hopf(patch)
    assert rep.certified, rep.failures
    assert abs(rep.mu) == pytest.approx(2.0 * math.tanh(0.6), abs=1e-4)
    assert rep.pairing_residuals, "tube spectra must produce phi-pairs"
    assert max(rep.pairing_residuals) <= 1e-4
    assert rep.exceptional_pairs == 0


def test_tube_real_r_zero_degenerate():
    patch = tube_real(2, 0.0)
    assert patch.degenerate
    with pytest.raises(ImmersionError):
        shape_operator(patch, patch.center)


def test_horosphere_defining_relation():
    patch = horosphere(2, 0.4)
    for at in patch.grid(2):
        assert horosphere_defining_residual(patch.point(at), 0.4) <= 1e-12


def test_horosphere_spectrum_orientation():
    patch = horosphere(2, 0.0)
    rep = verify_hopf(patch)
    assert rep.certified, rep.failures
    assert rep.mu == pytest.approx(-2.0, abs=1e-4)
    flipped = dict(rep.eigenvalues_opposite)
    vals = sorted(flipped)
    assert vals[0] == pytest.approx(1.0, abs=1e-4)
    assert vals[1] == pytest.approx(2.0, abs=1e-4)
    assert flipped[vals[0]] == 2
    assert flipped[vals[1]] == 1


def test_build_patch_horizontality_gate(canonical_pair):
    e0, e1 = canonical_pair.u_minus, canonical_pair.u_plus

    def boost_span(q: np.ndarray) -> StiefelPoint:
        x = float(q[0])
        return StiefelPoint(
            math.cosh(x) * e0 + math.sinh(x) * e1,
            math.sinh(x) * e0 + math.cosh(x) * e1,
        )

    with pytest.raises(InputError):
        build_patch("plus", 0.5, boost_span, base_dim=1)
    patch = build_patch("minus", 0.5, boost_span, base_dim=1)
    assert patch.sign == "minus"


def test_structure_vector_phi_identities():
    patch = tube_complex(2, 0, 0.5)
    at = patch.center
    sr = shape_operator(patch, at)
    xi = structure_lift(patch, at)
    # the frame seed follows the curve direction: it is the structure vector
    assert abs(abs(real_form(sr.frame[0], xi)) - 1.0) <= 1e-6
    e1 = sr.frame[1]
    phi_e1 = phi_project(patch, at, e1)
    phi2 = phi_project(patch, at, phi_e1)
    assert np.abs(phi2 + e1).max() <= 1e-6
    assert abs(real_form(phi_e1, xi)) <= 1e-8


def test_pairing_residual_closed_form():
    mu = -2.0 * coth(1.0)
    lam = -math.tanh(0.5)
    lam_star = (lam * mu - 2.0) / (2.0 * lam - mu)
    assert pairing_residual(lam, lam_star, mu) <= 1e-15
    with pytest.raises(ExceptionalPairError):
        pairing_residual(1.0, 0.0, 2.0)


def test_cluster_eigenvalues_buckets():
    got = cluster_eigenvalues([1.0, 1.0001, 2.0], tol=5e-4)
    assert [(round(v, 6), m) for v, m in got] == [(1.00005, 2), (2.0, 1)]
    got = cluster_eigenvalues([3.0])
    assert got == [(3.0, 1)]


def test_grid_respects_cap():
    patch = tube_complex(3, 1, 0.4)
    pts = patch.grid(3, cap=50)
    assert len(pts) <= 50
    assert all(p.shape == (len(patch.param_names),) for p in pts)


def _product_grid(patch, density, cap):
    """Reference: every product point, then the evenly spaced subsample."""
    axes = [np.linspace(lo, hi, density) for lo, hi in patch.ranges]
    points = [np.array(p) for p in itertools.product(*axes)]
    if len(points) <= cap:
        return points
    keep = np.unique(np.round(np.linspace(0, len(points) - 1, cap)).astype(int))
    return [points[i] for i in keep]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grid_matches_product_reference(n):
    patches = [tube_complex(n, n - 1, 0.4), tube_real(n, 0.3), horosphere(n, 0.0)]
    for patch in patches:
        for density, cap in ((3, 81), (2, 4), (2, 10**6)):
            got = patch.grid(density, cap=cap)
            want = _product_grid(patch, density, cap)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


def test_grid_does_not_build_the_full_product():
    """At n = 6 the full product has 3^12 points; only the kept ones are built."""
    patch = horosphere(6, 0.0)
    tracemalloc.start()
    try:
        pts = patch.grid()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pts) == 81
    assert peak < 2**20


def _loop_pairings(patch, at):
    """Reference: the pairing of each principal curvature, one eigenvector
    and one scalar form evaluation at a time."""
    sr = shape_operator(patch, at)
    eigvals, eigvecs = np.linalg.eigh((sr.matrix + sr.matrix.T) / 2.0)
    mu = float(sr.matrix[0, 0])
    normal = patch.normal(at)
    xi_slot = int(np.argmax(np.abs(eigvecs[0, :])))
    out = []
    for idx in range(eigvals.size):
        lam = float(eigvals[idx])
        if idx == xi_slot or abs(2.0 * lam - mu) <= 1e-3:
            continue
        ix = 1j * sum(eigvecs[i, idx] * e for i, e in enumerate(sr.frame))
        phi_x = ix - real_form(ix, normal) * normal
        coords = np.array([real_form(phi_x, e) for e in sr.frame])
        lam_star = float(eigvals[int(np.argmax(np.abs(eigvecs.T @ coords)))])
        out.append(pairing_residual(lam, lam_star, mu))
    return out


@pytest.mark.parametrize("patch", [tube_complex(3, 1, 0.4), tube_real(3, 0.7)])
def test_pairings_match_the_per_eigenvector_loop(patch):
    for at in patch.grid(2, cap=6):
        got = _point_report(patch, at, FD_STEP, 1e-6)["pairings"]
        assert len(got) == 4
        assert got == _loop_pairings(patch, at)


def _loop_frame(patch, at, step=FD_STEP):
    """Reference: the column-by-column modified Gram-Schmidt loop, every
    column projected onto each accepted frame vector in turn."""
    psi0 = patch.point(at)
    columns = np.array(
        [
            (patch.eval_func(at + d) - patch.eval_func(at - d)) / (2 * step)
            for d in step * np.eye(at.size)
        ],
        dtype=complex,
    )
    projected = horizontal_part(tangent_project_ads(columns[1:], psi0), psi0, tol=1e-5)
    seed = projected[patch.t_index - 1]
    frame = [seed / space_norm(seed, psi0)]
    for k, vec in enumerate(projected, start=1):
        if k == patch.t_index:
            continue
        for e in frame:
            vec = vec - real_form(vec, e) * e
        norm = space_norm(vec, psi0)
        if norm >= 1e-8:
            frame.append(vec / norm)
    return np.array(frame)


@pytest.mark.parametrize(
    "family",
    [
        lambda n: tube_complex(n, n // 2, 0.6),
        lambda n: tube_real(n, 0.6),
        lambda n: horosphere(n, 0.6),
    ],
    ids=["plus", "minus", "zero"],
)
def test_frame_matches_the_column_by_column_sweep(family):
    for n in range(2, 7):
        patch = family(n)
        for at in patch.grid(2, cap=3):
            assert np.array_equal(shape_operator(patch, at).frame, _loop_frame(patch, at))


def _horosphere_lift(q: np.ndarray) -> StiefelPoint:
    """horosphere(2, r)'s lift, written out."""
    p = q[0::2] + 1j * q[1::2]
    a = float(np.vdot(p, p).real)
    um = np.array([1.0 + a / 2.0, a / 2.0, p[0]], dtype=complex)
    up = np.array([-1j * a / 2.0, 1j * (1.0 - a / 2.0), -1j * p[0]], dtype=complex)
    return StiefelPoint(um, up)


def test_redundant_coordinate_is_skipped_by_the_frame():
    # q1 is ignored: its column vanishes, the sweep skips it, and the other
    # columns give horosphere(2, 0.5)'s frame and matrix bit for bit.
    horo = horosphere(2, 0.5)
    redundant = build_patch(
        "zero", 0.5, lambda q: _horosphere_lift(q[[0, 2]]), base_dim=3
    )
    for at in ([0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.1, 0.05]):
        want = shape_operator(horo, np.array(at))
        got = shape_operator(redundant, np.array(at[:3] + [0.7] + at[3:]), rank_tol=0)
        assert got.frame.shape == (3, 3)
        assert np.array_equal(got.matrix, want.matrix)
        assert np.array_equal(got.frame, want.frame)


def test_single_coordinate_lift_collapses_the_frame():
    one = build_patch(
        "zero", 0.5, lambda q: _horosphere_lift(np.array([q[0], 0.0])), base_dim=2
    )
    with pytest.raises(ImmersionError, match="frame collapsed"):
        shape_operator(one, one.center, rank_tol=0)


def test_verify_hopf_flags_wrong_closed_form(canonical_pair):
    base = tube_complex(2, 0, 0.5)
    wrong = build_patch(
        "plus",
        0.5,
        lambda q: _tube_lift(q),
        base_dim=2,
        expected_mu=-3.0,
    )
    rep = verify_hopf(wrong, grid=[wrong.center])
    assert not rep.certified
    assert "mu" in rep.failures
    assert verify_hopf(base, grid=[base.center]).certified


def _tube_lift(q: np.ndarray) -> StiefelPoint:
    z = complex(q[0], q[1])
    um = np.array([math.sqrt(1.0 + abs(z) ** 2), z, 0.0], dtype=complex)
    up = np.array([0.0, 0.0, 1.0], dtype=complex)
    return StiefelPoint(um, up)


def test_parallel_patch_family():
    a = tube_complex(2, 0, 0.5)
    b = tube_complex(2, 0, 0.9)
    for at in [a.center, np.array([0.3, -0.2, 0.1, 0.05])]:
        assert parallel_patch_residual(a, b, 0.4, at) <= 1e-10
