import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from hopftwistor import (
    ExceptionalPairError,
    ImmersionError,
    InputError,
    StiefelPoint,
    ValidationError,
    cluster_eigenvalues,
    horosphere,
    horosphere_defining_residual,
    pairing_residual,
    real_form,
    shape_operator,
    tube_complex,
    tube_real,
    verify_hopf,
)
from hopftwistor import hypersurface
from hopftwistor.fibration import (
    FD_STEP,
    AdSPoint,
    _central_differences,
    horizontal_part,
    space_norm,
    tangent_project_ads,
)
from hopftwistor.generator import GeneratorForm, orbit_patch_from_form
from hopftwistor.hypersurface import _point_report, _realify, grid_key
from hopftwistor.linalg import GroupElement
from hopftwistor.sampling import random_one_param
from hopftwistor.twistor import SIGNS, model_curve, unit_tangent_lift


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


def test_tube_complex_verify_certifies(row_value):
    patch = tube_complex(2, 0, 0.5)
    rep = verify_hopf(patch)
    assert rep.certified, rep.failures
    assert rep.mu == pytest.approx(-2.0 * coth(1.0), abs=1e-4)
    assert row_value(rep, "mu-constancy") <= 1e-4
    table = dict(rep.eigenvalues)
    assert len(table) == 2
    assert set(table.values()) == {1, 2}


def test_tube_real_certifies_and_pairs(row_value):
    patch = tube_real(2, 0.3)
    rep = verify_hopf(patch)
    assert rep.certified, rep.failures
    assert abs(rep.mu) == pytest.approx(2.0 * math.tanh(0.6), abs=1e-4)
    # The pairing-max row exists exactly when the tube produced phi-pairs.
    assert row_value(rep, "pairing-max") <= 1e-4
    assert rep.exceptional_pairs == 0


def test_tube_real_r_zero_degenerate():
    with pytest.raises(ImmersionError):
        tube_real(2, 0.0)


def test_horosphere_defining_relation():
    patch = horosphere(2, 0.4)
    for at in patch.grid(2):
        assert horosphere_defining_residual(patch.eval_func(at), 0.4) <= 1e-12


def test_horosphere_spectrum_orientation():
    patch = horosphere(2, 0.0)
    rep = verify_hopf(patch)
    assert rep.certified, rep.failures
    assert rep.mu == pytest.approx(-2.0, abs=1e-4)
    flipped = {-v: m for v, m in rep.eigenvalues}
    vals = sorted(flipped)
    assert vals[0] == pytest.approx(1.0, abs=1e-4)
    assert vals[1] == pytest.approx(2.0, abs=1e-4)
    assert flipped[vals[0]] == 2
    assert flipped[vals[1]] == 1


def test_build_patch_horizontality_gate(canonical_pair, build_patch):
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


def test_frame_seed_is_the_structure_vector():
    patch = tube_complex(2, 0, 0.5)
    at = patch.center
    sr = shape_operator(patch, at)
    xi = -1j * patch.normal_func(at)
    # the frame seed follows the curve direction: it is the structure vector
    assert abs(abs(real_form(sr.frame[0], xi)) - 1.0) <= 1e-6


def test_pairing_residual_closed_form():
    mu = -2.0 * coth(1.0)
    lam = -math.tanh(0.5)
    lam_star = (lam * mu - 2.0) / (2.0 * lam - mu)
    assert pairing_residual(lam, lam_star, mu) <= 1e-15
    with pytest.raises(ExceptionalPairError):
        pairing_residual(1.0, 0.0, 2.0)


def test_cluster_eigenvalues_buckets():
    got = cluster_eigenvalues([1.0, 1.0001, 2.0])
    assert [(round(v, 6), m) for v, m in got] == [(1.00005, 2), (2.0, 1)]
    got = cluster_eigenvalues([3.0])
    assert got == [(3.0, 1)]


def test_grid_respects_cap():
    patch = tube_complex(3, 1, 0.4)
    pts = patch.grid(3, cap=50)
    assert len(pts) <= 50
    assert all(p.shape == (len(patch.ranges),) for p in pts)


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


def test_grid_clips_its_last_index_above_2_53():
    """9742^4 > 2^53: in floating point the last spaced index rounds up to
    the point count; it is clipped to the last point."""
    patch = horosphere(2, 0.0)
    pts = patch.grid(9742)
    assert len(pts) == 81
    assert np.array_equal(pts[0], [lo for lo, _ in patch.ranges])
    assert np.array_equal(pts[-1], [hi for _, hi in patch.ranges])


@pytest.mark.parametrize("n", [17, 18, 19])
def test_grid_above_2_53_keeps_the_rounded_indices(n):
    """3^(2n) lies between 2^53 and 2^63: the kept points are the ones the
    rounded floating-point indices name."""
    patch = horosphere(n, 0.0)
    total = 3 ** len(patch.ranges)
    keep = np.unique(np.round(np.linspace(0, total - 1, 81)).astype(int))
    axes = [np.linspace(lo, hi, 3) for lo, hi in patch.ranges]
    want = np.stack([ax[d] for ax, d in zip(axes, np.unravel_index(keep, (3,) * len(axes)))], axis=1)
    assert np.array_equal(np.array(patch.grid(3)), want)


@pytest.mark.parametrize("n, density", [(2, 10**11), (6, 1000), (20, 3), (40, 3)])
def test_grid_past_the_int64_range_raises_before_allocating(n, density):
    patch = horosphere(n, 0.0)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=f"a grid of {density}\\^{2 * n} points exceeds the int64"):
            patch.grid(density)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
    normal = patch.normal_func(at)
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
        got = _point_report(patch, at, FD_STEP, shape_operator(patch, at))["pairings"]
        assert len(got) == 4
        assert got == _loop_pairings(patch, at)


def _loop_frame(patch, at, step=FD_STEP):
    """Reference: the column-by-column modified Gram-Schmidt loop, every
    column projected onto each accepted frame vector in turn."""
    psi0 = AdSPoint(patch.eval_func(at)).vec
    columns = np.array(
        [
            (patch.eval_func(at + d) - patch.eval_func(at - d)) / (2 * step)
            for d in step * np.eye(at.size)
        ],
        dtype=complex,
    )
    projected = horizontal_part(tangent_project_ads(columns[1:], psi0), psi0, tol=1e-5)
    seed = projected[patch.t_index - 1]
    frame = [seed / space_norm(seed)]
    for k, vec in enumerate(projected, start=1):
        if k == patch.t_index:
            continue
        for e in frame:
            vec = vec - real_form(vec, e) * e
        norm = space_norm(vec)
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


def test_redundant_coordinate_is_skipped_by_the_frame(build_patch):
    # q1 is ignored: its column vanishes, the sweep skips it, and the other
    # columns give horosphere(2, 0.5)'s frame bit for bit.  The matrix takes
    # the velocities of a solve with the zero column, each within rounding
    # of the solve without it: |dv| <= 32 u cond(jac) |v| (as for the
    # multi-right-hand-side solve below), carried into the normal's
    # derivative by the normal Jacobian J_N.  Measured up to 1.4e-15, below
    # 9 u cond(jac) |v| ||J_N|| over 200 random chart points.
    horo = horosphere(2, 0.5)
    redundant = build_patch(
        "zero", 0.5, lambda q: _horosphere_lift(q[[0, 2]]), base_dim=3
    )
    for at in ([0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.1, 0.05]):
        want = shape_operator(horo, np.array(at))
        got = shape_operator(redundant, np.array(at[:3] + [0.7] + at[3:]), rank_tol=0)
        assert got.frame.shape == (3, 3)
        assert np.array_equal(got.frame, want.frame)
        jets, _ = hypersurface._chart_stencil(horo, np.array(at), FD_STEP)
        jac = _realify(jets[:, 0])
        targets = np.concatenate([want.frame.real, want.frame.imag], axis=-1)
        speed = np.linalg.norm(np.linalg.lstsq(jac, targets.T, rcond=None)[0], axis=0).max()
        bound = 32 * U * np.linalg.cond(jac) * speed * np.linalg.norm(_realify(jets[:, 1]), 2)
        assert np.abs(got.matrix - want.matrix).max() <= bound


def _stencil(func, at, directions, step):
    """Reference: the central differences of a stencil without its center."""
    steps = step * np.asarray(directions, dtype=float)
    values = np.asarray(func(np.concatenate([at + steps, at - steps])), dtype=complex)
    return (values[: len(steps)] - values[len(steps) :]) / (2 * step)


def _point_shape_operator(patch, at, step=FD_STEP, rank_tol=1e-6):
    """Reference: shape_operator with each chart map on its own: a stencil
    of eval_func and one of normal_func, neither carrying its center, the
    point and the normal each from its own call, and one least-squares misfit
    norm per frame vector; the velocities come from one solve with every
    frame vector as a right-hand side, and the normal's derivative along
    them from the chain rule."""
    at = np.asarray(at, dtype=float)
    psi0 = AdSPoint(patch.eval_func(at)).vec
    columns = _stencil(patch.eval_func, at, np.eye(len(at)), step)
    projected = horizontal_part(tangent_project_ads(columns[1:], psi0), psi0, tol=1e-5)
    min_singular = float(np.linalg.svd(_realify(projected), compute_uv=False)[-1])
    assert min_singular >= rank_tol
    seed = projected[patch.t_index - 1]
    frame = [seed / space_norm(seed)]
    rest = np.delete(projected, patch.t_index - 1, axis=0)
    rest -= real_form(rest, frame[0])[:, None] * frame[0]
    for i, vec in enumerate(rest):
        norm = space_norm(vec)
        if norm < 1e-8:
            continue
        e = vec / norm
        frame.append(e)
        rest[i + 1 :] -= real_form(rest[i + 1 :], e)[:, None] * e
    frame = np.array(frame)
    jac = _realify(columns)
    targets = [_realify(e) for e in frame]
    velocities = list(np.linalg.lstsq(jac, np.array(targets).T, rcond=None)[0].T)
    lsq_residual = max(
        float(np.linalg.norm(jac @ v - t)) for v, t in zip(velocities, targets)
    )
    derivatives = np.array(velocities) @ _stencil(patch.normal_func, at, np.eye(len(at)), step)
    w = -horizontal_part(tangent_project_ads(derivatives, psi0), psi0, tol=1e-3)
    matrix = real_form(w[None], frame[:, None])
    return matrix, frame, lsq_residual, min_singular, patch.normal_func(at)


def _flat_orbit_patch(n, rng):
    y = rng.uniform(-1.0, 1.0, size=(n - 1, n - 1))
    y *= 0.9 * (n - 1) / np.abs(y).sum(axis=0).max()
    zeros = np.zeros((n - 1, n - 1))
    form = GeneratorForm(
        alpha0=np.zeros(n - 1), alpha1=np.zeros(n - 1), x_form=zeros,
        y0=y, y1=y, w1=np.zeros((n - 1,) * 3), w2=np.zeros((n - 1,) * 3),
    )
    return orbit_patch_from_form(form)


def _assert_shape_operator_is_the_point_path(patch, at, rank_tol=1e-6):
    got = shape_operator(patch, at, rank_tol=rank_tol)
    want = _point_shape_operator(patch, at, rank_tol=rank_tol)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize(
    "build",
    [lambda n, r: tube_complex(n, n // 2, r), tube_real, horosphere],
    ids=["plus", "minus", "zero"],
)
def test_shape_operator_equals_the_point_by_point_path(build):
    for n in range(2, 7):
        for r in (0.7, 2.3):
            patch = build(n, r)
            for at in patch.grid(2, cap=3) + [patch.center]:
                _assert_shape_operator_is_the_point_path(patch, at)


def test_shape_operator_on_orbit_patches_equals_the_point_by_point_path(rng):
    for n in (3, 4, 5, 6):
        patch = _flat_orbit_patch(n, rng)
        for at in patch.grid(2, cap=3) + [patch.center]:
            _assert_shape_operator_is_the_point_path(patch, at)


def test_shape_operator_on_a_redundant_coordinate_equals_the_point_by_point_path(build_patch):
    redundant = build_patch(
        "zero", 0.5, lambda q: _horosphere_lift(q[[0, 2]]), base_dim=3
    )
    for at in ([0.0, 0.0, 0.0, 0.7, 0.0], [0.3, -0.2, 0.1, 0.7, 0.05]):
        _assert_shape_operator_is_the_point_path(redundant, np.array(at), rank_tol=0)


def test_shape_operator_validates_the_center_as_patch_point():
    patch = horosphere(2, 8.0)
    at = patch.grid()[0]
    with pytest.raises(ValidationError) as point_error:
        AdSPoint(patch.eval_func(at))
    with pytest.raises(ValidationError) as stencil_error:
        shape_operator(patch, at)
    assert str(stencil_error.value) == str(point_error.value)
    assert stencil_error.value.residual == point_error.value.residual


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("r", [0.01, 0.05])
@pytest.mark.parametrize(
    "build",
    [lambda n, r: tube_complex(n, 1, r), tube_real, horosphere],
    ids=["plus", "minus", "zero"],
)
def test_small_radii_certify(build, r, n):
    # ROADMAP item 1's sweep at its two smallest radii, k = 1 for plus.
    patch = build(n, r)
    rep = verify_hopf(patch, grid=patch.grid(2))
    assert rep.certified, rep.failures


def test_verify_hopf_takes_one_stencil_per_grid_point(rng, monkeypatch):
    patches = [
        tube_complex(3, 1, 0.7), tube_real(2, 0.7), horosphere(3, 0.7), _flat_orbit_patch(3, rng),
    ]
    centers = []
    original = hypersurface._central_differences

    def recording(func, at, directions, step):
        centers.append(grid_key(at))
        return original(func, at, directions, step)

    monkeypatch.setattr(hypersurface, "_central_differences", recording)
    for patch in patches:
        centers.clear()
        grid = patch.grid()
        verify_hopf(patch, grid)
        assert centers == [grid_key(at) for at in grid]


def test_single_coordinate_lift_collapses_the_frame(build_patch):
    one = build_patch(
        "zero", 0.5, lambda q: _horosphere_lift(np.array([q[0], 0.0])), base_dim=2
    )
    with pytest.raises(ImmersionError, match="frame collapsed"):
        shape_operator(one, one.center, rank_tol=0)


def _report_bits(rep):
    """Every value of a ShapeReport, as text that tells every float bit."""
    return repr((rep.mu, rep.eigenvalues, rep.exceptional_pairs, rep.checks, rep.samples))


def _point_by_point(patch, grid, monkeypatch, **kwargs):
    """Reference: verify_hopf with every grid point's shape operator taken
    on the one-point grid of shape_operator."""
    stacked = hypersurface._shape_operators
    with monkeypatch.context() as m:
        m.setattr(
            hypersurface,
            "_shape_operators",
            lambda p, g, step, rank_tol: (next(stacked(p, [at], step, rank_tol)) for at in g),
        )
        return verify_hopf(patch, grid, **kwargs)


@pytest.mark.parametrize(
    "build",
    [lambda n: tube_complex(n, n // 2, 0.7), lambda n: tube_real(n, 0.7), lambda n: horosphere(n, 0.7)],
    ids=["plus", "minus", "zero"],
)
def test_the_stacked_frame_sweep_equals_the_point_by_point_reports(build, monkeypatch):
    for n in range(2, 7):
        patch = build(n)
        grid = patch.grid()
        for points in (grid, grid[:1], grid[-2:]):
            want = _point_by_point(patch, points, monkeypatch)
            assert _report_bits(verify_hopf(patch, points)) == _report_bits(want)


@pytest.mark.parametrize(
    "base",
    [lambda q: q[[0, 2]], lambda q: np.array([q[0] + q[1] if abs(q[0]) > 0.1 else q[1], q[2]])],
    ids=["q1-ignored", "q0-or-q1"],
)
def test_a_redundant_column_is_skipped_point_by_point_in_a_stack(base, build_patch, monkeypatch):
    # Every point of the stack has one column to skip: q1 everywhere, or,
    # for the second lift, q0 (an exact zero) where q0 = 0 and q1 (parallel
    # to q0 up to rounding) elsewhere, both kinds in the one stack.
    redundant = build_patch("zero", 0.5, lambda q: _horosphere_lift(base(q)), base_dim=3)
    grid = redundant.grid()
    assert {abs(at[2]) > 0.1 for at in grid} == {True, False}
    rank = {"rank": 0.0}
    want = _point_by_point(redundant, grid, monkeypatch, tolerances=rank)
    assert _report_bits(verify_hopf(redundant, grid, tolerances=rank)) == _report_bits(want)
    assert all(len(eigs) == 3 for _, eigs in want.samples)


def test_the_first_refusal_in_grid_order_is_raised(build_patch):
    # q0 enters squared, so its column vanishes exactly where q0 = 0: the
    # rank gate refuses those points, and with rank 0 the frame collapses
    # there.  The lift refuses q1 > 0.25 in the stencil's first stage; a
    # collapse before such a point in grid order is still raised first.
    def lift(q):
        if q[1] > 0.25:
            raise InputError("q1 out of range")
        return _horosphere_lift(np.array([q[0] ** 2, q[1]]))

    patch = build_patch("zero", 0.5, lift, base_dim=2)
    grid = [at for at in patch.grid() if at[3] < 0.25]
    rank = {"rank": 0.0}
    for points in (grid, grid[::-1]):
        first = next(at for at in points if at[2] == 0.0)
        assert grid_key(first) != grid_key(points[0])
        with pytest.raises(ImmersionError, match=re.escape(f"rank deficiency at {grid_key(first)}:")):
            verify_hopf(patch, points)
        with pytest.raises(ImmersionError) as collapse:
            verify_hopf(patch, points, tolerances=rank)
        assert str(collapse.value) == f"frame collapsed at {grid_key(first)}: 2 of 3 directions"
    good, collapsed, refused = grid[0], first, patch.grid()[-1]
    with pytest.raises(ImmersionError, match="frame collapsed"):
        verify_hopf(patch, [good, collapsed, refused], tolerances=rank)
    with pytest.raises(InputError, match="q1 out of range"):
        verify_hopf(patch, [good, refused, collapsed], tolerances=rank)


def test_verify_hopf_flags_wrong_closed_form(canonical_pair, build_patch):
    base = tube_complex(2, 0, 0.5)
    wrong = dataclasses.replace(build_patch("plus", 0.5, _tube_lift, base_dim=2), expected_mu=-3.0)
    rep = verify_hopf(wrong, grid=[wrong.center])
    assert not rep.certified
    assert "mu" in rep.failures
    assert verify_hopf(base, grid=[base.center]).certified


def _tube_lift(q: np.ndarray) -> StiefelPoint:
    z = complex(q[0], q[1])
    um = np.array([math.sqrt(1.0 + abs(z) ** 2), z, 0.0], dtype=complex)
    up = np.array([0.0, 0.0, 1.0], dtype=complex)
    return StiefelPoint(um, up)


# The per-point lifts as they were written before lifts took stacks.
def _point_tube_complex_lift(n, k, q):
    z = q[: 2 * k][0::2] + 1j * q[: 2 * k][1::2]
    w = q[2 * k :][0::2] + 1j * q[2 * k :][1::2]
    um = np.zeros(n + 1, dtype=complex)
    um[0] = math.sqrt(1.0 + float(np.vdot(z, z).real))
    um[1 : k + 1] = z
    up = np.zeros(n + 1, dtype=complex)
    up[k + 1] = math.sqrt(1.0 - float(np.vdot(w, w).real))
    up[k + 2 :] = w
    return um, up


def _product2(a, b):
    return [[a[i][0] * b[0][m] + a[i][1] * b[1][m] for m in (0, 1)] for i in (0, 1)]


def _point_tube_real_lift(n, q):
    """The closed form of tube_real's lift on one base point, in Python
    floats, with the operations of the stacked lift in the same order."""
    b, c = [float(v) for v in q[: n - 1]], [float(v) for v in q[n - 1 :]]
    bb, cb, cc = b[0] * b[0], c[0] * b[0], c[0] * c[0]
    for i in range(1, n - 1):
        bb, cb, cc = bb + b[i] * b[i], cb + c[i] * b[i], cc + c[i] * c[i]
    limit, _ = hypersurface._series_tables()
    halvings = 0
    if math.isfinite(bb + cc) and bb + cc > limit:
        halvings = int(np.ceil(np.log2(np.float64((bb + cc) / limit)) / 2))
    quarter = math.ldexp(1.0, -2 * halvings)
    k = [[bb * quarter, cb * quarter], [-cb * quarter, -cc * quarter]]
    term = [[1.0, 0.0], [0.0, 1.0]]
    cs, ss = term, term
    for j in range(1, hypersurface._SERIES_TERMS + 1):
        d = (2 * j - 1) * (2 * j)
        term = [[v / d for v in row] for row in _product2(term, k)]
        cs = [[x + t / 1.0 for x, t in zip(*rows)] for rows in zip(cs, term)]
        ss = [[x + t / (2 * j + 1) for x, t in zip(*rows)] for rows in zip(ss, term)]
    for _ in range(halvings):
        cs, ss = [[2.0 * v - float(i == m) for m, v in enumerate(row)] for i, row in enumerate(_product2(cs, cs))], _product2(ss, cs)
    um = [cs[0][0], cs[1][0]] + [ss[0][0] * bi + ss[1][0] * ci for bi, ci in zip(b, c)]
    up = [cs[0][1], cs[1][1]] + [ss[0][1] * bi + ss[1][1] * ci for bi, ci in zip(b, c)]
    return np.array(um, dtype=complex), np.array(up, dtype=complex)


def _point_horosphere_lift(n, q):
    p = q[0::2] + 1j * q[1::2]
    a = float(np.vdot(p, p).real)
    um = np.zeros(n + 1, dtype=complex)
    um[0] = 1.0 + a / 2.0
    um[1] = a / 2.0
    um[2:] = p
    up = np.zeros(n + 1, dtype=complex)
    up[0] = -1j * a / 2.0
    up[1] = 1j * (1.0 - a / 2.0)
    up[2:] = -1j * p
    return um, up


FAMILIES = {
    "plus": (lambda n, r: tube_complex(n, n // 2, r), lambda n, q: _point_tube_complex_lift(n, n // 2, q)),
    "minus": (tube_real, _point_tube_real_lift),
    "zero": (horosphere, _point_horosphere_lift),
}


@pytest.mark.parametrize("sign", sorted(FAMILIES))
def test_stacked_chart_maps_equal_the_per_point_lifts(sign, rng):
    build, point_lift = FAMILIES[sign]
    for n in range(2, 7):
        for r in (0.7, 2.3):
            patch = build(n, r)
            lo, hi = np.array(patch.ranges).T
            points = np.array(patch.grid(2, cap=5) + list(rng.uniform(lo, hi, size=(20, lo.size))))
            want, want_normal = [], []
            for at in points:
                um, up = point_lift(n, at[2:])
                pair = StiefelPoint(um, up)
                want.append(np.exp(1j * at[0]) * model_curve(sign, r, pair, at[1])[0])
                tangent = unit_tangent_lift(sign, r, pair, at[1])
                want_normal.append(np.exp(1j * at[0]) * (1j * tangent))
            assert np.array_equal(patch.eval_func(points), np.array(want))
            assert np.array_equal(patch.normal_func(points), np.array(want_normal))
            assert np.array_equal(patch.eval_func(points[0]), want[0])
            assert np.array_equal(patch.normal_func(points[-1]), want_normal[-1])


@pytest.mark.parametrize("sign", sorted(FAMILIES))
def test_central_differences_equal_the_per_direction_loop(sign, rng):
    patch = FAMILIES[sign][0](4, 0.7)
    at = patch.grid(2, cap=3)[1]
    step = FD_STEP
    for func, directions in (
        (patch.eval_func, np.eye(at.size)),
        (patch.normal_func, rng.normal(size=(7, at.size))),
    ):
        want = np.array(
            [(func(at + step * d) - func(at - step * d)) / (2 * step) for d in directions],
            dtype=complex,
        )
        differences, center = _central_differences(func, at, directions, step)
        assert np.array_equal(differences, want)
        assert np.array_equal(center, func(at))


def _gate_residuals(monkeypatch, build):
    """The residuals that a patch's horizontality gate judges, one per base
    axis."""
    seen = []
    judge = hypersurface._judge_rows

    def recording(residuals, tol, message, error):
        seen.append(residuals)
        return judge(residuals, tol, message, error)

    monkeypatch.setattr(hypersurface, "_judge_rows", recording)
    build()
    monkeypatch.undo()
    (residuals,) = seen
    return residuals


def _assert_gate_is_the_per_axis_loop(sign, got, point_lift, base_dim, lift_residual):
    """The gate's residual of each axis is the larger of the per-point
    residuals at q = 0 and at q1 = 0.3/sqrt(base_dim) (1, ..., 1)."""
    assert got.shape == (base_dim,)
    points = (np.zeros(base_dim), np.full(base_dim, 0.3 / math.sqrt(base_dim)))
    for axis in range(base_dim):
        d = np.eye(base_dim)[axis]
        want = max(lift_residual(sign, lambda x: point_lift(at + x * d), 0.0) for at in points)
        assert got[axis] == want, axis


@pytest.mark.parametrize("sign", sorted(FAMILIES))
def test_horizontality_gate_equals_per_axis_lift_coefficients(sign, monkeypatch, lift_residual):
    build, point_lift = FAMILIES[sign]
    for n in range(2, 7):
        got = _gate_residuals(monkeypatch, lambda: build(n, 0.7))
        _assert_gate_is_the_per_axis_loop(
            sign, got, lambda q: StiefelPoint(*point_lift(n, q)), 2 * n - 2, lift_residual
        )


def test_horizontality_gate_of_build_patch_equals_per_axis_lift_coefficients(
    monkeypatch, build_patch, lift_residual
):
    # The gate for a lift written one base point at a time.
    got = _gate_residuals(
        monkeypatch, lambda: build_patch("zero", 0.5, _horosphere_lift, base_dim=2)
    )
    _assert_gate_is_the_per_axis_loop("zero", got, _horosphere_lift, 2, lift_residual)


CLASSICAL_LIFTS = {
    "tube_complex k=0": ("plus", lambda n: tube_complex(n, 0, 0.7)),
    "tube_complex k=n-1": ("plus", lambda n: tube_complex(n, n - 1, 0.7)),
    "tube_real": ("minus", lambda n: tube_real(n, 0.7)),
    "horosphere": ("zero", lambda n: horosphere(n, 0.3)),
}


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_a_mis_signed_classical_lift_fails_the_horizontality_gate(n, monkeypatch):
    """Each classical lift, given to _patch_from_lift under a sign not its
    own, raises through the judge; under its own sign it builds."""
    build = hypersurface._patch_from_lift
    for name, (own, make) in CLASSICAL_LIFTS.items():
        for sign in SIGNS:
            monkeypatch.setattr(
                hypersurface, "_patch_from_lift", lambda _, *a, **kw: build(sign, *a, **kw)
            )
            if sign == own:
                assert make(n).sign == own
                continue
            with pytest.raises(InputError, match="horizontality condition") as exc:
                make(n)
            assert type(exc.value.residual) is float
            assert exc.value.residual >= 1e-3, (name, sign)


def test_every_classical_lift_passes_its_own_horizontality_gate():
    for n in range(2, 21):
        for k in range(n):
            tube_complex(n, k, 0.7)
        tube_real(n, 0.7)
        horosphere(n, 0.3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_rescaled_base_coordinate_is_invisible(n, monkeypatch):
    """A lift whose base coordinate q_0 is scaled by 1.5 reparametrizes the
    same horizontal submanifold, so no check can see this fault: each
    classical patch still builds and certifies on grid(2) with the same
    multiplicities.  The grid points move, so the eigenvalues move by the
    O(h^2) truncation of the two grids (measured at most 5.7e-9 against
    2 h^2 = 2e-8) and mu by rounding (at most 2.7e-12 against ten times
    u/h, the rounding of one central difference)."""
    build = hypersurface._patch_from_lift

    def rescaled(sign, r, lift, base_dim, **kw):
        scale = np.ones(base_dim)
        scale[0] = 1.5
        return build(sign, r, lambda q: lift(q * scale), base_dim, **kw)

    for name, (_, make) in CLASSICAL_LIFTS.items():
        reports = []
        for lift_builder in (build, rescaled):
            monkeypatch.setattr(hypersurface, "_patch_from_lift", lift_builder)
            patch = make(n)
            reports.append(verify_hopf(patch, patch.grid(2)))
        plain, moved = reports
        assert moved.samples != plain.samples, name  # the fault is in place
        assert plain.certified and moved.certified, (name, moved.failures)
        assert [m for _, m in moved.eigenvalues] == [m for _, m in plain.eigenvalues]
        for (got, _), (want, _) in zip(moved.eigenvalues, plain.eigenvalues):
            assert abs(got - want) <= 2.0 * FD_STEP**2, name
        assert abs(moved.mu - plain.mu) <= 10.0 * 2.0**-53 / FD_STEP, name


# One least-squares solve with every frame vector as a right-hand side,
# against a solve per vector: |v_multi - v_single| <= 32 u cond(jac) |v|,
# u = 2^-53 (measured below 2 u cond(jac) |v| on these points).
U = 2.0**-53


@pytest.mark.parametrize(
    "build",
    [lambda n, r: tube_complex(n, n // 2, r), tube_real, horosphere],
    ids=["plus", "minus", "zero"],
)
def test_multi_rhs_velocities_equal_the_per_vector_solves(build, monkeypatch):
    seen = []
    original = np.linalg.lstsq

    def recording(*args, **kwargs):
        solution = original(*args, **kwargs)
        seen.append(solution[0].T)
        return solution

    monkeypatch.setattr(np.linalg, "lstsq", recording)
    for n in (2, 4, 6):
        patch = build(n, 0.7)
        for at in patch.grid(2, cap=3):
            seen.clear()
            sr = shape_operator(patch, at)
            (velocities,) = seen
            columns, _ = _central_differences(patch.eval_func, at, np.eye(len(at)), FD_STEP)
            jac = _realify(columns)
            cond = np.linalg.cond(jac)
            for v, e in zip(velocities, sr.frame):
                single = np.linalg.lstsq(jac, _realify(e), rcond=None)[0]
                assert np.abs(v - single).max() <= 32 * U * cond * np.linalg.norm(single)


# tube_real's lift is the closed form of the first two columns of exp(G);
# against the Pade exponential of the full generator (conftest._loop_exp) it
# agrees to within CLOSED_FORM_MULTIPLE u ||exp(G)||_2^2.  Measured over 20
# seeds of these rows: up to about 5 inside the chart, and up to about 370
# at 10x it, on rows with c parallel to b, where the basis e0, e1, (0,0,b),
# (0,0,c) of the closed form degenerates.
CLOSED_FORM_MULTIPLE = 1024


def _real_generator(n, q):
    gen = np.zeros((n + 1, n + 1), dtype=complex)
    gen[0, 2:] = gen[2:, 0] = q[: n - 1]
    gen[2:, 1] = q[n - 1 :]
    gen[1, 2:] -= q[n - 1 :]
    return gen


def _base_rows(n, scale, rng, count=40):
    """Uniform rows in [-scale, scale]^(2n-2), then rows with b = 0, c = 0,
    b parallel to c, b antiparallel to c and q = 0."""
    q = rng.uniform(-scale, scale, size=(count + 5, 2 * n - 2))
    q[count, : n - 1] = 0.0
    q[count + 1, n - 1 :] = 0.0
    q[count + 2, n - 1 :] = 2.0 * q[count + 2, : n - 1]
    q[count + 3, n - 1 :] = -0.5 * q[count + 3, : n - 1]
    q[count + 4] = 0.0
    return q


@pytest.mark.parametrize("n", range(2, 9))
def test_tube_real_closed_form_equals_the_generator_exponential(n, rng, loop_exp):
    # Inside the chart (|q_i| <= 0.3), at 10x the chart, and both in one
    # stack, whose rows then take different numbers of series terms.
    inside, outside = _base_rows(n, 0.3, rng), _base_rows(n, 3.0, rng)
    for q in (inside, outside, np.concatenate([inside[::4], outside[::4]])):
        um, up = hypersurface._tube_real_columns(q)
        for row, got_minus, got_plus in zip(q, um, up):
            group = loop_exp(_real_generator(n, row))
            bound = CLOSED_FORM_MULTIPLE * U * np.linalg.norm(group, 2) ** 2
            assert np.abs(got_minus - group[:, 0]).max() <= bound, row
            assert np.abs(got_plus - group[:, 1]).max() <= bound, row
            want_minus, want_plus = _point_tube_real_lift(n, row)
            assert np.array_equal(got_minus, want_minus) and np.array_equal(got_plus, want_plus)
    assert np.array_equal(um[-1], np.eye(n + 1)[0]) and np.array_equal(up[-1], np.eye(n + 1)[1])


# Inside the chart and at 10x it.  Both checks are absolute (1e-10): at 10x
# the chart, n = 7 and 8, about 1 row in 3,000 random rows passes the group
# check and fails the Stiefel check, both residuals within a factor 1.5 of
# 1e-10; further out (|q_i| ~ 6, ||exp(G)|| ~ 1e3) either check may fail.
@pytest.mark.parametrize("n", range(2, 9))
def test_tube_real_lift_validates_wherever_the_group_element_does(n, rng, loop_exp):
    accepted = 0
    for scale in (0.3, 3.0):
        for row in _base_rows(n, scale, rng):
            try:
                GroupElement(loop_exp(_real_generator(n, row)), n)
            except ValidationError:
                continue
            accepted += 1
            StiefelPoint(*hypersurface._tube_real_columns(row))
    assert accepted >= 80


# ---------------------------------------------------------------- negatives


def _ruled_patch(n: int, delta: float) -> hypersurface.HypersurfacePatch:
    """Reference non-Hopf patch: the real hypersurface of CH^n ruled by the
    totally geodesic CH^(n-1)s through the points of the geodesic w(t).

    z(theta, t, s) = e^{i theta} (cosh|s| w(t) + (sinh|s|/|s|) zeta(s)) with
    w(t) = cosh t e0 + sinh t e1 and zeta(s) = (0, 0, s_1 + i s_n, ...,
    s_{n-1} + i s_{2n-2}), s in the box (-delta, delta)^(2n-2); the normal
    lift e^{i theta} i w'(t) is constant along each ruling.  Ruled real
    hypersurfaces are never Hopf (Lohnherr and Reckziegel, Geom. Dedicata
    74, 1999): the Hopf residual at the grid corner is tanh(delta sqrt(2n-2)).
    At delta = 1e-6 that defect, 1.4e-6 at n = 2, lies below the "hopf"
    tolerance 1e-4 and the patch certifies: the certifier's resolution, not
    a property of the patch, so no test pins it.
    """
    m = n - 1

    def parts(at: np.ndarray):
        theta, t, s = at[..., 0], at[..., 1], at[..., 2:]
        size = np.sqrt((s * s).sum(axis=-1))
        ratio = np.where(size > 0, np.sinh(size) / np.where(size > 0, size, 1.0), 1.0)
        w = np.zeros(at.shape[:-1] + (n + 1,), dtype=complex)
        w[..., 0], w[..., 1] = np.cosh(t), np.sinh(t)
        velocity = np.zeros_like(w)
        velocity[..., 0], velocity[..., 1] = np.sinh(t), np.cosh(t)
        zeta = np.zeros_like(w)
        zeta[..., 2:] = s[..., :m] + 1j * s[..., m:]
        phase = np.exp(1j * theta)[..., None]
        return phase, np.cosh(size)[..., None] * w + ratio[..., None] * zeta, velocity

    def eval_func(at: np.ndarray) -> np.ndarray:
        phase, point, _ = parts(at)
        return phase * point

    def normal_func(at: np.ndarray) -> np.ndarray:
        phase, _, velocity = parts(at)
        return phase * (1j * velocity)

    return hypersurface.HypersurfacePatch(
        sign="ruled",
        r=None,
        dim_n=n,
        ranges=((-1.0, 1.0), (-0.8, 0.8)) + ((-delta, delta),) * (2 * m),
        eval_func=eval_func,
        normal_func=normal_func,
        t_index=1,
    )


@pytest.mark.parametrize("delta", [0.3, 1e-2, 1e-4])
@pytest.mark.parametrize("n", [2, 3])
def test_ruled_patch_fails_the_hopf_rows(n, delta, row_value):
    patch = _ruled_patch(n, delta)
    rep = verify_hopf(patch, grid=patch.grid(3))
    assert row_value(rep, "hopf-residual") == pytest.approx(math.tanh(delta * math.sqrt(2 * n - 2)), rel=1e-3)
    want = {"hopf-residual"}
    if delta >= 1e-2:
        want |= {"pairing-max", "multiplicity-pattern"}
    assert set(rep.failures) == want


@pytest.mark.parametrize(
    "build",
    [
        lambda: tube_complex(2, 0, 0.5),
        lambda: tube_real(2, 0.5),
        lambda: horosphere(2, 0.3),
        lambda: tube_complex(3, 1, 0.5),
        lambda: orbit_patch_from_form(random_one_param(np.random.default_rng(7))),
    ],
    ids=["plus", "minus", "zero", "plus-n3", "orbit"],
)
def test_a_rotated_normal_fails_the_symmetry_row(build, row_value):
    """The normal e^{i 1e-3} N tilts toward the structure vector.  The
    tilted shape operator stays Hopf (its hopf-residual is rounding) but is
    not symmetric: symmetry-residual reads about 2e-3 to 4e-3 against its
    tolerance 1e-5, and it is the only failing row."""
    patch = build()
    normal = patch.normal_func
    tilted = dataclasses.replace(patch, normal_func=lambda at: np.exp(1e-3j) * normal(at))
    rep = verify_hopf(tilted, grid=tilted.grid(2))
    assert rep.failures == ("symmetry-residual",)
    assert row_value(rep, "symmetry-residual") >= 1e-3
    assert row_value(rep, "hopf-residual") <= 1e-10


# Each tolerance that verify_hopf judges, and the rows it judges.
TOLERANCE_ROWS = {
    "hopf": {"hopf-residual"},
    "symmetry": {"symmetry-residual"},
    "lsq": {"lsq-residual"},
    "mu": {"mu"},
    "mu-constancy": {"mu-constancy"},
    "pairing": {"pairing-max"},
    "unit": {"unit-multiplicity"},
}


CERTIFYING_PATCHES = pytest.mark.parametrize(
    "build",
    [
        lambda: tube_complex(2, 0, 0.5),
        lambda: tube_real(3, 0.5),
        lambda: horosphere(2, 0.3),
        lambda: orbit_patch_from_form(random_one_param(np.random.default_rng(0))),
    ],
    ids=["plus", "minus", "zero", "orbit"],
)


@CERTIFYING_PATCHES
def test_mu_row_is_the_grid_point_farthest_from_the_closed_form(build):
    """The mu row judges the closed form at every grid point: its value is
    A[0, 0] where that lies farthest from expected_mu, not the median."""
    patch = build()
    grid = patch.grid(2)
    mus = [shape_operator(patch, at).matrix[0, 0] for at in grid]
    rep = verify_hopf(patch, grid=grid)
    (row,) = [c for c in rep.checks if c["name"] == "mu"]
    assert row["value"] == max(mus, key=lambda m: abs(m - patch.expected_mu))
    assert row["expected"] == patch.expected_mu
    assert rep.mu == float(np.median(mus))


@CERTIFYING_PATCHES
def test_a_zero_tolerance_fails_exactly_its_rows(build):
    """A certifying patch with one tolerance set to 0 fails the rows that
    tolerance judges and no other (none when the patch has no such row)."""
    patch = build()
    grid = patch.grid(2)
    rep = verify_hopf(patch, grid=grid)
    assert rep.certified, rep.failures
    rows = {c["name"] for c in rep.checks}
    for name, judged in TOLERANCE_ROWS.items():
        failures = verify_hopf(patch, grid=grid, tolerances={name: 0.0}).failures
        assert set(failures) == rows & judged, name
