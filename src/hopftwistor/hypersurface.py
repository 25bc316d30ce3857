"""Hypersurface patches in the hyperquadric, finite-difference shape
operators, and certification of the Hopf condition.

A patch stores a chart map into the hyperquadric together with the closed-form
lift of a unit normal.  Chart convention: params[0] is always the fiber angle
"theta"; the coordinate at t_index maps (after horizontal projection) onto the
structure direction, and seeds the tangent frame.  The remaining coordinates
are orthonormalized greedily; the frame choice affects only presentation,
never eigenvalues.

Orientation: the classical patches carry the normal e^{i theta} i T, for which
the structure eigenvalue is -2coth 2r / -2tanh 2r / -2.  The table of the
opposite normal is the negated, reversed table.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ExceptionalPairError, GeometryError, ImmersionError, InputError
from .fibration import (
    FD_STEP,
    AdSPoint,
    _central_differences,
    horizontal_part,
    space_norm,
    tangent_project_ads,
)
from .linalg import _judge_rows, real_form
from .report import make_check
from .twistor import HORIZONTAL_TOL, StiefelPoint, _curve_stack, _start, _tangent_start, horizontality_residual

GRID_DENSITY = 3
GRID_CAP = 81
RANK_TOL = 1e-6
CLUSTER_TOL = 5e-4
PAIRING_DEGENERATE_TOL = 1e-3

# Every tolerance the package judges against, by the name --tol accepts.
DEFAULT_TOLERANCES = {
    "structure": 1e-10,
    "curvature": 1e-4,
    "circle": 1e-4,
    "parallel": 1e-10,
    "hopf": 1e-4,
    "mu": 1e-4,
    "mu-constancy": 1e-4,
    "eigenvalue": 1e-4,
    "pairing": 1e-4,
    "symmetry": 1e-5,
    "lsq": 1e-4,
    "defining": 1e-12,
    "mc": 1e-12,
    "witness": 1e-6,
    "rho": 1e-4,
    "unit": 1e-3,
    "rank": RANK_TOL,
}

__all__ = [
    "GRID_DENSITY",
    "GRID_CAP",
    "RANK_TOL",
    "CLUSTER_TOL",
    "PAIRING_DEGENERATE_TOL",
    "DEFAULT_TOLERANCES",
    "HypersurfacePatch",
    "ShapeResult",
    "ShapeReport",
    "shape_operator",
    "verify_hopf",
    "pairing_residual",
    "cluster_eigenvalues",
    "pick_extra_eigenvalue",
    "grid_key",
    "tube_complex",
    "tube_real",
    "horosphere",
    "horosphere_defining_residual",
]


@dataclass(frozen=True, eq=False)
class HypersurfacePatch:
    """A parametrized piece of a real hypersurface, seen through its lift.

    eval_func maps chart points (a float array (..., d), params[0] = fiber
    angle) to vectors (..., n+1) on the hyperquadric; normal_func gives the
    horizontal unit-normal lifts at the same chart points.  A 1-d chart point
    gives one (n+1,) vector; a stack is evaluated in one call, each row with
    the arithmetic of a call on it alone.  point and normal take one chart
    point.
    """

    sign: str
    r: Optional[float]
    dim_n: int
    ranges: Tuple[Tuple[float, float], ...]
    eval_func: Callable[[np.ndarray], np.ndarray]
    normal_func: Callable[[np.ndarray], np.ndarray]
    t_index: int
    expected_mu: Optional[float] = None
    expected_spectrum: Optional[Tuple[Tuple[float, int], ...]] = None

    @property
    def center(self) -> np.ndarray:
        """The midpoint 0.5 (lo + hi) of every chart range: 0 on the
        symmetric ranges, 1.0 for the orbit height lam."""
        return np.array([0.5 * (lo + hi) for lo, hi in self.ranges])

    def point(self, at) -> np.ndarray:
        vec = np.asarray(self.eval_func(np.asarray(at, dtype=float)), dtype=complex)
        return AdSPoint(vec).vec

    def normal(self, at) -> np.ndarray:
        return np.asarray(self.normal_func(np.asarray(at, dtype=float)), dtype=complex)

    def grid(self, density: int = GRID_DENSITY, cap: int = GRID_CAP) -> List[np.ndarray]:
        """Lexicographic product grid over the chart ranges, subsampled to cap;
        only the kept points are decoded from their lexicographic indices.
        More than 2^63 - 1 points raise InputError before any allocation; the
        kept indices, spaced in floating point, are clipped to the last point."""
        if density < 2:
            raise InputError("grid density must be >= 2")
        total = operator.index(density) ** len(self.ranges)
        if total > np.iinfo(np.int64).max:
            raise InputError(
                f"a grid of {density}^{len(self.ranges)} points exceeds the int64 index range"
            )
        axes = [np.linspace(lo, hi, density) for lo, hi in self.ranges]
        spaced = np.round(np.linspace(0, total - 1, min(cap, total))).tolist()
        keep = np.unique([min(int(i), total - 1) for i in spaced])
        digits = np.unravel_index(keep, (density,) * len(axes))
        return list(np.stack([ax[d] for ax, d in zip(axes, digits)], axis=1))


class ShapeResult(NamedTuple):
    """One grid point's shape operator and what came with it: the frame of
    the matrix, the worst least-squares misfit of a velocity, the smallest
    singular value of the rank gate, and the normal lift at the point."""

    matrix: np.ndarray
    frame: np.ndarray  # (dim, n+1): the horizontal frame, one vector per row
    lsq_residual: float
    min_singular: float
    normal: np.ndarray  # (n+1,): patch.normal at the point


@dataclass(frozen=True, eq=False)
class ShapeReport:
    """What verify_hopf judged and measured over a chart grid: the median
    structure eigenvalue mu (which mu-constancy and the CLI's trichotomy
    margin read; the "mu" row carries the grid point farthest from the
    closed form instead), the (value, multiplicity) clusters of the stored
    normal (negated and reversed for the opposite normal), the count of
    pairs with 2 lam = mu that the pairing skipped, one report.make_check
    record per judged tolerance, and the sorted spectrum at each grid point
    by grid_key.  certified and failures are read from checks.
    """

    mu: float
    eigenvalues: Tuple[Tuple[float, int], ...]
    exceptional_pairs: int
    checks: Tuple[dict, ...]
    samples: Tuple[Tuple[str, Tuple[float, ...]], ...]

    @property
    def failures(self) -> Tuple[str, ...]:
        return tuple(c["name"] for c in self.checks if not c["pass"])

    @property
    def certified(self) -> bool:
        return not self.failures


def grid_key(at) -> str:
    return "(" + ",".join(format(float(c), ".6g") for c in np.asarray(at).ravel()) + ")"


def pairing_residual(lam: float, lam_star: float, mu: float) -> float:
    """Defect of the principal-curvature pairing (lam mu - 2)/(2 lam - mu).

    Raises ExceptionalPairError when the denominator vanishes (the |mu| = 2
    exceptional case, reported separately from regular pairs).
    """
    denom = 2.0 * lam - mu
    if abs(denom) <= 1e-8:
        raise ExceptionalPairError(
            f"degenerate pair: 2*lam - mu = {denom:.3e} at lam = {lam}"
        )
    return abs(lam_star - (lam * mu - 2.0) / denom)


def cluster_eigenvalues(values: Sequence[float]) -> List[Tuple[float, int]]:
    """Merge sorted eigenvalues into (mean, multiplicity) buckets.

    Neighbors within CLUSTER_TOL share a bucket; CLUSTER_TOL sits above the
    finite-difference noise floor and below every closed-form gap used here.
    """
    vals = sorted(float(v) for v in values)
    clusters: List[List[float]] = [[vals[0]]]
    for v in vals[1:]:
        if v - clusters[-1][-1] <= CLUSTER_TOL:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [(sum(c) / len(c), len(c)) for c in clusters]


def pick_extra_eigenvalue(values: Sequence[float], mu: float) -> float:
    """Select the transverse eigenvalue from a measured spectrum.

    Drops the single value closest to the structure eigenvalue, then returns
    the remaining value farthest from 1 (ties resolved to the smallest), which
    is the identity map on the intended spectra {mu, 1 x (n-1), rho} and stays
    stable when rho sits near 1 or near mu.
    """
    vals = sorted(float(v) for v in values)
    if len(vals) < 2:
        raise InputError("need at least two eigenvalues")
    drop = min(range(len(vals)), key=lambda i: abs(vals[i] - mu))
    rest = [v for i, v in enumerate(vals) if i != drop]
    return max(rest, key=lambda v: (abs(v - 1.0), -v))


def _patch_from_lift(
    sign: str,
    r: float,
    lift: Callable[[np.ndarray], StiefelPoint],
    base_dim: int,
    *,
    expected_mu: Optional[float],
    expected_spectrum: Optional[Tuple[Tuple[float, int], ...]],
) -> HypersurfacePatch:
    """Assemble a patch from a horizontal Stiefel lift over a base chart.

    lift maps base points (..., base_dim) to stacked pairs (..., n+1) in one
    call.  Chart is (theta, t, q_0 ... q_{base_dim-1}) on the box
    (-1, 1) x (-0.8, 0.8) x (-0.3, 0.3)^base_dim, centered at 0; the curve
    parameter t seeds the structure direction.

    The lift must be horizontal for its own sign along every base axis, at
    q = 0 and at q1 = 0.3/sqrt(base_dim) (1, ..., 1), where |q1| = 0.3; the
    largest defect of each axis is judged against HORIZONTAL_TOL, and the
    error names the axis as its stack row.  q = 0 alone cannot tell the
    signs apart: there every tube and horosphere lift moves u- and u+ only
    into their orthogonal complement, so the connection form vanishes and
    commutes with all three structures.  At q1 it no longer vanishes and
    commutes with the lift's own structure alone.
    """

    def pairs(q: np.ndarray) -> np.ndarray:
        p = lift(q)
        return np.stack([p.u_minus, p.u_plus], axis=-2)

    # One lift per stencil point, of the point +- FD_STEP along every base
    # axis and of the point itself, which also gives the dimension.
    stencils = [
        _central_differences(pairs, at, np.eye(base_dim), FD_STEP)
        for at in (np.zeros(base_dim), np.full(base_dim, 0.3 / math.sqrt(base_dim)))
    ]
    derivatives, here = (np.array(parts) for parts in zip(*stencils))
    _judge_rows(
        horizontality_residual(sign, here, derivatives).max(axis=0),
        HORIZONTAL_TOL,
        f"lift fails the {sign!r} horizontality condition: residual {{:.3e}}",
        InputError,
    )

    # e^{i theta} times the model curve of the lifted pairs, or i times its
    # unit tangent; the lift and the curve take the whole stack.
    def eval_func(at: np.ndarray) -> np.ndarray:
        curve = _curve_stack(sign, _start(sign, r), at[..., 1], lift(at[..., 2:]))
        return np.exp(1j * at[..., 0])[..., None] * curve

    def normal_func(at: np.ndarray) -> np.ndarray:
        tangent = _curve_stack(sign, _tangent_start(sign, r), at[..., 1], lift(at[..., 2:]))
        return np.exp(1j * at[..., 0])[..., None] * (1j * tangent)

    return HypersurfacePatch(
        sign=sign,
        r=r,
        dim_n=here.shape[-1] - 1,
        ranges=((-1.0, 1.0), (-0.8, 0.8)) + ((-0.3, 0.3),) * base_dim,
        eval_func=eval_func,
        normal_func=normal_func,
        t_index=1,
        expected_mu=expected_mu,
        expected_spectrum=expected_spectrum,
    )


def _realify(vecs: np.ndarray) -> np.ndarray:
    """(Re, Im) coordinates of a vector, or of a stack as the columns of a
    C-contiguous matrix (the layout fixes the BLAS order of jac @ velocity)."""
    return np.ascontiguousarray(np.concatenate([vecs.real, vecs.imag], axis=-1).T)


def shape_operator(
    patch: HypersurfacePatch,
    at,
    step: float = FD_STEP,
    rank_tol: float = RANK_TOL,
) -> ShapeResult:
    """Finite-difference shape operator at one chart point, in an
    orthonormal horizontal frame: the structure direction (column t_index),
    then the other non-fiber columns in chart order by modified Gram-Schmidt,
    a column below norm 1e-8 skipped.  It runs _shape_operators, the path of
    every grid point of verify_hopf, on the one-point grid [at], so its
    values equal theirs bit for bit.  Raises ImmersionError for a smallest
    singular value of the projected columns below rank_tol or a frame of
    fewer than 2n-1 vectors."""
    return next(_shape_operators(patch, [np.asarray(at, dtype=float)], step, rank_tol))


def _shape_operators(patch, grid, step, rank_tol):
    """Yield the ShapeResult of every point of grid (float arrays), in order.

    Three stages:
    - per point, in grid order: the chart Jacobian, one central difference
      per chart coordinate, whose stencil also carries the point itself,
      validated first as an AdSPoint (the same check and text as
      patch.point); the projection of the non-fiber columns; and the rank
      gate, a smallest singular value >= rank_tol;
    - once for the whole grid: the frame, a modified Gram-Schmidt sweep over
      the projected columns of all points, a stack (points, d - 1, n+1).
      The structure direction (column t_index) comes first, then the other
      columns in chart order; each step takes one stacked norm and one
      stacked update of the later columns.  A column below norm 1e-8 is
      skipped at its point and removes nothing there;
    - per point, in grid order: a point with fewer than 2n-1 frame vectors
      raises "frame collapsed"; the velocities, one least-squares solve with
      every frame vector as a right-hand side, and their misfits |jac v - e|
      in one stacked product; the normal derivative, one central difference
      along each velocity, whose stencil also carries the point's normal;
      and the matrix A[i,j] = <-D_{E_j} N, E_i>, one Gram call.  Pairing
      against horizontal frame vectors annihilates any vertical
      contamination.
    A refusal of the first stage is raised after the later stages of the
    points before it, so every error is the one the point-by-point order
    meets first.  Every value equals, bit for bit, the one computed for its
    point alone.
    """
    gated, refusal = [], None
    for at in grid:
        try:
            columns, center = _central_differences(patch.eval_func, at, np.eye(len(at)), step)
            psi0 = AdSPoint(center).vec
            # Non-fiber columns, projected: row k - 1 belongs to chart coordinate k.
            projected = horizontal_part(tangent_project_ads(columns[1:], psi0), psi0, tol=1e-5)
            min_singular = float(np.linalg.svd(_realify(projected), compute_uv=False)[-1])
            if min_singular < rank_tol:
                raise ImmersionError(
                    f"rank deficiency at {grid_key(at)}: smallest singular value "
                    f"{min_singular:.3e} < {rank_tol:.1e}"
                )
        except GeometryError as exc:
            if not gated:
                raise
            refusal = exc
            break
        gated.append((at, columns, psi0, projected, min_singular))

    stack = np.array([g[3] for g in gated])
    frames = np.zeros_like(stack)
    seed = stack[:, patch.t_index - 1]
    frames[:, 0] = seed / space_norm(seed)[:, None]
    kept = np.ones(stack.shape[:2], dtype=bool)
    rest = np.delete(stack, patch.t_index - 1, axis=1)
    rest -= real_form(rest, frames[:, :1])[..., None] * frames[:, :1]
    # Column i updates the later columns only at the points that keep it; a
    # skipped column leaves every bit of them as the point-by-point loop does.
    for i in range(rest.shape[1]):
        norm = space_norm(rest[:, i])
        keep = kept[:, i + 1] = ~(norm < 1e-8)
        e = rest[keep, i] / norm[keep, None]
        frames[keep, i + 1] = e
        later, e = rest[keep, i + 1 :], e[:, None]
        rest[keep, i + 1 :] = later - real_form(later, e)[..., None] * e

    dim = 2 * patch.dim_n - 1
    for (at, columns, psi0, _, min_singular), frame, keep in zip(gated, frames, kept):
        frame = frame[keep]
        if len(frame) != dim:
            raise ImmersionError(
                f"frame collapsed at {grid_key(at)}: {len(frame)} of {dim} directions"
            )
        jac = _realify(columns)
        targets = np.concatenate([frame.real, frame.imag], axis=-1)
        # One solve for every frame vector; the velocities are kept row-major,
        # as the per-vector solves gave them (the layout reaches the BLAS
        # order of the normal stencil).
        velocities = np.ascontiguousarray(np.linalg.lstsq(jac, targets.T, rcond=None)[0].T)
        # Row-times-column norms of the stacked misfits equal np.linalg.norm's.
        misfits = (jac @ velocities[..., None])[..., 0] - targets
        lsq_residual = float(np.sqrt(misfits[:, None, :] @ misfits[:, :, None]).max())
        derivatives, normal = _central_differences(patch.normal_func, at, velocities, step)
        w = -horizontal_part(tangent_project_ads(derivatives, psi0), psi0, tol=1e-3)
        # matrix[i, j] = <w_j, e_i>
        matrix = real_form(w[None], frame[:, None])
        yield ShapeResult(matrix, frame, lsq_residual, min_singular, normal)
    if refusal is not None:
        raise refusal


def _point_report(patch, at, step, sr):
    """The values verify_hopf aggregates at one grid point, from its shape
    operator sr; scripts/oracle.py replaces this function and recomputes
    them at 50 digits from the patch, the point and the step."""
    a = sr.matrix
    sym = float(np.abs(a - a.T).max())
    sym_a = (a + a.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym_a)
    mu = float(a[0, 0])
    unit0 = np.zeros(a.shape[0])
    unit0[0] = 1.0
    hopf = float(np.linalg.norm(a[:, 0] - mu * unit0))

    # Pair each principal curvature lam (off the structure eigenvector) with
    # the eigenvalue that carries most of phi X, X its eigenvector; pairs with
    # 2 lam = mu are exceptional and only counted.
    xi_slot = int(np.argmax(np.abs(eigvecs[0, :])))
    others = [i for i in range(eigvals.size) if i != xi_slot]
    regular = [i for i in others if abs(2.0 * eigvals[i] - mu) > PAIRING_DEGENERATE_TOL]
    ix = 1j * (eigvecs.T[regular] @ sr.frame)
    phi_x = ix - real_form(ix, sr.normal)[:, None] * sr.normal
    weights = np.abs(real_form(phi_x[:, None], sr.frame[None]) @ eigvecs)
    pairings = [
        pairing_residual(float(eigvals[i]), float(eigvals[j]), mu)
        for i, j in zip(regular, np.argmax(weights, axis=1))
    ]
    exceptional = len(others) - len(regular)
    return {
        "at": at,
        "mu": mu,
        "hopf": hopf,
        "symmetry": sym,
        "lsq": sr.lsq_residual,
        "eigvals": [float(v) for v in eigvals],
        "pairings": pairings,
        "exceptional": exceptional,
    }


def verify_hopf(
    patch: HypersurfacePatch,
    grid: Optional[Sequence] = None,
    step: float = FD_STEP,
    tolerances: Optional[dict] = None,
) -> ShapeReport:
    """Certify the Hopf condition and curvature structure over a grid.

    Every patch: structure-eigenvector residual, frame symmetry of the
    operator, least-squares quality, and, when the patch carries a closed
    form, the "mu" row: the structure eigenvalue A[0, 0] at the grid point
    farthest from it (the first such point in grid order), so one row
    judges the closed form at every point.  Classical patches add constancy
    of the structure eigenvalue across the grid, the principal-curvature
    pairing on non-exceptional pairs, and the same cluster multiplicities
    at every grid point.  Orbit patches (sign "orbit") instead require the
    unit eigenvalue with multiplicity >= n-1.  Each condition is one
    make_check record in the report's checks.  Besides them the report
    keeps the median mu, the mean cluster table, the count of exceptional
    pairs and the spectrum at each grid point.

    The shape operators come from _shape_operators with the "rank"
    tolerance as their rank gate: the stencil, the hyperquadric check, the
    projection and the rank gate point by point in grid order, the
    horizontal frames of all grid points in one Gram-Schmidt sweep, then the
    rest point by point.  Each equals shape_operator at its point bit for
    bit, and a refusal is the one the first refused grid point gives.
    """
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tols.update(tolerances)
    if grid is None:
        grid = patch.grid()
    grid = [np.asarray(g, dtype=float) for g in grid]
    points = [
        _point_report(patch, at, step, sr)
        for at, sr in zip(grid, _shape_operators(patch, grid, step, tols["rank"]))
    ]

    mus = [p["mu"] for p in points]
    mu = float(np.median(mus))
    hopf = max(p["hopf"] for p in points)
    symmetry = max(p["symmetry"] for p in points)
    lsq = max(p["lsq"] for p in points)

    per_point = [cluster_eigenvalues(p["eigvals"]) for p in points]
    pattern = tuple(m for _, m in per_point[0])
    consistent = all(tuple(m for _, m in c) == pattern for c in per_point)
    if consistent:
        means = np.array([[v for v, _ in c] for c in per_point]).mean(axis=0)
        clusters = tuple((float(v), int(m)) for v, m in zip(means, pattern))
    else:
        clusters = tuple(per_point[0])

    checks = [
        make_check("hopf-residual", hopf, 0.0, tols["hopf"]),
        make_check("symmetry-residual", symmetry, 0.0, tols["symmetry"]),
        make_check("lsq-residual", lsq, 0.0, tols["lsq"]),
    ]
    if patch.expected_mu is not None:
        farthest = max(mus, key=lambda m: abs(m - patch.expected_mu))
        checks.append(make_check("mu", farthest, patch.expected_mu, tols["mu"]))
    if patch.sign == "orbit":
        need = patch.dim_n - 1
        unit_mult = min(
            sum(1 for v in p["eigvals"] if abs(v - 1.0) <= tols["unit"])
            for p in points
        )
        checks.append(
            make_check("unit-multiplicity", unit_mult, need, 0.0, passed=unit_mult >= need)
        )
    else:
        mu_dev = max(abs(m - mu) for m in mus)
        checks.append(make_check("mu-constancy", mu_dev, 0.0, tols["mu-constancy"]))
        pairings = [r for p in points for r in p["pairings"]]
        if pairings:
            checks.append(make_check("pairing-max", max(pairings), 0.0, tols["pairing"]))
        checks.append(
            make_check(
                "multiplicity-pattern",
                0.0 if consistent else 1.0,
                0.0,
                0.0,
                passed=consistent,
            )
        )

    return ShapeReport(
        mu=mu,
        eigenvalues=clusters,
        exceptional_pairs=sum(p["exceptional"] for p in points),
        checks=tuple(checks),
        samples=tuple((grid_key(p["at"]), tuple(p["eigvals"])) for p in points),
    )


def _complexify(q: np.ndarray) -> np.ndarray:
    return q[..., 0::2] + 1j * q[..., 1::2]


def _norm2(z: np.ndarray) -> np.ndarray:
    """((z, z)) for the positive form on each row of a stack (..., k); the
    stacked row-times-column product equals np.vdot(z, z) bit for bit."""
    return (z.conj()[..., None, :] @ z[..., :, None])[..., 0, 0].real


def tube_complex(n: int, k: int, r: float) -> HypersurfacePatch:
    """Tube of radius r around a totally geodesic complex k-dimensional
    subspace, via the block lift (sign "plus").

    Structure eigenvalue -2coth 2r; spectrum -tanh r on 2k directions and
    -coth r on the 2(n-k-1) complementary ones.  r = 0 is the focal
    degeneracy and is rejected.
    """
    if n < 2 or not (0 <= k <= n - 1):
        raise InputError(f"need n >= 2 and 0 <= k <= n-1, got n={n}, k={k}")
    if abs(r) < 1e-14:
        raise ImmersionError(
            "r = 0 collapses the tube onto the complex subspace (focal set)"
        )

    def lift(q: np.ndarray) -> StiefelPoint:
        z = _complexify(q[..., : 2 * k])
        w = _complexify(q[..., 2 * k :])
        norm_w = _norm2(w)
        if np.any(norm_w >= 1.0):
            raise InputError("chart leaves the unit ball of the spacelike block")
        um = np.zeros(q.shape[:-1] + (n + 1,), dtype=complex)
        um[..., 0] = np.sqrt(1.0 + _norm2(z))
        um[..., 1 : k + 1] = z
        up = np.zeros(q.shape[:-1] + (n + 1,), dtype=complex)
        up[..., k + 1] = np.sqrt(1.0 - norm_w)
        up[..., k + 2 :] = w
        return StiefelPoint(um, up)

    coth = lambda x: math.cosh(x) / math.sinh(x)
    spectrum = [(-2.0 * coth(2.0 * r), 1)]
    if k > 0:
        spectrum.append((-math.tanh(r), 2 * k))
    if k < n - 1:
        spectrum.append((-coth(r), 2 * (n - 1 - k)))
    return _patch_from_lift(
        "plus",
        r,
        lift,
        base_dim=2 * n - 2,
        expected_mu=-2.0 * coth(2.0 * r),
        expected_spectrum=tuple(sorted(spectrum)),
    )


# The even and odd exponential series of tube_real's lift take terms
# j = 0.._SERIES_TERMS of a matrix K' with Frobenius norm at most the limit
# at which the first term left out, bounded by ||K'||^(J+1) / (2J+2)!, is
# _SERIES_TOL.  The largest entry of Cs(K') is at least 1/2, so that term is
# below 1e-18 of the sum.
_SERIES_TERMS = 10
_SERIES_TOL = 5e-19


@functools.lru_cache(maxsize=1)
def _series_tables() -> Tuple[float, np.ndarray]:
    """The norm limit of the series, and the divisors of term j in Cs and
    Ss, 1 and 2j+1, as an array (_SERIES_TERMS + 1, 2, 1, 1, 1)."""
    j = _SERIES_TERMS
    limit = math.exp((math.log(_SERIES_TOL) + math.lgamma(2 * j + 3)) / (j + 1))
    divisors = np.ones((j + 1, 2, 1, 1, 1))
    divisors[:, 1] = np.arange(1, 2 * j + 2, 2)[:, None, None, None]
    divisors.setflags(write=False)  # one array for every caller
    return limit, divisors


def _mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of two stacks of 2 x 2 matrices held as (2, 2, N) arrays,
    entry by entry: (ab)[i, m] = a[i, 0] b[0, m] + a[i, 1] b[1, m]."""
    return a[:, :1] * b[None, 0] + a[:, 1:] * b[None, 1]


def _even_odd_series(k: np.ndarray, norm: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Cs(K) = sum_j K^j / (2j)! and Ss(K) = sum_j K^j / (2j+1)! for a stack
    of real 2 x 2 matrices K held as a (2, 2, N) array, given a bound norm
    (N,) on the Frobenius norm of each K.

    Terms j = 0.._SERIES_TERMS are summed in order from j = 0.  A matrix
    whose norm is above the limit is scaled to K' = K / 4^s, s >= 1 the
    fewest halvings that bring it under; its series are summed for K' and
    followed by s doublings Cs(4K') = 2 Cs(K')^2 - I and
    Ss(4K') = Ss(K') Cs(K').  Every matrix gets the bits of a call on it
    alone.  Nothing is divided by a norm or an eigenvalue: K = 0 gives
    Cs = Ss = I.  A non-finite K is not scaled; its sums are not finite.
    """
    limit, divisors = _series_tables()
    halvings = np.zeros(norm.shape, dtype=int)
    if not (norm <= limit).all():
        big = np.isfinite(norm) & (norm > limit)
        halvings[big] = np.ceil(np.log2(norm[big] / limit) / 2)
        k = k * np.ldexp(1.0, -2 * halvings)  # 4^-s, exact
    terms = [np.broadcast_to(np.eye(2)[..., None], k.shape)]
    for j in range(1, _SERIES_TERMS + 1):
        terms.append(_mul2(terms[-1], k) / ((2 * j - 1) * (2 * j)))
    # cumsum adds in order along the first axis, for one matrix or many.
    cs, ss = np.cumsum(np.array(terms)[:, None] / divisors, axis=0)[-1]
    for step in range(int(halvings.max(initial=0))):
        doubling = halvings > step
        cs, ss = (
            np.where(doubling, 2.0 * _mul2(cs, cs) - np.eye(2)[..., None], cs),
            np.where(doubling, _mul2(ss, cs), ss),
        )
    return cs, ss


def _tube_real_columns(q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """tube_real's lift before its StiefelPoint check: the first two columns
    of exp(G) for base points q (..., 2n-2), as stacks (..., n+1)."""
    n = q.shape[-1] // 2 + 1
    bc = q.reshape((-1, 2, n - 1))  # rows b and c of each base point
    # [[b.b, b.c], [c.b, c.c]], each summed left to right over the coordinates.
    gram = np.cumsum(bc[:, :, None] * bc[:, None], axis=-1)[..., -1]
    k = np.empty((2, 2, len(bc)))
    k[0, 0], k[0, 1], k[1, 0], k[1, 1] = gram[:, 0, 0], gram[:, 1, 0], -gram[:, 1, 0], -gram[:, 1, 1]
    # ||K||_F <= b.b + c.c = |q|^2.
    cs, ss = _even_odd_series(k, gram[:, 0, 0] + gram[:, 1, 1])
    # Column col of exp(G) is (Cs[0, col], Cs[1, col], Ss[0, col] b + Ss[1, col] c).
    columns = np.empty((len(bc), 2, n + 1))
    columns[:, :, :2] = cs.T
    columns[:, :, 2:] = ss[0].T[..., None] * bc[:, None, 0] + ss[1].T[..., None] * bc[:, None, 1]
    columns = columns.reshape(q.shape[:-1] + (2, n + 1))
    return columns[..., 0, :].astype(complex), columns[..., 1, :].astype(complex)


def tube_real(n: int, r: float) -> HypersurfacePatch:
    """Tube of radius r around the totally geodesic real form (sign "minus").

    Lift: the first two columns of exp(G), G the real generator of n-1 boosts
    e0^ej (b = q[:n-1]) and n-1 rotations e1^ej (c = q[n-1:]).  Real matrices
    give a real connection form, a multiple of J2, hence the "minus"
    horizontality.  G maps
    e0 -> (0,0,b), e1 -> (0,0,c), (0,0,b) -> (b.b) e0 - (b.c) e1 and
    (0,0,c) -> (b.c) e0 - (c.c) e1, so on span{e0, e1, (0,0,b), (0,0,c)} it
    acts as M = [[0, K], [I, 0]] with K = [[b.b, b.c], [-b.c, -c.c]].  Since
    M^2 = diag(K, K), exp(M) = [[Cs(K), K Ss(K)], [Ss(K), Cs(K)]] and

        u_- = (Cs00, Cs10, Ss00 b + Ss10 c),  u_+ = (Cs01, Cs11, Ss01 b + Ss11 c),

    with Cs(K) = sum_j K^j / (2j)! and Ss(K) = sum_j K^j / (2j+1)!.  Both
    take terms j <= 10 while |q|^2 <= 1.78 (the chart reaches 0.9 at n = 6),
    the first term left out below 1e-18 of the sum; a larger K is scaled by
    4^-s and the sums doubled back s times (_even_odd_series).  Rows with
    b = 0 or c = 0 need no special case; no matrix exponential is taken.
    r = 0 is the real form itself and is rejected.
    """
    if n < 2:
        raise InputError(f"need n >= 2, got n={n}")
    if abs(r) < 1e-14:
        raise ImmersionError("r = 0 collapses the tube onto the real form (focal set)")

    def lift(q: np.ndarray) -> StiefelPoint:
        return StiefelPoint(*_tube_real_columns(q))

    coth = lambda x: math.cosh(x) / math.sinh(x)
    spectrum = [(-2.0 * math.tanh(2.0 * r), 1), (-coth(r), n - 1), (-math.tanh(r), n - 1)]
    return _patch_from_lift(
        "minus",
        r,
        lift,
        base_dim=2 * n - 2,
        expected_mu=-2.0 * math.tanh(2.0 * r),
        expected_spectrum=tuple(sorted(spectrum)),
    )


def horosphere(n: int, r: float) -> HypersurfacePatch:
    """Horosphere patch (sign "zero"): |z_0 - z_1| = e^r at every sample.

    Structure eigenvalue -2 and eigenvalue -1 with multiplicity 2n-2 (both
    flip sign with the opposite normal).
    """
    if n < 2:
        raise InputError(f"need n >= 2, got n={n}")

    def lift(q: np.ndarray) -> StiefelPoint:
        p = _complexify(q)
        a = _norm2(p)
        um = np.zeros(q.shape[:-1] + (n + 1,), dtype=complex)
        um[..., 0] = 1.0 + a / 2.0
        um[..., 1] = a / 2.0
        um[..., 2:] = p
        up = np.zeros(q.shape[:-1] + (n + 1,), dtype=complex)
        up[..., 0] = -1j * a / 2.0
        up[..., 1] = 1j * (1.0 - a / 2.0)
        up[..., 2:] = -1j * p
        return StiefelPoint(um, up)

    return _patch_from_lift(
        "zero",
        r,
        lift,
        base_dim=2 * n - 2,
        expected_mu=-2.0,
        expected_spectrum=((-2.0, 1), (-1.0, 2 * n - 2)),
    )


def horosphere_defining_residual(vec, r: float) -> float:
    """| |z_0 - z_1|^2 - e^{2r} | for a point of the lifted horosphere."""
    v = np.asarray(vec, dtype=complex)
    return abs(abs(v[0] - v[1]) ** 2 - math.exp(2.0 * r))
