"""Hypersurface patches in the hyperquadric, finite-difference shape
operators, and certification of the Hopf condition.

A patch stores a chart map into the hyperquadric together with the closed-form
lift of a unit normal.  Chart convention: params[0] is always the fiber angle
"theta"; the coordinate at t_index maps (after horizontal projection) onto the
structure direction, and seeds the tangent frame.  The remaining coordinates
are orthonormalized greedily; the frame choice affects only presentation,
never eigenvalues.

Orientation: the classical patches carry the normal e^{i theta} i T, for which
the structure eigenvalue is -2coth 2r / -2tanh 2r / -2.  Reports also carry
the eigenvalue table of the opposite normal, since both sign conventions are
in circulation for these examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ExceptionalPairError, ImmersionError, InputError
from .fibration import (
    FD_STEP,
    AdSPoint,
    horizontal_part,
    space_norm,
    tangent_project_ads,
)
from .linalg import AlgebraElement, matrix_exp, real_form
from .report import make_check
from .twistor import (
    StiefelPoint,
    curve_coefficients,
    is_horizontal,
    lift_coefficients,
    unit_tangent_lift,
)

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
    "build_patch",
    "structure_lift",
    "phi_project",
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
    "parallel_patch_residual",
]


@dataclass(frozen=True, eq=False)
class HypersurfacePatch:
    """A parametrized piece of a real hypersurface, seen through its lift.

    eval_func maps a chart point (1-d float array, params[0] = fiber angle) to
    a vector on the hyperquadric; normal_func gives the horizontal unit-normal
    lift at the same chart point.
    """

    sign: str
    r: Optional[float]
    dim_n: int
    param_names: Tuple[str, ...]
    ranges: Tuple[Tuple[float, float], ...]
    center: np.ndarray
    eval_func: Callable[[np.ndarray], np.ndarray]
    normal_func: Callable[[np.ndarray], np.ndarray]
    t_index: int
    label: str = ""
    degenerate: bool = False
    degenerate_reason: str = ""
    expected_mu: Optional[float] = None
    expected_spectrum: Optional[Tuple[Tuple[float, int], ...]] = None

    def point(self, at) -> np.ndarray:
        vec = np.asarray(self.eval_func(np.asarray(at, dtype=float)), dtype=complex)
        return AdSPoint(vec).vec

    def normal(self, at) -> np.ndarray:
        return np.asarray(self.normal_func(np.asarray(at, dtype=float)), dtype=complex)

    def grid(self, density: int = GRID_DENSITY, cap: int = GRID_CAP) -> List[np.ndarray]:
        """Lexicographic product grid over the chart ranges, subsampled to cap;
        only the kept points are decoded from their lexicographic indices."""
        if density < 2:
            raise InputError("grid density must be >= 2")
        axes = [np.linspace(lo, hi, density) for lo, hi in self.ranges]
        total = density ** len(axes)
        keep = np.unique(np.round(np.linspace(0, total - 1, min(cap, total))).astype(int))
        digits = np.unravel_index(keep, (density,) * len(axes))
        return list(np.stack([ax[d] for ax, d in zip(axes, digits)], axis=1))


class ShapeResult(NamedTuple):
    matrix: np.ndarray
    frame: np.ndarray  # (dim, n+1): the horizontal frame, one vector per row
    lsq_residual: float
    min_singular: float


@dataclass(frozen=True, eq=False)
class ShapeReport:
    """Aggregated shape-operator data over a chart grid.

    eigenvalues holds (value, multiplicity) clusters for the stored normal;
    eigenvalues_opposite is the same table for the negated normal.
    unit_multiplicity and rho_values are filled only for orbit patches
    (minimum unit-cluster size, and (lam, transverse eigenvalue) per grid
    point).  checks holds one report.make_check record per judged tolerance;
    certified is all(pass) and failures names the failing records.
    """

    mu: float
    mu_deviation: float
    eigenvalues: Tuple[Tuple[float, int], ...]
    eigenvalues_opposite: Tuple[Tuple[float, int], ...]
    hopf_residual: float
    symmetry_residual: float
    lsq_residual: float
    pairing_residuals: Tuple[float, ...]
    exceptional_pairs: int
    checks: Tuple[dict, ...]
    certified: bool
    failures: Tuple[str, ...]
    samples: Tuple[Tuple[str, Tuple[float, ...]], ...]
    unit_multiplicity: int = -1
    rho_values: Tuple[Tuple[float, float], ...] = ()


def grid_key(at) -> str:
    return "(" + ",".join(format(float(c), ".6g") for c in np.asarray(at).ravel()) + ")"


def structure_lift(patch: HypersurfacePatch, at) -> np.ndarray:
    """Horizontal lift of the structure vector: -i times the normal lift."""
    return -1j * patch.normal(at)


def phi_project(patch: HypersurfacePatch, at, x, tol: float = 1e-6) -> np.ndarray:
    """Tangential part of the complex structure applied to a tangent vector.

    phi X = iX - <iX, N> N.  Requires x tangent and horizontal at the point.
    """
    psi = patch.point(at)
    xv = np.asarray(x, dtype=complex)
    res = max(abs(real_form(xv, psi)), abs(real_form(xv, 1j * psi)))
    if res > tol:
        raise InputError(f"vector not horizontal-tangent: residual {res:.3e}")
    normal = patch.normal(at)
    ix = 1j * xv
    return ix - real_form(ix, normal) * normal


def pairing_residual(lam: float, lam_star: float, mu: float, c: float = -1.0) -> float:
    """Defect of the principal-curvature pairing (lam mu + 2c)/(2 lam - mu).

    Raises ExceptionalPairError when the denominator vanishes (the |mu| = 2
    exceptional case, reported separately from regular pairs).
    """
    denom = 2.0 * lam - mu
    if abs(denom) <= 1e-8:
        raise ExceptionalPairError(
            f"degenerate pair: 2*lam - mu = {denom:.3e} at lam = {lam}"
        )
    return abs(lam_star - (lam * mu + 2.0 * c) / denom)


def cluster_eigenvalues(
    values: Sequence[float], tol: float = CLUSTER_TOL
) -> List[Tuple[float, int]]:
    """Merge sorted eigenvalues into (mean, multiplicity) buckets.

    Values within tol of their neighbor share a bucket; tol sits above the
    finite-difference noise floor and below every closed-form gap used here.
    """
    vals = sorted(float(v) for v in values)
    clusters: List[List[float]] = [[vals[0]]]
    for v in vals[1:]:
        if v - clusters[-1][-1] <= tol:
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


def build_patch(
    sign: str,
    r: float,
    lift: Callable[[np.ndarray], StiefelPoint],
    base_dim: int,
    *,
    center: Optional[np.ndarray] = None,
    ranges: Optional[Sequence[Tuple[float, float]]] = None,
    label: str = "",
    expected_mu: Optional[float] = None,
    expected_spectrum: Optional[Tuple[Tuple[float, int], ...]] = None,
    check_horizontal: bool = True,
    fd_step: float = FD_STEP,
) -> HypersurfacePatch:
    """Assemble a patch from a horizontal Stiefel lift over a base chart.

    Chart is (theta, t, q_0 ... q_{base_dim-1}); the curve parameter t seeds
    the structure direction.  The lift is checked for horizontality along
    every base axis at the chart center and rejected otherwise.  sign "plus"
    at r = 0 is constructible but flagged degenerate (focal collapse), and
    sign "minus" at r = 0 likewise (the image drops rank).
    """
    q_center = np.zeros(base_dim) if center is None else np.asarray(center, dtype=float)
    if q_center.size != base_dim:
        raise InputError("center size does not match base_dim")
    probe = lift(q_center)
    dim_n = probe.dim_n

    if check_horizontal:
        for axis in range(base_dim):
            direction = np.zeros(base_dim)
            direction[axis] = 1.0

            def sliced(x: float, d=direction) -> StiefelPoint:
                return lift(q_center + x * d)

            co = lift_coefficients(sliced, 0.0, step=fd_step)
            if not is_horizontal(sign, co, tol=1e-6):
                raise InputError(
                    f"lift fails the {sign!r} horizontality condition on base "
                    f"axis {axis}"
                )

    def eval_func(at: np.ndarray) -> np.ndarray:
        theta, t, q = at[0], at[1], at[2:]
        p = lift(q)
        cm, cp = curve_coefficients(sign, r, t)
        return np.exp(1j * theta) * (cm * p.u_minus + cp * p.u_plus)

    def normal_func(at: np.ndarray) -> np.ndarray:
        theta, t, q = at[0], at[1], at[2:]
        p = lift(q)
        return np.exp(1j * theta) * (1j * unit_tangent_lift(sign, r, p, t))

    degenerate = False
    reason = ""
    if sign == "plus" and abs(r) < 1e-14:
        degenerate = True
        reason = "focal collapse at r = 0: the image is the complex subspace"
    if sign == "minus" and abs(r) < 1e-14:
        degenerate = True
        reason = "r = 0: the curve parameter is gauge and the image drops rank"

    names = ("theta", "t") + tuple(f"q{i}" for i in range(base_dim))
    if ranges is None:
        full_ranges = ((-1.0, 1.0), (-0.8, 0.8)) + ((-0.3, 0.3),) * base_dim
    else:
        full_ranges = tuple((float(lo), float(hi)) for lo, hi in ranges)
        if len(full_ranges) != base_dim + 2:
            raise InputError("ranges must cover theta, t and every base coordinate")

    full_center = np.concatenate(([0.0, 0.0], q_center))
    return HypersurfacePatch(
        sign=sign,
        r=r,
        dim_n=dim_n,
        param_names=names,
        ranges=full_ranges,
        center=full_center,
        eval_func=eval_func,
        normal_func=normal_func,
        t_index=1,
        label=label or f"patch-{sign}",
        degenerate=degenerate,
        degenerate_reason=reason,
        expected_mu=expected_mu,
        expected_spectrum=expected_spectrum,
    )


def _realify(vecs: np.ndarray) -> np.ndarray:
    """(Re, Im) coordinates of a vector, or of a stack as the columns of a
    C-contiguous matrix (the layout fixes the BLAS order of jac @ velocity)."""
    return np.ascontiguousarray(np.concatenate([vecs.real, vecs.imag], axis=-1).T)


def _central_differences(func, at: np.ndarray, directions, step: float) -> np.ndarray:
    """One central difference (func(at + step*d) - func(at - step*d)) / (2*step)
    per direction d, as the rows of a complex array."""
    return np.array(
        [(func(at + step * d) - func(at - step * d)) / (2 * step) for d in directions],
        dtype=complex,
    )


def shape_operator(
    patch: HypersurfacePatch,
    at,
    step: float = FD_STEP,
    rank_tol: float = RANK_TOL,
) -> ShapeResult:
    """Finite-difference shape operator in an orthonormal horizontal frame.

    Steps, each on the whole stack of directions:
    - chart Jacobian: one central difference per chart coordinate;
    - rank gate: the projected non-fiber columns need a smallest singular
      value >= rank_tol;
    - frame: the structure direction (column t_index), then one row-wise
      modified Gram-Schmidt sweep over the other columns in chart order.  Each
      accepted vector leaves all later columns at once; a column below norm
      1e-8 is skipped and removes nothing.  Every column thus gets the updates
      of the column-by-column loop, in its order, with the same bits;
    - velocities: one least-squares solve per frame vector;
    - normal derivative: one central difference along each velocity;
    - matrix: A[i,j] = <-D_{E_j} N, E_i>, one Gram call.  Pairing against
      horizontal frame vectors annihilates any vertical contamination.
    """
    if patch.degenerate:
        raise ImmersionError(
            f"degenerate patch {patch.label!r}: {patch.degenerate_reason}"
        )
    at = np.asarray(at, dtype=float)
    psi0 = patch.point(at)
    dim = 2 * patch.dim_n - 1

    columns = _central_differences(patch.eval_func, at, np.eye(len(at)), step)
    # Non-fiber columns, projected: row k - 1 belongs to chart coordinate k.
    projected = horizontal_part(tangent_project_ads(columns[1:], psi0), psi0, tol=1e-5)
    singulars = np.linalg.svd(_realify(projected), compute_uv=False)
    min_singular = float(singulars[-1])
    if min_singular < rank_tol:
        raise ImmersionError(
            f"rank deficiency at {grid_key(at)}: smallest singular value "
            f"{min_singular:.3e} < {rank_tol:.1e}"
        )

    seed = projected[patch.t_index - 1]
    frame = [seed / space_norm(seed, psi0)]
    rest = np.delete(projected, patch.t_index - 1, axis=0)
    rest -= real_form(rest, frame[0])[:, None] * frame[0]
    for i, vec in enumerate(rest):
        norm = space_norm(vec, psi0)
        if norm < 1e-8:
            continue
        e = vec / norm
        frame.append(e)
        rest[i + 1 :] -= real_form(rest[i + 1 :], e)[:, None] * e
    if len(frame) != dim:
        raise ImmersionError(
            f"frame collapsed at {grid_key(at)}: {len(frame)} of {dim} directions"
        )
    frame = np.array(frame)

    jac = _realify(columns)
    targets = [_realify(e) for e in frame]
    velocities = [np.linalg.lstsq(jac, t, rcond=None)[0] for t in targets]
    lsq_residual = max(
        float(np.linalg.norm(jac @ v - t)) for v, t in zip(velocities, targets)
    )
    derivatives = _central_differences(patch.normal, at, velocities, step)
    w = -horizontal_part(tangent_project_ads(derivatives, psi0), psi0, tol=1e-3)
    # matrix[i, j] = <w_j, e_i>
    matrix = real_form(w[None], frame[:, None])
    return ShapeResult(matrix, frame, lsq_residual, min_singular)


def _point_report(patch, at, step, rank_tol):
    sr = shape_operator(patch, at, step=step, rank_tol=rank_tol)
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
    normal0 = patch.normal(at)
    ix = 1j * (eigvecs.T[regular] @ sr.frame)
    phi_x = ix - real_form(ix, normal0)[:, None] * normal0
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
    operator, least-squares quality, and the median structure eigenvalue
    against its closed form when the patch carries one.  Classical patches
    add constancy of the structure eigenvalue across the grid, the
    principal-curvature pairing on non-exceptional pairs, and the same
    cluster multiplicities at every grid point.  Orbit patches (sign "orbit")
    instead require the structure eigenvalue at every grid point
    ("mu-pointwise") and the unit eigenvalue with multiplicity >= n-1.  Each
    condition is one make_check record in the report's checks.  Shape
    operators use the "rank" tolerance as their rank gate.
    """
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tols.update(tolerances)
    if grid is None:
        grid = patch.grid()
    points = [
        _point_report(patch, np.asarray(g, dtype=float), step, tols["rank"])
        for g in grid
    ]

    mus = [p["mu"] for p in points]
    mu = float(np.median(mus))
    mu_dev = max(abs(m - mu) for m in mus)
    hopf = max(p["hopf"] for p in points)
    symmetry = max(p["symmetry"] for p in points)
    lsq = max(p["lsq"] for p in points)
    pairings = tuple(r for p in points for r in p["pairings"])

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
        checks.append(make_check("mu", mu, patch.expected_mu, tols["mu"]))
    unit_mult = -1
    rho_values: Tuple[Tuple[float, float], ...] = ()
    if patch.sign == "orbit":
        need = patch.dim_n - 1
        unit_mult = min(
            sum(1 for v in p["eigvals"] if abs(v - 1.0) <= tols["unit"])
            for p in points
        )
        lam_slot = patch.param_names.index("lam")
        rho_values = tuple(
            (float(p["at"][lam_slot]), pick_extra_eigenvalue(p["eigvals"], 2.0))
            for p in points
        )
        worst = max(abs(m - patch.expected_mu) for m in mus)
        checks += [
            make_check("mu-pointwise", worst, 0.0, tols["mu"]),
            make_check(
                "unit-multiplicity",
                float(unit_mult),
                float(need),
                0.0,
                passed=unit_mult >= need,
            ),
        ]
    else:
        checks.append(make_check("mu-constancy", mu_dev, 0.0, tols["mu-constancy"]))
        if pairings:
            checks.append(
                make_check("pairing-max", max(pairings), 0.0, tols["pairing"])
            )
        checks.append(
            make_check(
                "multiplicity-pattern",
                0.0 if consistent else 1.0,
                0.0,
                0.0,
                passed=consistent,
            )
        )

    failures = tuple(c["name"] for c in checks if not c["pass"])
    return ShapeReport(
        mu=mu,
        mu_deviation=mu_dev,
        eigenvalues=clusters,
        eigenvalues_opposite=tuple((-v, m) for v, m in reversed(clusters)),
        hopf_residual=hopf,
        symmetry_residual=symmetry,
        lsq_residual=lsq,
        pairing_residuals=pairings,
        exceptional_pairs=sum(p["exceptional"] for p in points),
        checks=tuple(checks),
        certified=not failures,
        failures=failures,
        samples=tuple((grid_key(p["at"]), tuple(p["eigvals"])) for p in points),
        unit_multiplicity=unit_mult,
        rho_values=rho_values,
    )


def _complexify(q: np.ndarray) -> np.ndarray:
    return q[0::2] + 1j * q[1::2]


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
        z = _complexify(q[: 2 * k])
        w = _complexify(q[2 * k :])
        norm_w = float(np.vdot(w, w).real)
        if norm_w >= 1.0:
            raise InputError("chart leaves the unit ball of the spacelike block")
        um = np.zeros(n + 1, dtype=complex)
        um[0] = math.sqrt(1.0 + float(np.vdot(z, z).real))
        um[1 : k + 1] = z
        up = np.zeros(n + 1, dtype=complex)
        up[k + 1] = math.sqrt(1.0 - norm_w)
        up[k + 2 :] = w
        return StiefelPoint(um, up)

    coth = lambda x: math.cosh(x) / math.sinh(x)
    spectrum = [(-2.0 * coth(2.0 * r), 1)]
    if k > 0:
        spectrum.append((-math.tanh(r), 2 * k))
    if k < n - 1:
        spectrum.append((-coth(r), 2 * (n - 1 - k)))
    return build_patch(
        "plus",
        r,
        lift,
        base_dim=2 * n - 2,
        label=f"tube-chk(n={n},k={k},r={r})",
        expected_mu=-2.0 * coth(2.0 * r),
        expected_spectrum=tuple(sorted(spectrum)),
    )


def tube_real(n: int, r: float) -> HypersurfacePatch:
    """Tube of radius r around the totally geodesic real form (sign "minus").

    Lift: real special-orthochronous motions applied to the first two basis
    vectors, parametrized by n-1 boosts and n-1 rotations.  Real matrices give
    alpha = 0 and real beta, hence the "minus" horizontality.  r = 0 is the
    real form itself and is flagged degenerate.
    """
    if n < 2:
        raise InputError(f"need n >= 2, got n={n}")

    def lift(q: np.ndarray) -> StiefelPoint:
        # Boosts e0^ej carry q[:n-1], rotations e1^ej carry q[n-1:]; the
        # supports are disjoint, so every entry is one coordinate.
        gen = np.zeros((n + 1, n + 1), dtype=complex)
        gen[0, 2:] = gen[2:, 0] = q[: n - 1]
        gen[2:, 1] = q[n - 1 :]
        gen[1, 2:] -= q[n - 1 :]
        group = matrix_exp(AlgebraElement(gen, n))
        return StiefelPoint(group.matrix[:, 0], group.matrix[:, 1])

    coth = lambda x: math.cosh(x) / math.sinh(x)
    if abs(r) < 1e-14:
        expected_mu = 0.0
        spectrum = None
    else:
        expected_mu = -2.0 * math.tanh(2.0 * r)
        spectrum = tuple(
            sorted(
                [(-2.0 * math.tanh(2.0 * r), 1), (-coth(r), n - 1), (-math.tanh(r), n - 1)]
            )
        )
    return build_patch(
        "minus",
        r,
        lift,
        base_dim=2 * n - 2,
        label=f"tube-rhn(n={n},r={r})",
        expected_mu=expected_mu,
        expected_spectrum=spectrum,
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
        a = float(np.vdot(p, p).real)
        um = np.zeros(n + 1, dtype=complex)
        um[0] = 1.0 + a / 2.0
        um[1] = a / 2.0
        um[2:] = p
        up = np.zeros(n + 1, dtype=complex)
        up[0] = -1j * a / 2.0
        up[1] = 1j * (1.0 - a / 2.0)
        up[2:] = -1j * p
        return StiefelPoint(um, up)

    return build_patch(
        "zero",
        r,
        lift,
        base_dim=2 * n - 2,
        label=f"horosphere(n={n},r={r})",
        expected_mu=-2.0,
        expected_spectrum=((-2.0, 1), (-1.0, 2 * n - 2)),
    )


def horosphere_defining_residual(vec, r: float) -> float:
    """| |z_0 - z_1|^2 - e^{2r} | for a point of the lifted horosphere."""
    v = np.asarray(vec, dtype=complex)
    return abs(abs(v[0] - v[1]) ** 2 - math.exp(2.0 * r))


def parallel_patch_residual(
    patch: HypersurfacePatch,
    shifted: HypersurfacePatch,
    r_prime: float,
    at,
) -> float:
    """|| cosh r' Psi_r + sinh r' N_r - Psi_{r+r'} || at one chart point."""
    base = patch.point(at)
    normal = patch.normal(at)
    target = shifted.point(at)
    diff = math.cosh(r_prime) * base + math.sinh(r_prime) * normal - target
    return float(np.linalg.norm(diff))
