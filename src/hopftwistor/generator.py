"""Constrained algebra-valued one-forms with constant coefficients, their
flatness test, and the mu = 2 hypersurface patches swept out by the groups
they generate.

The block layout (sizes 1, 1, n-1) of a generator form on a direction Y:

    [ i a0(Y)            (i/2)(a0-a1)(Y)     t_x(Y) - i t_y0(Y) ]
    [ (i/2)(a1-a0)(Y)    i a1(Y)            -t_x(Y) + i t_y1(Y) ]
    [ x(Y) + i y0(Y)     x(Y) + i y1(Y)      w1(Y) + i w2(Y)    ]

with a0, a1 scalar, x, y0, y1 valued in R^{n-1}, w1 alternating and w2
symmetric.  Flatness (all nine constant-coefficient structure equations) is
equivalent to pairwise commutation of the images of the coordinate basis,
which serves as an independent cross-check.

The n = 2 one-parameter construction is the dim_g = 1 case: its six scalar
constants (alpha0, alpha1, x, y0, y1, w) fill the 1 x 1 blocks, with w the
single entry of the symmetric block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ConfigError, ImmersionError, InputError, ValidationError
from .fibration import FD_STEP
from .hypersurface import HypersurfacePatch, _central_differences
from .linalg import AlgebraElement, GroupElement, matrix_exp, real_form

FORM_TOL = 1e-12

__all__ = [
    "FORM_TOL",
    "GeneratorForm",
    "form_value",
    "maurer_cartan_residual",
    "commutator_residual",
    "two_path_residual",
    "product_group_map",
    "orbit_patch_from_form",
    "extra_curvature",
    "is_horosphere_data",
    "parse_constants",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class GeneratorForm:
    """Constant-coefficient generator data on R^{dim_g}, dim_g = n - 1.

    alpha0, alpha1: (dim_g,).  x_form, y0, y1: (n-1, dim_g), column j is the
    value on the j-th coordinate direction.  w1, w2: (dim_g, n-1, n-1) stacks;
    every w1 slice must be alternating and every w2 slice symmetric, exactly.
    y0 and y1 must satisfy the wedge constraint
    y0(e_i).y1(e_j) = y0(e_j).y1(e_i).  Every entry must be finite.
    """

    alpha0: np.ndarray
    alpha1: np.ndarray
    x_form: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self):
        for name in ("alpha0", "alpha1", "x_form", "y0", "y1", "w1", "w2"):
            value = _readonly(getattr(self, name))
            if not np.all(np.isfinite(value)):
                raise InputError(f"{name} has non-finite entries")
            object.__setattr__(self, name, value)
        dim_g = self.alpha0.size
        m = self.x_form.shape[0] if self.x_form.ndim == 2 else -1
        if dim_g < 1 or m != dim_g:
            raise InputError(
                f"need square coefficient blocks (dim_g = n-1 >= 1), got "
                f"alpha of size {dim_g} and x block {self.x_form.shape}"
            )
        shapes = {
            "alpha1": (dim_g,),
            "x_form": (m, dim_g),
            "y0": (m, dim_g),
            "y1": (m, dim_g),
            "w1": (dim_g, m, m),
            "w2": (dim_g, m, m),
        }
        for name, want in shapes.items():
            got = getattr(self, name).shape
            if got != want:
                raise InputError(f"{name} has shape {got}, expected {want}")
        alt = float(np.abs(self.w1 + np.transpose(self.w1, (0, 2, 1))).max())
        if alt > FORM_TOL:
            raise ValidationError(
                f"rotation block is not alternating: residual {alt:.3e}",
                residual=alt,
            )
        sym = float(np.abs(self.w2 - np.transpose(self.w2, (0, 2, 1))).max())
        if sym > FORM_TOL:
            raise ValidationError(
                f"symmetric block is not symmetric: residual {sym:.3e}",
                residual=sym,
            )
        gram = self.y0.T @ self.y1
        wedge = float(np.abs(gram - gram.T).max())
        if wedge > FORM_TOL:
            raise ValidationError(
                f"y-blocks violate the wedge constraint: residual {wedge:.3e}",
                residual=wedge,
            )

    @property
    def dim_g(self) -> int:
        return self.alpha0.size

    @property
    def dim_n(self) -> int:
        return self.x_form.shape[0] + 1

    def scalars(self) -> Tuple[float, float, float, float, float, float]:
        """(alpha0, alpha1, x, y0, y1, w) of an n = 2 (dim_g = 1) form."""
        if self.dim_g != 1:
            raise InputError(f"scalar constants need dim_g = 1, got {self.dim_g}")
        return (
            float(self.alpha0[0]),
            float(self.alpha1[0]),
            float(self.x_form[0, 0]),
            float(self.y0[0, 0]),
            float(self.y1[0, 0]),
            float(self.w2[0, 0, 0]),
        )


def _scalar_form(alpha0, alpha1, x, y0, y1, w) -> GeneratorForm:
    """The dim_g = 1 form carrying the six one-parameter constants."""
    return GeneratorForm(
        alpha0=[alpha0],
        alpha1=[alpha1],
        x_form=[[x]],
        y0=[[y0]],
        y1=[[y1]],
        w1=np.zeros((1, 1, 1)),
        w2=[[[w]]],
    )


def form_value(f: GeneratorForm, y) -> AlgebraElement:
    """Evaluate the form on a direction; the result always lands in u(1,n)."""
    yv = np.asarray(y, dtype=float)
    if yv.shape != (f.dim_g,):
        raise InputError(f"direction must have length {f.dim_g}")
    a0 = float(f.alpha0 @ yv)
    a1 = float(f.alpha1 @ yv)
    xv = f.x_form @ yv
    y0v = f.y0 @ yv
    y1v = f.y1 @ yv
    w1v = np.tensordot(f.w1, yv, axes=(0, 0))
    w2v = np.tensordot(f.w2, yv, axes=(0, 0))
    n = f.dim_n
    m = np.zeros((n + 1, n + 1), dtype=complex)
    m[0, 0] = 1j * a0
    m[1, 1] = 1j * a1
    m[0, 1] = 0.5j * (a0 - a1)
    m[1, 0] = 0.5j * (a1 - a0)
    m[0, 2:] = xv - 1j * y0v
    m[1, 2:] = -xv + 1j * y1v
    m[2:, 0] = xv + 1j * y0v
    m[2:, 1] = xv + 1j * y1v
    m[2:, 2:] = w1v + 1j * w2v
    return AlgebraElement(m, n, tol=FORM_TOL)


def _wedge_scalar(s_i, s_j, t_i, t_j):
    return s_i * t_j - s_j * t_i


def maurer_cartan_residual(f: GeneratorForm) -> float:
    """Max norm of the nine constant-coefficient structure equations over all
    coordinate pairs.  dim_g = 1 has no pairs and is flat by convention.
    """
    g = f.dim_g
    if g < 2:
        return 0.0
    worst = 0.0
    for i in range(g):
        for j in range(i + 1, g):
            a0i, a0j = f.alpha0[i], f.alpha0[j]
            a1i, a1j = f.alpha1[i], f.alpha1[j]
            xi, xj = f.x_form[:, i], f.x_form[:, j]
            y0i, y0j = f.y0[:, i], f.y0[:, j]
            y1i, y1j = f.y1[:, i], f.y1[:, j]
            w1i, w1j = f.w1[i], f.w1[j]
            w2i, w2j = f.w2[i], f.w2[j]

            eqs = [
                2.0 * (xi @ y0j - xj @ y0i),
                -2.0 * (xi @ y1j - xj @ y1i),
                y0i @ y1j - y0j @ y1i,
                -_wedge_scalar(y0i, y0j, a0i, a0j)
                - 0.5 * _wedge_scalar(y1i, y1j, a1i, a1j)
                + 0.5 * _wedge_scalar(y1i, y1j, a0i, a0j)
                + (w1i @ xj - w1j @ xi)
                - (w2i @ y0j - w2j @ y0i),
                _wedge_scalar(xi, xj, a0i, a0j)
                + _wedge_scalar(xi, xj, a1i, a1j)
                + (w2i @ xj - w2j @ xi)
                + (w1i @ y0j - w1j @ y0i),
                -0.5 * _wedge_scalar(y0i, y0j, a0i, a0j)
                + 0.5 * _wedge_scalar(y0i, y0j, a1i, a1j)
                - _wedge_scalar(y1i, y1j, a1i, a1j)
                + (w1i @ xj - w1j @ xi)
                - (w2i @ y1j - w2j @ y1i),
                _wedge_scalar(xi, xj, a0i, a0j)
                + _wedge_scalar(xi, xj, a1i, a1j)
                + (w1i @ y1j - w1j @ y1i)
                + (w2i @ xj - w2j @ xi),
                np.outer(y0i, y0j)
                - np.outer(y0j, y0i)
                - np.outer(y1i, y1j)
                + np.outer(y1j, y1i)
                + (w1i @ w1j - w1j @ w1i)
                - (w2i @ w2j - w2j @ w2i),
                np.outer(y0i, xj)
                - np.outer(y0j, xi)
                - np.outer(xi, y0j)
                + np.outer(xj, y0i)
                + np.outer(xi, y1j)
                - np.outer(xj, y1i)
                - np.outer(y1i, xj)
                + np.outer(y1j, xi)
                + (w1i @ w2j - w1j @ w2i)
                + (w2i @ w1j - w2j @ w1i),
            ]
            for eq in eqs:
                worst = max(worst, float(np.max(np.abs(eq))))
    return worst


def _basis_values(f: GeneratorForm) -> List[AlgebraElement]:
    """The form on each coordinate direction, in order."""
    return [form_value(f, e) for e in np.eye(f.dim_g)]


def commutator_residual(f: GeneratorForm) -> float:
    """Max-abs commutator of the coordinate images; an independent route to
    the same flatness condition for constant coefficients.
    """
    if f.dim_g < 2:
        return 0.0
    mats = [x.matrix for x in _basis_values(f)]
    worst = 0.0
    for i in range(f.dim_g):
        for j in range(i + 1, f.dim_g):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            worst = max(worst, float(np.abs(comm).max()))
    return worst


def two_path_residual(f: GeneratorForm, delta: float = 0.5) -> float:
    """Path-independence witness: integrate along the two edge paths of the
    coordinate square spanned by the first two directions and compare.
    """
    if f.dim_g < 2:
        return 0.0
    x1, x2 = _basis_values(f)[:2]
    g1 = matrix_exp(x1, delta)
    g2 = matrix_exp(x2, delta)
    a = g1.compose(g2)
    b = g2.compose(g1)
    return float(np.abs(a.matrix - b.matrix).max())


def _require_flat(f: GeneratorForm, flat_tol: float) -> None:
    res = maurer_cartan_residual(f)
    if res > flat_tol:
        raise InputError(
            f"form is not flat (residual {res:.3e}); the product map is "
            f"path dependent"
        )


def _ordered_product(values: Sequence[AlgebraElement], coords) -> GroupElement:
    group = matrix_exp(values[0], float(coords[0]))
    for x, c in zip(values[1:], coords[1:]):
        group = group.compose(matrix_exp(x, float(c)))
    return group


def product_group_map(f: GeneratorForm, coords, flat_tol: float = 1e-9) -> GroupElement:
    """Primitive of a flat form: ordered product of coordinate exponentials.

    Refuses non-flat forms, for which the product depends on the path.
    """
    _require_flat(f, flat_tol)
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (f.dim_g,):
        raise InputError(f"coordinates must have length {f.dim_g}")
    return _ordered_product(_basis_values(f), coords)


def is_horosphere_data(f: GeneratorForm) -> bool:
    """Exact test y0 == y1 on the constants of an n = 2 form; equivalent to
    the patch being an open piece of a horosphere, and to a constant
    transverse curvature.
    """
    _, _, _, y0, y1, _ = f.scalars()
    return y0 == y1


def extra_curvature(f: GeneratorForm, lam: float) -> float:
    """Closed form of the transverse principal curvature at height lam, for
    an n = 2 form.

    rho = a/b with a = lam(2w - a0 - a1) + 2 y1 + 3 lam^2 (y0 - y1) and
    b = a + 2(y0 - y1); b = 0 means the transverse direction collapses.
    """
    a0, a1, _, y0, y1, w = f.scalars()
    lam = float(lam)
    a = lam * (2.0 * w - a0 - a1) + 2.0 * y1 + 3.0 * lam * lam * (y0 - y1)
    b = a + 2.0 * (y0 - y1)
    if abs(b) <= 1e-10:
        raise ImmersionError(
            f"transverse direction collapses at lam = {lam}: b = {b:.3e}"
        )
    return a / b


def _documented_degeneracy(f: GeneratorForm) -> bool:
    """The n = 2 non-immersion y0 = y1 = 0 with alpha0 + alpha1 = 2w != 0."""
    if f.dim_g != 1:
        return False
    a0, a1, _, y0, y1, w = f.scalars()
    return (
        abs(y0) <= 1e-12
        and abs(y1) <= 1e-12
        and abs(a0 + a1 - 2.0 * w) <= 1e-12
        and abs(w) > 1e-12
    )


def _profile_vector(h: float, lam: float, p: np.ndarray) -> np.ndarray:
    head = np.array(
        [1.0 + lam * lam / 2.0 - 1j * h, -lam * lam / 2.0 + 1j * h], dtype=complex
    )
    return np.concatenate([head, lam * p.astype(complex)])


def _profile_normal(h: float, lam: float, p: np.ndarray) -> np.ndarray:
    head = np.array(
        [-lam * lam / 2.0 + 1j * h, lam * lam / 2.0 - 1.0 - 1j * h], dtype=complex
    )
    return np.concatenate([head, -lam * p.astype(complex)])


_LAM_RANGE = (0.4, 1.6)


def orbit_patch_from_form(f: GeneratorForm) -> HypersurfacePatch:
    """Chart (theta, x_1..x_{dim_g}, h, lam, sphere coords) for flat forms.

    The group map is the ordered product of coordinate exponentials, which is
    a primitive exactly when the form is flat; flatness is checked and the
    coordinate images are built once, here.  For n >= 3 the chart adds
    n - 2 sphere coordinates and the height lam stays in [0.4, 1.6].  At
    n = 2 the documented non-immersion y0 = y1 = 0 with
    alpha0 + alpha1 = 2w != 0 is rejected.
    """
    if _documented_degeneracy(f):
        raise ImmersionError(
            "not an immersion: y0 = y1 = 0 with alpha0 + alpha1 = 2w != 0"
        )
    _require_flat(f, 1e-9)
    values = _basis_values(f)
    n = f.dim_n
    nx = f.dim_g
    names = ("theta",) + tuple(f"x{i}" for i in range(nx)) + ("h", "lam")
    ranges = ((-0.8, 0.8),) + ((-0.5, 0.5),) * nx + ((-0.8, 0.8), _LAM_RANGE)
    center = [0.0] * (2 + nx) + [0.5 * (_LAM_RANGE[0] + _LAM_RANGE[1])]
    if n >= 3:
        names = names + tuple(f"c{i}" for i in range(n - 2))
        ranges = ranges + ((-0.25, 0.25),) * (n - 2)
        center = center + [0.0] * (n - 2)

    def chart(at: np.ndarray, profile) -> np.ndarray:
        h = at[1 + nx]
        lam = at[2 + nx]
        c = at[3 + nx :]
        nc = float(c @ c)
        if nc >= 1.0:
            raise InputError("sphere chart leaves the unit ball")
        p = np.concatenate([[math.sqrt(1.0 - nc)], c])
        g = _ordered_product(values, at[1 : 1 + nx])
        return np.exp(1j * at[0]) * (g.matrix @ profile(h, lam, p))

    def eval_func(at: np.ndarray) -> np.ndarray:
        return chart(at, _profile_vector)

    def normal_func(at: np.ndarray) -> np.ndarray:
        return chart(at, _profile_normal)

    patch = HypersurfacePatch(
        sign="orbit",
        r=None,
        dim_n=n,
        param_names=names,
        ranges=ranges,
        center=np.array(center),
        eval_func=eval_func,
        normal_func=normal_func,
        t_index=1 + nx,
        label=f"form-orbit(n={n})",
        expected_mu=2.0,
    )
    columns = _central_differences(eval_func, patch.center, np.eye(len(names)), FD_STEP)
    res = float(np.abs(real_form(columns[1:], patch.normal(patch.center))).max())
    if res > 1e-6:
        raise InputError(
            f"normal is not orthogonal to the chart directions (residual "
            f"{res:.3e}); the generator violates the tangency identity"
        )
    return patch


_ONE_PARAM_KEYS = ("alpha0", "alpha1", "x", "y0", "y1", "w")
_FORM_KEYS = ("alpha0", "alpha1", "x_form", "y0", "y1", "w1", "w2")


def _real_number(v) -> bool:
    """A JSON number; true and false are not numbers here."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def parse_constants(data) -> GeneratorForm:
    """Build generator data from a decoded JSON document.

    kind "one-param": six scalar entries, missing ones default to 0, not all
    zero; the result is the n = 2 form with dim_g = 1.
    kind "block-form": vector/matrix entries as nested lists of numbers.
    Anything malformed, a boolean or a string in place of a number included,
    raises ConfigError.
    """
    if not isinstance(data, dict):
        raise ConfigError("constants document must be a JSON object")
    kind = data.get("kind")
    if kind == "one-param":
        unknown = set(data) - set(_ONE_PARAM_KEYS) - {"kind"}
        if unknown:
            raise ConfigError(f"unknown one-param fields: {sorted(unknown)}")
        vals = []
        for key in _ONE_PARAM_KEYS:
            v = data.get(key, 0.0)
            if not _real_number(v):
                raise ConfigError(f"field {key!r} must be a real number")
            vals.append(float(v))
        if max(abs(v) for v in vals) == 0.0:
            raise ConfigError("invalid one-param constants: all six constants vanish")
        try:
            return _scalar_form(*vals)
        except (ValidationError, InputError) as exc:
            raise ConfigError(f"invalid one-param constants: {exc}") from exc
    if kind == "block-form":
        unknown = set(data) - set(_FORM_KEYS) - {"kind"}
        if unknown:
            raise ConfigError(f"unknown block-form fields: {sorted(unknown)}")
        arrays = {}
        for key in _FORM_KEYS:
            if key not in data:
                raise ConfigError(f"block-form needs field {key!r}")
            raw = np.array(data[key], dtype=object)
            if not all(_real_number(v) for v in raw.flat):
                raise ConfigError(f"field {key!r} must hold only real numbers")
            arrays[key] = raw.astype(float)
        try:
            return GeneratorForm(**arrays)
        except (ValidationError, InputError) as exc:
            raise ConfigError(f"invalid block-form constants: {exc}") from exc
    raise ConfigError("constants need kind 'one-param' or 'block-form'")
