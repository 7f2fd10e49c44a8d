"""Meshes of the constructed families and numerical verification that they
are special Lagrangian: the symplectic form and the imaginary part of the
holomorphic volume form must both vanish on tangent frames.

Every family speaks one batched protocol: ``sample_params(n, seed)`` draws
(N, k) parameter rows, ``points(P)`` maps them to (N, m) complex points and
``frames(P)`` to (N, m, m) complex tangent frames, one tangent vector per
row.  A swept family builds both from a time value t and a chart point
x(q): the point is w(t) x(q), plus a translation beta(t) in the last
coordinate for the paraboloid families.  w(t) is an integrated path; a
centred family's starts by default at ``centred.w_initial``, in every case
(a) to (d), A = A_max included.  The t row of the frame comes from the
evolution right-hand side and the other rows from the chart's analytic
Jacobian, so residuals measure the construction itself rather than
integration error.  A mesh is a family, a parameter grid and faces: a
grid row (t, q, sheet) lifts to a point of the family's own chart, q
running along a profile line and the sheet fixing the other coordinates,
so the mesh's points and frames are the family's at the lifted rows.  On
a quadric the profile lines are the chart's own circles.  Frames are
normalized to unit vectors and the volume residual divided by the frame's
Gram volume, making every report scale free.  Central differences of
``points`` (``fd_frames``) are the reference for convergence checks.
"""

import json
import operator
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import affine as affine_mod
from . import centred, threefold
from .errors import ImportedRecipe, ValidationError
from .multilinear import complex_to_real, frame_forms

_DEGENERATE_GRAM = 1e-14
VERTEX_TOL = 1e-12      # relative vertex offset a verified mesh may carry
_ESCAPE_CUT = 0.98      # a swept mesh ends at this fraction of an escape
_PROFILE_RADII = (0.75, 1.5)     # an affine mesh's profile circles
NORMALIZATION_NOTE = ("unit tangent vectors; omega over all pairs, "
                      "|Im Omega| per unit Gram volume, orientation chosen "
                      "to make Re Omega nonnegative")


# ---------------------------------------------------------------------------
# charts: points and analytic Jacobians for whole row arrays
# ---------------------------------------------------------------------------

class _Chart:
    """Chart protocol: ``point_and_jacobian(Q)`` maps coordinate rows
    (..., k) to points (..., m) and Jacobians (..., m-1, m).  A parameter
    row holds the time value in column ``t_col`` and Q in the others."""

    t_col = 0
    radius = 2.0        # sample_coords draws in [-radius, radius]


class QuadricChart(_Chart):
    """Coordinates on {sum x_j^2 - sum y_j^2 = c} in R^a x R^{m-a}.

    One coordinate group, the block, is r u with u a unit vector in R^d:
    the other m - d coordinates o are free, and r^2 = c + |o|^2 for the
    x block, |o|^2 - c for the y block.  For d >= 2,
    u = (s cos q, s sin q, zeta) with s = sqrt(1 - |zeta|^2) and rows
    (q, zeta, o); its q lines at zeta = 0 are the circles a centred mesh
    draws.  For d = 1 (signature (1, 1)) u is a sign in a trailing column:
    rows (o, sign).  The Jacobian rows are the exact coordinate derivatives.

    The block is the x group for c >= 0 and the y group for c < 0, the one
    on which r^2 stays positive, unless it has fewer than two coordinates
    and the other group has at least two.
    """

    def __init__(self, m: int, a: int, c: float):
        if not (1 <= a <= m):
            raise ValidationError("need 1 <= a <= m")
        if a == m and c <= 0:
            raise ValidationError("a = m needs c > 0")
        self.m, self.a, self.c = m, a, float(c)
        x_block = self.c >= 0
        own, rest = (a, m - a) if x_block else (m - a, a)
        if own < 2 <= rest:
            x_block = not x_block
        self.block = (0, a) if x_block else (a, m)
        self.sign = 1.0 if x_block else -1.0    # r^2 = sign c + |o|^2
        self.d = self.block[1] - self.block[0]
        self.other = np.r_[0:self.block[0], self.block[1]:m]

    def sample_coords(self, count: int, seed: int = 0) -> np.ndarray:
        """(count, m-1) coordinate rows, (count, 2) for d = 1; |zeta| stays
        below 0.6, and where r can vanish (at |o| = sqrt|c|) the single
        outside coordinate is drawn beyond it."""
        rng = np.random.default_rng(seed)
        d, n_out = self.d, self.m - self.d
        cols = []
        if d >= 2:
            cols.append(rng.uniform(0.0, 2 * np.pi, size=(count, 1)))
            cols.append(rng.uniform(-0.6, 0.6, size=(count, d - 2))
                        / np.sqrt(max(d - 2, 1)))
        if n_out == 1 and self.sign * self.c <= 0:
            cols.append(rng.choice([-1.0, 1.0], size=(count, 1))
                        * (np.sqrt(abs(self.c))
                           + rng.uniform(0.4, self.radius, size=(count, 1))))
        else:
            cols.append(rng.uniform(-self.radius, self.radius,
                                    size=(count, n_out)))
        if d == 1:
            cols.append(rng.choice([-1.0, 1.0], size=(count, 1)))
        return np.column_stack(cols)

    def point_and_jacobian(self, Q) -> tuple:
        """Quadric points (..., m) and chart Jacobians (..., m-1, m)."""
        Q = np.asarray(Q, dtype=float)
        m, d, (lo, hi) = self.m, self.d, self.block
        shape = Q.shape[:-1]
        o = Q[..., d - 1:m - 1]
        if d == 1:
            u, du = Q[..., m - 1:], np.zeros(shape + (0, 1))
        else:
            q, zeta = Q[..., 0], Q[..., 1:d - 1]
            s = np.sqrt(1.0 - np.sum(zeta ** 2, axis=-1))
            cs = np.stack([np.cos(q), np.sin(q)], axis=-1)
            u = np.concatenate([s[..., None] * cs, zeta], axis=-1)
            du = np.zeros(shape + (d - 1, d))
            du[..., 0, 0], du[..., 0, 1] = -u[..., 1], u[..., 0]
            du[..., 1:, :2] = (-(zeta / s[..., None])[..., :, None]
                               * cs[..., None, :])
            du[..., 1:, 2:] = np.eye(d - 2)
        r = np.sqrt(self.sign * self.c + np.sum(o ** 2, axis=-1))[..., None]
        x = np.empty(shape + (m,))
        x[..., lo:hi] = r * u
        x[..., self.other] = o
        jac = np.zeros(shape + (m - 1, m))
        jac[..., :d - 1, lo:hi] = r[..., None] * du
        # d/do_k: the unit step in o_k and the change dr/do_k = o_k / r of r,
        # left at 0 on a cone's vertex r = 0 (whose frame is degenerate)
        dr = np.divide(o, r, out=np.zeros_like(o), where=r > 0)
        jac[..., d - 1:, lo:hi] = dr[..., :, None] * u[..., None, :]
        jac[..., d - 1 + np.arange(m - d), self.other] = 1.0
        return x, jac


def _profile_circle(chart: QuadricChart) -> np.ndarray:
    """Per-sheet values of the coordinates outside the chart's block, for
    two sheets (one where no coordinate is outside it).

    Sheet k is the circle zeta = 0 at o = values[k] (for d = 1, the
    hyperbola branch of sign values[k]).  Where r can vanish, the single
    outside coordinate lies beyond sqrt|c|.  For the c = 0 cone the sheet
    radii come in doubling pairs to support the ray-scaling checks.
    """
    n_out = chart.m - chart.d
    if chart.d == 1:
        return np.array([[1.0], [-1.0]])
    if chart.c == 0.0:
        rho = np.array([[1.0], [2.0]])
        return np.repeat(rho / np.sqrt(n_out), n_out, axis=1)
    k = np.arange(1 if n_out == 0 else 2)
    values = np.zeros((len(k), n_out))
    if chart.sign > 0 and chart.c > 0:     # r^2 = c + |o|^2 > 0 everywhere
        values[:, :1] = 0.7 * k[:, None]
    else:       # beyond the zero sqrt(-sign c) of r, if r has one
        values[:, 0] = np.sqrt(max(-chart.sign * chart.c, 0.0)) + 0.8 + 0.6 * k
    return values


class _LiftedRows(_Chart):
    """A mesh's row chart: a row, its time value aside, is (q, sheet), and
    reads as the family's chart at ``lift(q, values[sheet])``."""

    def __init__(self, chart, values, lift, t_col: int = 0):
        self.chart, self.lift, self.t_col = chart, lift, t_col
        self.values = np.asarray(values, dtype=float)
        self.n_sheets = len(self.values)

    def point_and_jacobian(self, Q) -> tuple:
        Q = np.asarray(Q, dtype=float)
        sheet = Q[:, 1]
        if not np.isin(sheet, np.arange(self.n_sheets)).all():
            raise ValidationError("a sheet id is not an integer in "
                                  f"0..{self.n_sheets - 1}")
        return self.chart.point_and_jacobian(
            self.lift(Q[:, 0], self.values[sheet.astype(int)]))


class ParaboloidChart(_Chart):
    """The paraboloid x_m = -1/2 sum_i s_i x_i^2 with coordinates
    (x_1, ..., x_{m-1}), sampled in [-radius, radius]."""

    def __init__(self, signs):
        self.signs = np.asarray(signs, dtype=float)

    def sample_coords(self, count: int, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.uniform(-self.radius, self.radius,
                           size=(count, self.signs.size))

    def point_and_jacobian(self, xs) -> tuple:
        xs = np.asarray(xs, dtype=float)
        k = self.signs.size
        x = np.concatenate([xs, -0.5 * (xs ** 2 @ self.signs)[..., None]],
                           axis=-1)
        eye = np.broadcast_to(np.eye(k), xs.shape[:-1] + (k, k))
        return x, np.concatenate([eye, (-self.signs * xs)[..., None]], axis=-1)


class ConeChart(_Chart):
    """The cone over the link circle: coordinates (s, r) -> r x(s), sampled
    over one period in s and r in [0.5, 2]."""

    def __init__(self, section: threefold.CrossSection):
        self.section = section

    def sample_coords(self, count: int, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return np.column_stack([
            rng.uniform(0.0, self.section.period, size=count),
            rng.uniform(0.5, 2.0, size=count)])

    def point_and_jacobian(self, Q) -> tuple:
        Q = np.asarray(Q, dtype=float)
        x, dx = self.section.curve(Q[..., 0])
        r = Q[..., 1:2]
        return r * x, np.stack([r * dx, x], axis=-2)


# ---------------------------------------------------------------------------
# parametrized families with analytic frames
# ---------------------------------------------------------------------------

class _SweptFamily:
    """Points w(t) x(q) + beta(t) e_m of a time value t and a chart point,
    in the batched protocol of the module docstring; frame rows
    differentiate the points along the first m parameter columns.

    Subclasses set m, t_span and chart.  ``_motion(t)`` gives (w, dw, beta,
    dbeta); here the centred evolution along ``path``, while a translating
    family's w covers the first m-1 coordinates and beta moves the last.
    ``points`` and ``frames`` also take a mesh's row chart, which reads
    the mesh's rows as points of ``chart``.
    """

    def sample_params(self, count: int, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        ts = rng.uniform(*sorted((0.0, self.t_span)), size=(count, 1))
        return np.column_stack([ts, self.chart.sample_coords(count, seed + 1)])

    def _motion(self, t) -> tuple:
        w = self.path.w(t)
        return w, centred.rhs_w(w, self.a), None, None

    def _sweep(self, P, chart) -> tuple:
        chart = self.chart if chart is None else chart
        P = np.asarray(P, dtype=float)
        x, jac = chart.point_and_jacobian(np.delete(P, chart.t_col, axis=1))
        w, dw, beta, dbeta = self._motion(P[:, chart.t_col])
        if beta is not None:    # the last coordinate is carried, not scaled
            w = np.concatenate([w, np.ones((len(P), 1))], axis=1)
            dw = np.concatenate([dw, np.zeros((len(P), 1))], axis=1)
        return x, jac, w, dw, beta, dbeta

    def points(self, P, chart=None) -> np.ndarray:
        x, _, w, _, beta, _ = self._sweep(P, chart)
        z = w * x
        if beta is not None:
            z[:, -1] += beta
        return z

    def frames(self, P, chart=None) -> np.ndarray:
        x, jac, w, dw, beta, dbeta = self._sweep(P, chart)
        F = np.concatenate([(dw * x)[:, None, :], jac * w[:, None, :]], axis=1)
        if beta is not None:
            F[:, 0, -1] += dbeta
        return F

    def fd_frames(self, P, probe: float) -> np.ndarray:
        """Central differences of ``points``: the reference for ``frames``."""
        P = np.asarray(P, dtype=float)
        n, k = P.shape
        steps = probe * np.eye(k)[:self.m]
        up = self.points((P[:, None, :] + steps).reshape(-1, k))
        dn = self.points((P[:, None, :] - steps).reshape(-1, k))
        return (up - dn).reshape(n, self.m, self.m) / (2 * probe)


class CentredFamily(_SweptFamily):
    """The centred-quadric submanifold (on the level ``params.c``) as a
    map of (t, quadric chart).

    The path is the trajectory integrated from w0 over t_span, or to its
    escape; w0 defaults to ``centred.w_initial(params)``, which refuses an A
    above A_max.  The default span is two periods in case (d) and 2.0
    otherwise.
    """

    def __init__(self, params: centred.CentredParams, t_span: float = None,
                 w0=None):
        self.params = params
        self.m, self.a = params.m, params.a
        case = centred.classify_case(params)
        if t_span is None:
            t_span = 2.0 * centred.betas(params).period_T if case == "d" else 2.0
        w0 = centred.w_initial(params) if w0 is None else w0
        self.path = centred.integrate_w(np.asarray(w0, complex), self.a,
                                        float(t_span))
        self.t_span = float(self.path.t_span[1])    # the end it reached
        self.chart = QuadricChart(self.m, self.a, params.c)


class AffineFamily(_SweptFamily):
    """The translated (paraboloid) submanifold as a map of (t, x_1..x_{m-1}),
    swept by the path integrated from (w0, beta0)."""

    def __init__(self, params: affine_mod.AffineParams, t_span: float = 4.0,
                 w0=None, beta0=None):
        self.params = params
        self.m, self.a = params.m, params.a
        if w0 is None:
            w0, beta0 = affine_mod.affine_initial(params)
        elif beta0 is None:
            beta0 = 0.0
        self.path = affine_mod.integrate_affine(w0, beta0, params.a,
                                                float(t_span))
        self.t_span = float(self.path.t_span[1])    # the end it reached
        signs = np.ones(self.m - 1)
        signs[self.a:] = -1.0
        self.chart = ParaboloidChart(signs)

    def _motion(self, t) -> tuple:
        w = self.path.w(t)
        dw, dbeta = affine_mod.rhs_affine(w, self.a)
        return w, dw, self.path.beta(t), dbeta


class ConeOverLinkFamily(CentredFamily):
    """The three-dimensional cone r * Phi(s, t) over the link surface as a
    map of (t, s, r): the c = 0 centred family of (m, a) = (3, 1) on the
    cone chart, by default over one period.

    Phi(s, t) = (x_1(s) w_1(t), x_2(s) w_2(t), x_3(s) w_3(t)) sweeps the
    unit-speed link circle x(s) of ``threefold.cross_section`` by the
    evolution; at r = 1 the frame rows are (dPhi/dt, dPhi/ds, Phi).  The
    two derivatives are orthogonal with equal squared norm
    alpha_3 - u + (alpha_2 - alpha_3)(alpha_1 + alpha_3) x_3^2, where
    u = |w_1|^2 - alpha_1, so Phi is conformal; minimality of the cone then
    makes it harmonic.
    """

    def __init__(self, alphas, A: float, t_span=None):
        params = centred.CentredParams(3, 1, alphas, float(A), c=0.0)
        if t_span is None:
            t_span = centred.betas(params).period_T
        super().__init__(params, t_span)
        self.chart = ConeChart(threefold.cross_section(params.alphas))


# ---------------------------------------------------------------------------
# special Lagrangian residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SLReport:
    """Scale-free residual summary of the two defining conditions."""

    max_omega_residual: float
    mean_omega_residual: float
    max_imOmega_residual: float
    mean_imOmega_residual: float
    normalization: str
    sample_count: int
    skipped: int = 0
    max_vertex_offset: float = None     # meshes only; see mesh_residual_report

    def max_residual(self) -> float:
        return max(self.max_omega_residual, self.max_imOmega_residual)

    def to_dict(self) -> dict:
        doc = asdict(self)
        if self.max_vertex_offset is None:
            del doc["max_vertex_offset"]
        return doc


def _residuals(F: np.ndarray) -> tuple:
    """Per-row (omega residual, |Im Omega| per Gram volume) of complex
    frames (N, m, m); NaN where the frame is degenerate (Gram determinant
    of its unit vectors below 1e-14, a zero vector included)."""
    omega, gram, im = frame_forms(F)
    bad = ~(gram >= _DEGENERATE_GRAM)
    im /= np.sqrt(np.where(bad, 1.0, gram))
    omega[bad] = np.nan
    im[bad] = np.nan
    return omega, im


def _report(res_omega: np.ndarray, res_imomega: np.ndarray) -> SLReport:
    ok = ~np.isnan(res_omega)
    if not ok.any():
        raise ValidationError("all sampled frames were degenerate")
    om, im = res_omega[ok], res_imomega[ok]
    return SLReport(float(om.max()), float(om.mean()), float(im.max()),
                    float(im.mean()), NORMALIZATION_NOTE, int(ok.sum()),
                    int(ok.size - ok.sum()))


def sl_residuals(family, n_samples: int = 1000, seed: int = 0) -> SLReport:
    """Evaluate the special Lagrangian conditions on the analytic frames of
    a parametrized family at random samples.  Degenerate frames (Gram
    volume below 1e-14) are skipped and counted; a mesh has
    ``mesh_residual_report``."""
    P = family.sample_params(n_samples, seed)
    return _report(*_residuals(family.frames(P)))


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Mesh:
    """Sampled vertices of a swept submanifold with quad faces for viewing.

    params holds the generating parameters per vertex (named by
    param_names, sheet id last).  When present, ``family`` (a swept family)
    and ``chart`` (the row chart lifting params to the family's chart; None
    for the family's own rows) let residuals be recomputed analytically at every vertex.
    """

    m: int
    vertices: np.ndarray = field(repr=False)
    faces: np.ndarray = field(repr=False)
    params: np.ndarray = field(repr=False)
    param_names: tuple
    res_omega: np.ndarray = None
    res_imomega: np.ndarray = None
    recipe: dict = field(default_factory=dict)
    family: object = field(default=None, repr=False, compare=False)
    chart: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] != 2 * self.m:
            raise ValidationError("vertices must be (N, 2m)")
        if not np.all(np.isfinite(V)):
            raise ValidationError("non-finite vertex")
        F = np.asarray(self.faces, dtype=int)
        if F.size and (F.min() < 0 or F.max() >= len(V)):
            raise ValidationError("face index out of range")
        P = np.asarray(self.params, dtype=float)
        if P.shape != (len(V), len(self.param_names)):
            raise ValidationError(
                f"params must be (N vertices, {len(self.param_names)} names) "
                f"= {(len(V), len(self.param_names))}; got {P.shape}")
        if not np.all(np.isfinite(P)):
            raise ValidationError("non-finite vertex parameter")
        for name in ("res_omega", "res_imomega"):   # NaN: degenerate frame
            res = getattr(self, name)
            if res is not None:
                res = np.asarray(res, dtype=float)
                if res.shape != (len(V),):
                    raise ValidationError(f"{name} must be (N vertices,) = "
                                          f"{(len(V),)}; got {res.shape}")
                setattr(self, name, res)
        self.vertices = V
        self.faces = F.reshape(-1, 4) if F.size else np.zeros((0, 4), int)
        self.params = P


def _sheet_grid(outer, inner, n_sheets: int, wrap: bool) -> tuple:
    """Parameter rows (outer, inner, sheet), inner fastest, and the quad
    faces of every sheet (wrapping around in the inner direction)."""
    no, ni = len(outer), len(inner)
    S, O, I = np.meshgrid(np.arange(n_sheets, dtype=float), outer, inner,
                          indexing="ij")
    P = np.column_stack([O.ravel(), I.ravel(), S.ravel()])
    i, j = np.meshgrid(np.arange(no - 1), np.arange(ni if wrap else ni - 1),
                       indexing="ij")
    j2 = (j + 1) % ni
    quads = np.stack([i * ni + j, (i + 1) * ni + j, (i + 1) * ni + j2,
                      i * ni + j2], axis=-1).reshape(-1, 4)
    return P, np.concatenate([quads + k * no * ni for k in range(n_sheets)])


def _t_end(t_span) -> float:
    if float(t_span[0]) != 0.0:
        raise ValidationError("t_span must start at 0")
    return float(t_span[1])


def _grid_size(resolution) -> list:
    """Two grid counts, integers (or decimal strings) of at least 2."""
    try:
        sizes = [int(n) if isinstance(n, str) else operator.index(n)
                 for n in resolution]
    except (TypeError, ValueError):
        sizes = []
    if len(sizes) != 2 or min(sizes) < 2:
        raise ValidationError("resolution must be two integers, each at "
                              f"least 2; got {resolution!r}")
    return sizes


def _recipe_w0(r: dict):
    """The start a recipe stored, or None: the builders store none, but
    their earlier versions always did, and such recipes still rebuild."""
    return (np.asarray(r["w0_re"]) + 1j * np.asarray(r["w0_im"])
            if "w0_re" in r else None)


def _stop_short(family) -> None:
    """A swept mesh's family whose path escaped ends at 0.98 of its span."""
    if family.path.escaped:
        family.t_span *= _ESCAPE_CUT


# One construction per mesh kind, recipe -> (family, row chart, parameter
# grid, faces), serves the builder and rebuild_family alike; a key missing
# from a recipe takes the builder's default, and a stored start (w0, and
# beta0 for affine) replaces the family's own.

def _centred_mesh(r: dict) -> tuple:
    params = centred.CentredParams(r["m"], r["a"], tuple(r["alphas"]),
                                   r["A"], c=r["c"])
    nt, nq = _grid_size(r["resolution"])
    family = CentredFamily(params, t_span=r["t_end"], w0=_recipe_w0(r))
    _stop_short(family)
    quadric, pad = family.chart, max(family.chart.d - 2, 0)
    chart = _LiftedRows(
        quadric, _profile_circle(quadric),
        lambda q, o: np.column_stack([q, np.zeros((len(q), pad)), o]))
    wrap = quadric.d >= 2
    qs = (np.linspace(0.0, 2 * np.pi, nq, endpoint=False) if wrap
          else np.linspace(-quadric.radius, quadric.radius, nq))
    P, faces = _sheet_grid(np.linspace(0.0, family.t_span, nt), qs,
                           chart.n_sheets, wrap)
    return family, chart, P, faces


def _affine_mesh(r: dict) -> tuple:
    params = affine_mod.AffineParams(r["m"], r["a"], tuple(r["alphas"]),
                                     r["A"], complex(*r.get("Cconst", (0, 0))))
    nt, nq = _grid_size(r["resolution"])
    beta0 = complex(*r["beta0"]) if "beta0" in r else None
    family = AffineFamily(params, t_span=r["t_end"], w0=_recipe_w0(r),
                          beta0=beta0)
    _stop_short(family)
    k = family.chart.signs.size

    def circle(q, rad):
        """The first two free coordinates on the circle of radius rad, the
        others at 0.3."""
        xs = np.full((len(q), k), 0.3)
        xs[:, 0] = rad[:, 0] * np.cos(q)
        xs[:, 1] = rad[:, 0] * np.sin(q)
        return xs

    chart = _LiftedRows(family.chart, np.reshape(r["profile_radii"], (-1, 1)),
                        circle)
    P, faces = _sheet_grid(np.linspace(0.0, family.t_span, nt),
                           np.linspace(0.0, 2 * np.pi, nq, endpoint=False),
                           chart.n_sheets, True)
    return family, chart, P, faces


def _link_mesh(r: dict) -> tuple:
    ns, nt = _grid_size(r.get("resolution", (64, 64)))
    family = ConeOverLinkFamily(tuple(r["alphas"]), r["A"],
                                t_span=r.get("t_end"))
    # one sheet, the unit cross-section: ray coordinate r = 1
    chart = _LiftedRows(family.chart, [[1.0]],
                        lambda s, ray: np.column_stack([s, ray]), t_col=1)
    P, faces = _sheet_grid(np.linspace(0.0, family.chart.section.period, ns),
                           np.linspace(0.0, family.t_span, nt), 1, False)
    return family, chart, P, faces


_CONSTRUCTIONS = {"centred": _centred_mesh, "affine": _affine_mesh,
                  "link": _link_mesh}


def _param_names(chart) -> tuple:
    return ("s", "t", "sheet") if chart.t_col else ("t", "q", "sheet")


def _mesh(recipe: dict) -> Mesh:
    family, chart, P, faces = _CONSTRUCTIONS[recipe["kind"]](recipe)
    return Mesh(family.m, complex_to_real(family.points(P, chart)), faces, P,
                _param_names(chart), recipe=recipe, family=family,
                chart=chart)


def mesh_centred(params: centred.CentredParams, c: float, t_span,
                 resolution=(33, 64)) -> Mesh:
    """Mesh of the centred family over a (t, profile angle) grid, swept
    from ``centred.w_initial(params)``.

    c must be ``params.c``; t_span is (0, t_end), cut to 0.98 of an escape
    time (case b); sheets fix the remaining quadric coordinates.  For c = 0
    the sheet radii come in doubling pairs so ray-scaling of the cone can
    be checked vertexwise.
    """
    if c != params.c:
        raise ValidationError(f"mesh_centred: c = {c!r} differs from the "
                              f"parameters' c = {params.c!r}")
    return _mesh({
        "kind": "centred", "m": params.m, "a": params.a,
        "alphas": list(params.alphas), "A": params.A, "c": c,
        "t_end": _t_end(t_span), "resolution": _grid_size(resolution)})


def mesh_affine(params: affine_mod.AffineParams, t_span,
                resolution=(33, 64)) -> Mesh:
    """Mesh of the translated family over a (t, profile angle) grid, swept
    from ``affine.affine_initial(params)``; the first two free coordinates
    run around circles of radii 0.75 and 1.5, one sheet each, the rest stay
    at a fixed offset.  A path that escapes before t_end is meshed to 0.98
    of its escape time."""
    return _mesh({
        "kind": "affine", "m": params.m, "a": params.a,
        "alphas": list(params.alphas), "A": params.A,
        "Cconst": [params.Cconst.real, params.Cconst.imag],
        "t_end": _t_end(t_span), "profile_radii": list(_PROFILE_RADII),
        "resolution": _grid_size(resolution)})


def mesh_link(alphas, A: float, resolution=(64, 64), t_span=None) -> Mesh:
    """Mesh of the cone link (the unit-sphere cross-section surface) over
    one cross-section period in s and t in [0, t_span], by default one
    (u, theta) period."""
    return _mesh({"kind": "link", "alphas": list(alphas), "A": A,
                  "resolution": _grid_size(resolution)}
                 | ({} if t_span is None else {"t_end": float(t_span)}))


def rebuild_family(mesh: Mesh):
    """Reconstruct the generating family and row chart of an imported mesh
    through the construction that built it, from its recipe, so residuals
    can be verified analytically at the stored vertex parameters."""
    kind = mesh.recipe.get("kind")
    construct = _CONSTRUCTIONS.get(kind) if isinstance(kind, str) else None
    if construct is None:
        raise ValidationError("mesh recipe does not name a rebuildable family")
    try:
        family, chart = construct(
            ImportedRecipe(mesh.recipe, f"{kind} mesh recipe"))[:2]
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{kind} mesh recipe holds a value of the "
                              f"wrong type: {exc}") from None
    if tuple(mesh.param_names) != _param_names(chart):
        raise ValidationError(f"a {kind} mesh names its params "
                              f"{_param_names(chart)}, not "
                              f"{tuple(mesh.param_names)}")
    mesh.family, mesh.chart = family, chart
    return family


def _mesh_frames(mesh: Mesh) -> np.ndarray:
    if mesh.family is None:
        raise ValidationError(
            "mesh carries no parametrization; rebuild it from its recipe")
    return mesh.family.frames(mesh.params, mesh.chart)


def mesh_residual_report(mesh: Mesh) -> SLReport:
    """Residual report for a mesh via its family's analytic frames, with
    the largest offset of a stored vertex coordinate from the family's
    point at its parameters, relative to max(1, largest |coordinate|)."""
    report = _report(*_residuals(_mesh_frames(mesh)))
    rebuilt = complex_to_real(mesh.family.points(mesh.params, mesh.chart))
    scale = max(1.0, float(np.max(np.abs(mesh.vertices), initial=0.0)))
    offset = float(np.max(np.abs(rebuilt - mesh.vertices), initial=0.0))
    return replace(report, max_vertex_offset=offset / scale)


def attach_residuals(mesh: Mesh) -> Mesh:
    """A copy of the mesh with per-vertex residuals (NaN where the frame is
    degenerate) from its family's analytic frames."""
    res_omega, res_imomega = _residuals(_mesh_frames(mesh))
    return replace(mesh, res_omega=res_omega, res_imomega=res_imomega)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _project_vertices(mesh: Mesh, projection):
    V = mesh.vertices
    if projection is None:
        if mesh.m > 3:
            raise ValidationError(
                "m > 3 meshes need an explicit projection (triple or 'pca')")
        projection = "pca"
    if projection == "pca":
        C = V - V.mean(axis=0)
        _, _, vt = np.linalg.svd(C, full_matrices=False)
        return C @ vt[:3].T
    idx = list(projection)
    if len(idx) != 3 or not all(0 <= i < V.shape[1] for i in idx):
        raise ValidationError("projection must be 'pca' or three coordinate "
                              f"indices in 0..{V.shape[1] - 1}; got "
                              f"{projection!r}")
    return V[:, idx]


def export(mesh: Mesh, fmt: str, path, projection=None) -> None:
    """Write a mesh as obj/ply/csv/json (ascii, 17 significant digits, LF).

    obj and ply are 3-D formats: higher-dimensional meshes must pick a
    coordinate triple or PCA projection.  json round-trips exactly.
    """
    if fmt == "json":
        doc = {
            "schema": "slmesh-1",
            "m": mesh.m,
            "param_names": list(mesh.param_names),
            "vertices": mesh.vertices.tolist(),
            "faces": mesh.faces.tolist(),
            "params": mesh.params.tolist(),
            "recipe": mesh.recipe,
        }
        for key in ("res_omega", "res_imomega"):
            arr = getattr(mesh, key)
            doc[key] = None if arr is None else [float(v) for v in arr]
        lines = [json.dumps(doc, indent=1, sort_keys=True)]
    elif fmt == "csv":
        extra = [n for n in mesh.param_names if n != "t"]
        cols = (["t"] + [f"param{i + 1}" for i in range(len(extra))]
                + [c for j in range(1, mesh.m + 1) for c in (f"x{j}", f"y{j}")]
                + ["res_omega", "res_imomega"])
        t_idx = mesh.param_names.index("t") if "t" in mesh.param_names else 0
        res = [np.full(len(mesh.vertices), np.nan) if r is None else r
               for r in (mesh.res_omega, mesh.res_imomega)]
        rows = np.column_stack([mesh.params[:, t_idx],
                                np.delete(mesh.params, t_idx, axis=1),
                                mesh.vertices, *res])
        lines = [",".join(cols)] + [",".join(map(_fmt, row))
                                    for row in rows.tolist()]
    elif fmt in ("obj", "ply"):
        P = _project_vertices(mesh, projection).tolist()
        faces = mesh.faces.tolist()
        if fmt == "obj":
            lines = [f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}" for x, y, z in P]
            lines += [f"f {i + 1} {j + 1} {k + 1} {l + 1}"
                      for i, j, k, l in faces]
        else:
            lines = [
                "ply", "format ascii 1.0", f"element vertex {len(P)}",
                "property double x", "property double y", "property double z",
                f"element face {len(faces)}",
                "property list uchar int vertex_indices", "end_header"]
            lines += [" ".join(map(_fmt, p)) for p in P]
            lines += ["4 " + " ".join(map(str, f)) for f in faces]
    else:
        raise ValidationError(f"unknown mesh format {fmt!r}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def import_json(path) -> Mesh:
    """Read a mesh written by export(..., 'json')."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != "slmesh-1":
        raise ValidationError("not an slmesh-1 document")
    missing = [k for k in ("m", "vertices", "faces", "params", "param_names")
               if k not in doc]
    if missing:
        raise ValidationError(f"slmesh-1 document lacks {', '.join(missing)}")
    try:
        fields = (int(doc["m"]), np.asarray(doc["vertices"], float),
                  np.asarray(doc["faces"], int),
                  np.asarray(doc["params"], float), tuple(doc["param_names"]))
        res = {key: np.asarray(doc[key], float)
               for key in ("res_omega", "res_imomega")
               if doc.get(key) is not None}
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed slmesh-1 field: {exc}") from None
    recipe = doc.get("recipe", {})
    if not isinstance(recipe, dict):
        raise ValidationError("the slmesh-1 recipe must be an object")
    return Mesh(*fields, recipe=recipe, **res)
