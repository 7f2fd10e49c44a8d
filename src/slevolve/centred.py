"""Evolution of centred quadrics: reduced coordinates, conserved quantity,
turning points, quadrature for the monodromy angles, and periodicity search.

The diagonal evolution is the system

    dw_j/dt = +conj(prod_{k != j} w_k)   (j <= a)
    dw_j/dt = -conj(prod_{k != j} w_k)   (j > a)

on nonzero complex w_1..w_m.  Writing w_j = e^{i theta_j} sqrt(alpha_j +- u)
reduces it to (u, theta_1..theta_m) with the conserved quantity

    A = Q(u)^(1/2) sin(theta),    Q(u) = prod(alpha_j + u) * prod(alpha_j - u),

theta = sum theta_j.  For 0 < A < A_max = sqrt(prod alpha_j) the motion of
(u, theta) is periodic with period T between the turning points gamma < 0 <
delta (the roots of Q = A^2), and each theta_j advances by a monodromy angle
beta_j per period.  All beta_j rational multiples of pi closes the swept
submanifold up; the search below looks for such parameter values.

Angle bookkeeping uses the continuous lift of arg w_j; near A = 0 some w_j
pass through zero and the lift jumps, so work in w coordinates there.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import NamedTuple

import numpy as np

from . import ode
from .errors import NumericalError, ValidationError
from .roots import brent, companion_roots

_CASE_TOL = 1e-10
_W_RTOL, _W_ATOL = 1e-11, 1e-13     # every solve of the w system


# ---------------------------------------------------------------------------
# parameters and states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentredParams:
    """Scale data (a, alpha_1..alpha_m, A) plus the quadric level c.

    The first a letters carry |w_j|^2 = alpha_j + u, the rest alpha_j - u.
    For a < m and A > 0 the alphas are expected in the normalized gauge
    sum_{j<=a} 1/alpha_j = sum_{j>a} 1/alpha_j (see ``normalize_lambda``).
    """

    m: int
    a: int
    alphas: tuple
    A: float
    c: float = 1.0

    def __post_init__(self):
        if self.m < 2:
            raise ValidationError("need m >= 2")
        if not (1 <= self.a <= self.m):
            raise ValidationError(f"need 1 <= a <= m, got a={self.a}")
        al = tuple(float(x) for x in self.alphas)
        if len(al) != self.m:
            raise ValidationError(f"expected {self.m} alphas, got {len(al)}")
        if not all(np.isfinite(al)) or not np.isfinite(self.A):
            raise ValidationError("non-finite parameter")
        if self.a == self.m and self.c <= 0:
            raise ValidationError("a = m requires level constant c > 0")
        if self.A < 0:
            raise ValidationError("A must be >= 0 (flip a sign of t instead)")
        object.__setattr__(self, "alphas", al)

    # -- derived quantities -------------------------------------------------

    @property
    def alpha_array(self) -> np.ndarray:
        return np.asarray(self.alphas)

    @property
    def signs(self) -> np.ndarray:
        """+1 for j <= a, -1 for j > a."""
        s = np.ones(self.m)
        s[self.a:] = -1.0
        return s

    @property
    def A_max(self) -> float:
        return float(np.sqrt(np.prod(self.alpha_array)))

    def Q(self, u):
        """Q(u) = prod_{j<=a}(alpha_j + u) prod_{j>a}(alpha_j - u)."""
        u = np.asarray(u, dtype=float)
        al = self.alpha_array
        out = np.prod(al[:self.a] + u[..., None], axis=-1)
        out *= np.prod(al[self.a:] - u[..., None], axis=-1)
        return out if out.shape else float(out)

    def Q_coefficients(self) -> np.ndarray:
        """Monomial coefficients of Q(u), highest power first."""
        return _q_coefficients(self.alphas, self.a).copy()

    def u_interval(self) -> tuple:
        """Open interval confining u for a < m with A > 0."""
        if self.a == self.m:
            raise ValidationError("u is unbounded above when a = m")
        al = self.alpha_array
        return (-float(np.min(al[:self.a])), float(np.min(al[self.a:])))

    def normalization_residual(self) -> float:
        al = self.alpha_array
        return float(np.sum(1.0 / al[:self.a]) - np.sum(1.0 / al[self.a:]))

    def require_case_d(self):
        if self.a == self.m:
            raise ValidationError("case (d) requires a < m")
        _check_gauge(self.alpha_array, self.a)
        if not (0.0 < self.A < self.A_max):
            raise ValidationError(
                f"case (d) requires 0 < A < {self.A_max:.6g}, got A={self.A}")


def _check_gauge(al: np.ndarray, a: int) -> None:
    """Finite positive alphas in the normalized gauge: sum_{j<=a} 1/alpha_j
    and sum_{j>a} 1/alpha_j agree to 1e-9 of the largest 1/alpha_j."""
    if not np.all((al > 0) & (al < np.inf)):
        raise ValidationError("alphas must be finite and positive")
    inv = 1.0 / al
    if abs(np.sum(inv[:a]) - np.sum(inv[a:])) > 1e-9 * np.max(inv):
        raise ValidationError(
            "alphas are not in the normalized gauge sum_{j<=a} 1/alpha_j = "
            "sum_{j>a} 1/alpha_j; run normalize_lambda")


@lru_cache(maxsize=256)
def _q_coefficients(alphas: tuple, a: int) -> np.ndarray:
    al = np.asarray(alphas)
    roots = np.concatenate([-al[:a], al[a:]])
    return (-1.0) ** (al.size - a) * np.poly(roots)


@dataclass(frozen=True)
class BetaResult:
    """Monodromy angles with the period and turning points they belong to.

    ``quadrature_error`` sums the panel error estimates of the quadrature
    alone.  It does not cover the error of the turning points gamma and
    delta that the panels are built on: at A/A_max = 1e-6, ``betas`` breaks
    the sum rule sum beta_j = 0 by up to 4.5e-4 while it reports a
    ``quadrature_error`` of at most 1.5e-12.
    """

    betas: tuple
    period_T: float
    gamma: float
    delta: float
    quadrature_error: float

    def to_dict(self) -> dict:
        return {
            "betas": list(self.betas),
            "betas_over_pi": [b / np.pi for b in self.betas],
            "sum_betas": float(np.sum(self.betas)),
            "period_T": self.period_T,
            "gamma": self.gamma,
            "delta": self.delta,
            "quadrature_error": self.quadrature_error,
        }


@dataclass(frozen=True)
class PeriodicSolution:
    """A parameter point where every beta_j is a rational multiple of pi.

    beta_j = pi * a_j / b with hcf(a_1..a_m, b) = 1 and sum a_j = 0; the
    evolution then repeats after time b*T (up to sign flips of the quadric
    coordinates with odd a_j).
    """

    params: CentredParams
    int_angles: tuple
    denom: int
    residual: float = 0.0

    def __post_init__(self):
        if sum(self.int_angles) != 0:
            raise ValidationError("integer angles must sum to zero")
        g = self.denom
        for aj in self.int_angles:
            g = gcd(g, abs(aj))
        if g != 1:
            raise ValidationError("integer data not in lowest terms")

    @property
    def topology(self) -> str:
        """``classify_topology`` of this solution at its level params.c."""
        return classify_topology(self)

    def to_dict(self) -> dict:
        return {
            "m": self.params.m,
            "a": self.params.a,
            "alphas": list(self.params.alphas),
            "A": self.params.A,
            "c": self.params.c,
            "int_angles": [int(x) for x in self.int_angles],
            "denom": int(self.denom),
            "parities": [int(abs(x) % 2) for x in self.int_angles],
            "topology": self.topology,
            "residual": self.residual,
        }


# ---------------------------------------------------------------------------
# right-hand sides and integration
# ---------------------------------------------------------------------------

def _cmul(a, b):
    """a * b for complex arrays in real arithmetic: rounds like a product of
    complex scalars, where numpy's vector loop may fuse multiply-adds."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _leave_one_out(w: np.ndarray) -> np.ndarray:
    """prod_{k != j} w_k over the last axis without division (stable when
    some |w_j| is tiny).

    The running products round like complex scalar products and the last
    one is numpy's multiply, the same loop for every row, so a single row
    gives the same result as its row of a stack, bit for bit.
    """
    cols = w.T
    one = np.ones(cols.shape[1:], dtype=complex)
    m = len(cols)
    pre, suf = [one], [one]     # prod_{k<j} w_k; prod_{k>=m-j} w_k
    for j in range(m):
        pre.append(_cmul(pre[j], cols[j]))
        suf.append(_cmul(cols[m - 1 - j], suf[j]))
    return (np.asarray(pre[:m]) * np.asarray(suf[m - 1::-1])).T


def rhs_w(w, a: int) -> np.ndarray:
    """dw_j/dt = +-conj(prod_{k != j} w_k), + for j <= a; w is (..., m)."""
    w = np.asarray(w, dtype=complex)
    signs = np.ones(w.shape[-1])
    signs[a:] = -1.0
    return signs * np.conj(_leave_one_out(w))


class WSolutionPath:
    """Dense solution of the w system.

    A path of the translated system (``translated=True``, see ``affine``)
    carries the translation beta as its last component after the letters.
    ``t_span`` ends where the solve ended, at ``escape_time`` if it escaped.
    """

    def __init__(self, sol, translated=False):
        self._sol = sol
        self.t_span = (0.0, sol.t[-1])
        self.escaped = sol.status == 1
        self.escape_time = float(sol.t[-1]) if self.escaped else None
        self.translated = translated

    def w(self, t):
        """w values at scalar or array t; shape (..., m) complex."""
        z = self._sol(t)
        return z[..., :-1] if self.translated else z

    def beta(self, t):
        """The translation beta at scalar or array t (translated paths)."""
        if not self.translated:
            raise ValidationError("a path of the centred system has no beta")
        return self._sol(t)[..., -1]


@lru_cache(maxsize=None)
def _w_kernel(a: int, m: int, translated: bool = False) -> ode.System:
    """``rhs_w`` as an ``ode.System`` on the packed real vector (Re w, Im w)
    of ``ode.solve``: straight-line code from ``ode.generated_system``,
    generated and compiled once per (a, m, translated).

    With ``translated`` the state gains the translation beta after the m
    letters, packed as (Re w, Re beta, Im w, Im beta), and the system gains
    dbeta/dt = conj(w_1 ... w_m) (see ``affine``); beta enters no
    derivative.

    The code makes the running products of ``_leave_one_out`` on Python
    complex numbers in a fixed order: the prefixes prod_{k<j} w_k, the
    suffixes prod_{k>j} w_k, then prefix * suffix; the full product prod w
    is the last prefix times w_m.  Both chains start from 1+0j and keep
    their products with it, which can change the sign of a zero
    (``tests/test_centred.py`` holds the plain loop as the bitwise
    reference).  The conjugate and the sign of letter j come in as one
    multiplication of the real part by +-1.0 and of the imaginary part by
    -+1.0; the conjugate of prod w negates its imaginary part, as
    ``np.conj`` does.  A row this short costs far less this way than in
    numpy calls.
    """
    signs = (1.0,) * a + (-1.0,) * (m - a)
    size = m + translated           # complex components of the state
    body = [f"w{j} = complex(x{j}, x{size + j})" for j in range(m)]
    pre, suf = ["one"], "one"       # prod_{k<j} w_k; prod_{k>j} w_k
    for j in range(m - 1 + translated):
        body.append(f"p{j + 1} = {pre[j]} * w{j}")
        pre.append(f"p{j + 1}")
    for j in range(m - 1, -1, -1):
        body.append(f"q{j} = {pre[j]} * {suf}")
        if j:
            body.append(f"s{j} = w{j} * {suf}")
            suf = f"s{j}"
    re = [f"{signs[j]!r} * q{j}.real" for j in range(m)]
    im = [f"{-signs[j]!r} * q{j}.imag" for j in range(m)]
    if translated:
        re.append(f"p{m}.real")
        im.append(f"-p{m}.imag")
    return ode.generated_system(
        f"w kernel a={a} m={m} translated={translated}", body, re + im,
        {"one": 1 + 0j})


def _dense_path(a: int, z0: np.ndarray, t_end: float, stage: str,
                translated: bool = False) -> WSolutionPath:
    """The dense w solve of ``integrate_w`` and ``affine.integrate_affine``
    from z0 (the letters, then beta if ``translated``), stopped by
    ``ode.blow_up`` on the letters, m counting beta as the engine does."""
    size = z0.size
    letters = size - translated
    sol = ode.solve(_w_kernel(a, letters, translated), z0, t_end, _W_RTOL,
                    _W_ATOL, stage=stage, params={"m": size, "a": a},
                    event=ode.blow_up(letters, size, size))
    return WSolutionPath(sol, translated)


def _case_d_run(params: CentredParams, t_end: float, stage: str,
                **kw) -> ode.Solution:
    """The bounded solve of ``betas_ode`` and ``verify_periodic``: from
    ``w_initial(params)`` to t_end with no blow-up event, since case (d)
    never escapes; ``kw`` carries the caller's event or ``t_eval``."""
    return ode.solve(_w_kernel(params.a, params.m), w_initial(params), t_end,
                     _W_RTOL, _W_ATOL, stage=stage,
                     params={"m": params.m, "a": params.a, "A": params.A},
                     **kw)


def integrate_w(w0, a: int, t_end: float) -> WSolutionPath:
    """Integrate the w system from t=0 to t_end with dense output, or to
    its escape (case b), where the general engine stops too."""
    return _dense_path(a, np.asarray(w0, dtype=complex), t_end,
                       "integrate_w")


# ---------------------------------------------------------------------------
# the (u, theta) reduction
# ---------------------------------------------------------------------------

def normalize_lambda(w0_sq, a: int) -> tuple:
    """Shift |w_j(0)|^2 by the unique lambda making all alpha_j > 0 and
    sum_{j<=a} 1/alpha_j = sum_{j>a} 1/alpha_j.

    Returns (alphas, lambda).  The root is bracketed by monotonicity of
    f(lam) = sum_{j<=a} 1/(s_j - lam) - sum_{j>a} 1/(s_j + lam).
    """
    s = np.asarray(w0_sq, dtype=float)
    m = s.size
    if not (1 <= a <= m - 1):
        raise ValidationError("normalization needs 1 <= a <= m-1")
    if np.any(s <= 0):
        raise ValidationError("moduli squared must be positive")

    def f(lam):
        return np.sum(1.0 / (s[:a] - lam)) - np.sum(1.0 / (s[a:] + lam))

    lo = -np.min(s[a:])
    hi = np.min(s[:a])
    span = hi - lo
    eps = 1e-14 * max(1.0, abs(lo), abs(hi))
    while f(lo + eps) > 0:
        eps *= 0.5
        if eps < 1e-300:
            raise NumericalError("normalization bracketing failed")
    lam = float(brent(lambda x, rows: np.array([f(v) for v in x.tolist()]),
                      lo + eps, hi - eps, xtol=1e-15 * max(1.0, span),
                      rtol=8.9e-16, stage="normalize_lambda",
                      params={"m": m, "a": a})[0])
    # two Newton steps to push the residual to rounding level
    for _ in range(2):
        fp = np.sum(1.0 / (s[:a] - lam) ** 2) + np.sum(1.0 / (s[a:] + lam) ** 2)
        lam -= f(lam) / fp
    alphas = np.concatenate([s[:a] - lam, s[a:] + lam])
    return tuple(float(x) for x in alphas), float(lam)


def w_initial(params: CentredParams) -> np.ndarray:
    """A w(0) realizing the given (alphas, A) with u(0) = 0, so that
    |w_j(0)|^2 = alpha_j.

    theta(0) = arcsin(A / sqrt(Q(0))) in [0, pi/2], split evenly.
    """
    al = params.alpha_array
    if np.any(al <= 0):
        raise ValidationError("w(0) needs every alpha_j > 0, since "
                              "|w_j(0)|^2 = alpha_j")
    Q0 = float(np.prod(al))
    s = params.A / np.sqrt(Q0)
    if s > 1.0 + 1e-12:
        raise ValidationError("A exceeds sqrt(Q(0)); no such initial state")
    theta0 = float(np.arcsin(min(s, 1.0)))
    thetas = np.full(params.m, theta0 / params.m)
    return np.sqrt(al) * np.exp(1j * thetas)


# ---------------------------------------------------------------------------
# turning points and singular quadrature
# ---------------------------------------------------------------------------

_PANEL_BUDGET = 200_000     # panels per row of one adaptive_gauss call
_CALL_NODES = 8192          # nodes per integrand call, bounding its memory
_MAX_DEPTH = 52             # bisections after which a panel is accepted


def _level_root(al, signs, log_level, end, far, d):
    """Rows u with Q(u) = exp(log_level), Q(u) = prod_j (al_j + signs_j u),
    at distance d from ``end`` towards ``far``; d is the start.

    ``end`` is a zero of Q, and g = log Q - log_level rises from -inf there
    to g >= 0 at ``far``.  Newton runs on s = log d: near a k-fold zero g is
    k s plus a smooth term, so the step is nearly exact however close the
    root sits to ``end`` (small A), and converges quadratically elsewhere.
    A bracket that shrinks with every evaluation, bisected geometrically,
    catches any step that leaves it.  A row stops, and is left untouched,
    once g is within its rounding noise or the step no longer moves u.
    Every operation is elementwise or a reduction along one row, so a row's
    root does not depend on the other rows.
    """
    eps = np.finfo(float).eps
    noise = eps * (2 * al.size + 3 * np.abs(log_level))
    direction = np.sign(far - end)
    d_below, d_above = np.zeros_like(d), np.abs(far - end)
    done = np.zeros(d.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(200):
            u = end + direction * d
            fac = al + signs * u[:, None]
            g = np.log(fac.prod(axis=1)) - log_level
            dg_ds = d * direction * (signs / fac).sum(axis=1)
            newton = d * np.exp(-g / dg_ds)
            below = g < 0
            d_below = np.where(below, d, d_below)
            d_above = np.where(below, d_above, d)
            stop = ((np.abs(g) <= noise)
                    | (np.abs(newton - d) <= 4 * eps * np.abs(u)))
            inside = (newton > d_below) & (newton < d_above)
            bisect = np.where(d_below > 0, np.sqrt(d_below * d_above),
                              0.5 * d_above)
            step = np.where(inside | stop, newton, bisect)
            d = np.where(done, d, step)
            done |= stop
            if done.all():
                return end + direction * d
    raise NumericalError("turning point iteration did not converge")


def turning_points(params: CentredParams, A: np.ndarray) -> tuple:
    """The two roots gamma < 0 < delta of Q(u) = A^2 bracketing zero,
    solved to rounding level, at every A of a 1-D array: arrays of each.

    ``params`` must be in case (d), and every A in (0, A_max) for its
    alphas.
    """
    params.require_case_d()
    A_max = params.A_max
    if np.ndim(A) != 1 or not np.all((A > 0) & (A < A_max)):
        raise ValidationError(f"case (d) requires 0 < A < {A_max:.6g} "
                              "for every A")
    lo, hi = params.u_interval()
    al = params.alpha_array
    n = A.size
    log_level = np.tile(2.0 * np.log(A), 2)
    end = np.repeat([lo, hi], n)
    # start from the quadratic model log Q(u) ~ log Q(0) - u^2 sum 1/alpha^2
    # / 2 (Q is largest at u = 0 in the normalized gauge), kept inside
    reach = np.sqrt(2.0 * np.maximum(np.log(np.prod(al)) - log_level, 0.0)
                    / np.sum(al ** -2.0))
    d = np.abs(end) - np.where(reach < np.abs(end), reach, 0.5 * np.abs(end))
    roots = _level_root(al, params.signs, log_level, end, np.zeros(2 * n), d)
    return roots[:n], roots[n:]


@lru_cache(maxsize=None)
def _gl_rule(npts: int) -> tuple:
    x, w = np.polynomial.legendre.leggauss(npts)
    return x, w


class Nodes(NamedTuple):
    """The nodes of one integrand call: line i of ``x`` (L, n) holds nodes
    of quadrature row ``rows[i]``."""

    x: np.ndarray
    rows: np.ndarray

    @property
    def size(self) -> int:
        """The number of nodes."""
        return self.x.size


def adaptive_gauss(f, a, b, tol: float = 1e-12, describe=None) -> tuple:
    """Row-batched, vector-valued adaptive Gauss-Legendre quadrature.

    Row r integrates over [a_r, b_r].  Pending panels form one flat stack,
    a line (row, lo, hi, depth) each.  A round takes up to ``_CALL_NODES``
    nodes' worth of panels off the top, whatever their rows, and calls
    ``f`` once on their ``Nodes``: x (P, n), one line per panel, and rows
    (P,), which may repeat.  ``f`` returns a new array of the K integrands
    there, (P, K, n), which is weighted in place.  Each panel is estimated
    with 16- and 32-point rules on one set of nodes; it is accepted when
    every integrand's disagreement is within its width share of ``tol`` or
    at its rounding floor (or at ``_MAX_DEPTH``), and bisected otherwise,
    its children going back on top: depth first.  Every accept decision
    depends on its panel alone and accepted panels are summed per row in
    order of position, so a row's result does not depend on the other rows.

    Returns (values, errors), each (N, K).  Raises NumericalError when a row
    exceeds ``_PANEL_BUDGET`` panels or its error estimate is grossly over
    budget; ``describe(r)`` names row r in the message.  A NaN, infinite or
    negative tol raises ValidationError (tol = 0 leaves the rounding floor).
    """
    (x16, w16), (x32, w32) = _gl_rule(16), _gl_rule(32)
    nodes, weights = np.concatenate([x16, x32]), np.concatenate([w16, w32])
    a, b = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, b))
    n_rows = a.size
    describe = describe or (lambda r: f"quadrature row {r}")
    if not 0.0 <= tol < np.inf:
        raise ValidationError(f"{describe(0)}: the tolerance must be finite "
                              f"and non-negative")
    total = b - a
    # a panel's share of tol per unit of its half width
    share = 2.0 * tol / np.where(total == 0, 1.0, total)
    call_panels = max(1, _CALL_NODES // nodes.size)
    floor = 64.0 * np.finfo(float).eps
    stack = np.column_stack([np.arange(n_rows), a, b, np.zeros(n_rows)])
    panels = np.zeros(n_rows, dtype=np.intp)
    records = []
    while stack.size:
        top, stack = stack[:-call_panels - 1:-1], stack[:-call_panels]
        rows, lo, hi = top[:, 0].astype(np.intp), top[:, 1], top[:, 2]
        panels += np.bincount(rows, minlength=n_rows)
        if panels.max() > _PANEL_BUDGET:
            raise NumericalError(
                f"{describe(int(np.argmax(panels)))}: quadrature panel "
                f"budget of {_PANEL_BUDGET} panels exhausted")
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        vals = f(Nodes(mid[:, None] + half[:, None] * nodes, rows))
        vals *= weights
        sums = np.add.reduceat(vals, (0, x16.size), axis=-1)
        sums *= half[:, None, None]
        i32 = sums[..., 1]                                    # (P, K)
        err = np.abs(i32 - sums[..., 0])
        # a panel already converged to rounding level cannot improve by
        # splitting, however small its width share of the budget is
        ok = ((err <= np.maximum((half * share[rows])[:, None],
                                 floor * np.abs(i32))).all(axis=1)
              | (top[:, 3] >= _MAX_DEPTH))
        records.append((rows[ok], lo[ok], i32[ok], err[ok]))
        # children of the split panels go on top of what is left
        kids = top[~ok].repeat(2, axis=0)
        kids[::2, 2] = kids[1::2, 1] = mid[~ok]
        kids[:, 3] += 1
        stack = np.concatenate([stack, kids])

    row, left, val, err = (np.concatenate(z) for z in zip(*records))
    order = np.lexsort((left, row))
    starts = np.searchsorted(row[order], np.arange(n_rows))
    value = np.add.reduceat(val[order].T, starts, axis=1).T
    error = np.add.reduceat(err[order].T, starts, axis=1).T
    bad = ~np.isfinite(value) | (error > 1e6 * tol + 1e-6)
    if bad.any():
        r = int(np.nonzero(bad.any(axis=1))[0][0])
        raise NumericalError(
            f"{describe(r)}: quadrature did not converge: error estimate "
            f"{np.max(error[r]):.3e}")
    return value, error


def _synthetic_division(coeffs: np.ndarray, root: np.ndarray) -> np.ndarray:
    """Divide row polynomials (N, d+1), highest power first, by (u - root)."""
    out = np.empty((coeffs.shape[0], coeffs.shape[1] - 1))
    acc = coeffs[:, 0]
    for i in range(out.shape[1]):
        out[:, i] = acc
        acc = coeffs[:, i + 1] + root * acc
    return out


class _Deflated:
    """Rows of the factor left of Q - A^2 once its turning points are
    divided out: lead * prod_i (base_i + s) at an offset s >= 0 from the
    turning point gamma, with base_i = gamma - r_i over the remaining roots
    r_i (``roots.companion_roots``).  The factor is positive on the arc,
    so its square root is evaluated from moduli in real arithmetic."""

    def __init__(self, lead: np.ndarray, w: np.ndarray, gamma: np.ndarray):
        self.base = gamma[:, None] - companion_roots(w)
        self.lead = lead
        self.abs_lead = np.abs(lead)[:, None]
        self.re, self.im2 = self.base.real, self.base.imag ** 2

    def positive_at(self, s: np.ndarray) -> np.ndarray:
        """Whether each row's factor is positive at its offset s (N,)."""
        return np.real(self.lead * np.prod(self.base + s[:, None], axis=1)) > 0

    def sqrt(self, s: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """sqrt of the factor of row rows[i] at offsets s[i] (L, n):
        computed once per node, one root at a time (an (L, k, n) broadcast
        pays numpy's per-line overhead k times over on short lines)."""
        mod2 = np.ones_like(s)
        for re, im2 in zip(self.re[rows].T, self.im2[rows].T):
            mod2 *= (re[:, None] + s) ** 2 + im2[:, None]
        return np.sqrt(self.abs_lead[rows] * np.sqrt(mod2))


class _ArcGeometry:
    """Cancellation-free integrands on the arcs u = gamma + (delta-gamma)
    sin^2 psi, one row per A value of one alpha tuple.

    Q(u) - A^2 = (u - gamma)(delta - u) R(u) with R > 0 on [gamma, delta];
    R is kept in root-product form and every denominator alpha_j +- u as an
    exact endpoint offset plus a nonnegative increment, so that integrand
    noise stays at rounding level even when a turning point sits within
    1e-7 of a root of Q.
    """

    def __init__(self, params: CentredParams, A: np.ndarray):
        self.m, self.a = params.m, params.a
        gamma, delta = turning_points(params, A)
        self.gamma, self.delta = gamma, delta
        self.width = delta - gamma
        coeffs = np.tile(params.Q_coefficients(), (A.size, 1))
        coeffs[:, -1] -= A ** 2
        w2 = _synthetic_division(_synthetic_division(coeffs, gamma), delta)
        self.R = _Deflated(-w2[:, 0], w2, gamma)
        al = params.alpha_array
        # alpha_j + u = off_j + s2 for j <= a, alpha_j - u = off_j + c2 after
        self.off = np.concatenate([al[:self.a] + gamma[:, None],
                                   al[self.a:] - delta[:, None]], axis=1)
        bad = ~self.R.positive_at(0.5 * self.width)
        if bad.any():
            raise NumericalError(
                "deflated quadrature factor is not positive at "
                f"A={A[np.argmax(bad)]:.17g}")

    def __call__(self, nodes: Nodes) -> np.ndarray:
        """1/((alpha_j +- u) sqrt R) for every letter j, then 1/sqrt R, at
        nodes psi (L, n) of the rows ``rows``; shape (L, m+1, n), stored
        letter by letter so that each is written in one contiguous pass."""
        psi, rows = nodes
        width = self.width[rows, None]
        s2 = width * np.sin(psi) ** 2
        c2 = width * np.cos(psi) ** 2
        g = 1.0 / self.R.sqrt(s2, rows)
        out = np.empty((self.m + 1,) + psi.shape)
        for j, off in enumerate(self.off[rows].T):
            np.divide(g, off[:, None] + (s2 if j < self.a else c2), out=out[j])
        out[self.m] = g
        return out.transpose(1, 0, 2)


def _angle_errors(A, errs, m):
    """A * sum_j err_j over the angle columns plus the period's error, one
    column at a time (so each row sums alike in any batch)."""
    total = errs[:, 0]
    for j in range(1, m):
        total = total + errs[:, j]
    return A * total + errs[:, m]


def betas_grid(params: CentredParams, A, tol: float = 3e-12) -> list:
    """Monodromy angles beta_j and period T at every A of a 1-D array, for
    the alphas, a and c of ``params``, by one batched singular quadrature.

    The substitution u = gamma + (delta - gamma) sin^2(psi) removes both
    inverse-square-root endpoint singularities, leaving the analytic
    integrands 2 / ((alpha_j +- u) sqrt(R)) and 2 / sqrt(R) on [0, pi/2],
    which share their nodes.  Each row equals ``betas`` at its A bit for
    bit.  A row's ``quadrature_error`` is the panels' estimate only, not
    the error of its turning points (see ``BetaResult``).
    """
    A = np.atleast_1d(np.asarray(A, dtype=float))
    arc = _ArcGeometry(params, A)
    m, a, A_max = params.m, params.a, params.A_max
    # the arc covers [gamma, delta] once, which is half a period in u but
    # integrates dv / sqrt(Q - A^2) = the full period T.  Integrating half
    # the integrands to tol/2 and doubling is exact in binary.
    vals, errs = adaptive_gauss(
        arc, np.zeros(A.size), np.full(A.size, np.pi / 2), tol=0.5 * tol,
        describe=lambda r: (f"betas quadrature (m={m}, a={a}, "
                            f"A/A_max={A[r] / A_max:.6g})"))
    vals, errs = 2.0 * vals, 2.0 * errs
    beta_vals = -params.signs * A[:, None] * vals[:, :m]
    err = _angle_errors(A, errs, m)
    return [BetaResult(tuple(float(x) for x in beta_vals[r]),
                       float(vals[r, m]), float(arc.gamma[r]),
                       float(arc.delta[r]), float(err[r]))
            for r in range(A.size)]


def betas(params: CentredParams, tol: float = 3e-12) -> BetaResult:
    """Monodromy angles beta_j and the period T by singular quadrature: the
    one-row case of ``betas_grid``."""
    return betas_grid(params, params.A, tol=tol)[0]


# ---------------------------------------------------------------------------
# limits of the monodromy angles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaLimits:
    """Limit vectors of beta as A -> 0 and A -> A_max, with multiplicities.

    k (resp. l) is the multiplicity of the smallest alpha in the first
    (resp. second) group: the turning points run into the nearest roots
    -min_{j<=a} alpha_j and +min_{j>a} alpha_j, so those positions absorb
    the whole limit angle -pi/k (resp. +pi/l).
    """

    k: int
    l: int
    small_A: tuple
    large_A: tuple


_TIE_TOL = 1e-12            # relative gap under which two alphas tie


def beta_limits(alphas, a: int) -> BetaLimits:
    al = np.asarray(alphas, dtype=float)
    m = al.size
    if not (1 <= a <= m - 1):
        raise ValidationError("limits need 1 <= a <= m-1")
    _check_gauge(al, a)

    lo1 = np.min(al[:a])
    lo2 = np.min(al[a:])
    first = np.where(al[:a] <= lo1 * (1 + _TIE_TOL))[0]
    second = a + np.where(al[a:] <= lo2 * (1 + _TIE_TOL))[0]
    k, l = first.size, second.size

    small = np.zeros(m)
    small[first] = -np.pi / k
    small[second] = np.pi / l

    scale = 2.0 * np.pi / np.sqrt(2.0 * np.sum(al ** -2))
    signs = np.ones(m)
    signs[a:] = -1.0
    large = -signs * scale / al
    return BetaLimits(int(k), int(l), tuple(map(float, small)),
                      tuple(map(float, large)))


# ---------------------------------------------------------------------------
# case classification and topology labels
# ---------------------------------------------------------------------------

def classify_case(params: CentredParams) -> str:
    """One of 'a' (A=0), 'b' (a=m), 'c' (A at its maximum), 'd' (generic)."""
    if abs(params.A) <= _CASE_TOL:
        return "a"
    if params.a == params.m:
        return "b"
    if np.any(params.alpha_array <= 0):
        raise ValidationError("cases (c)/(d) need positive alphas")
    if abs(params.A - params.A_max) <= _CASE_TOL * (1.0 + params.A_max):
        return "c"
    return "d"


def classify_topology(sol: PeriodicSolution) -> str:
    """Diffeomorphism label of the closed submanifold at level params.c.

    For m = 3, a = 1 the parity of the first integer angle decides between
    the two-piece and the quotient pictures; for general m only the
    possible free Z2 quotient is reported.
    """
    m, a, c = sol.params.m, sol.params.a, sol.params.c
    if m == 3 and a == 1:
        a1_even = sol.int_angles[0] % 2 == 0
        if a1_even:
            if c > 0:
                return "two S^1×R^2 pieces, N_− = −N_+"
            if c < 0:
                return "T^2×R, N = −N"
            return "two T²-cones, N_− = −N_+"
        if c > 0:
            return "S^1×R^2"
        if c < 0:
            return "Klein-bottle line bundle, one end T²×(0,∞)"
        return "T²-cone, N = −N"
    if c > 0:
        return f"S^{a - 1}×R^{m - a}×S^1 (possibly /Z₂)"
    if c < 0:
        return f"R^{a}×S^{m - a - 1}×S^1 (possibly /Z₂)"
    return f"cone on S^{a - 1}×S^{m - a - 1}×S^1 (possibly /Z₂)"


# ---------------------------------------------------------------------------
# measuring period and monodromy from the ODE (the independent route)
# ---------------------------------------------------------------------------

_T_LIMIT = 1e300            # betas_ode's t_end: its event ends the run
_SUM_TOL = 1e-5             # largest |sum beta_j| betas_ode returns


def betas_ode(params: CentredParams) -> BetaResult:
    """Period and monodromy angles measured from direct w integration.

    The period is located from successive minima of u (ascending zeros of
    du/dt, an event on Re(prod w_j)), and the run stops at the third of
    them, with no horizon: near a k-fold tie T grows like (A_max/A)^(1-2/k).
    Each phase turns one way, dtheta_j/dt = -s_j A/(alpha_j + s_j u), so
    beta_j is arg(w_j(t2)/w_j(t1)) placed on the side of -s_j.  The angles
    sum to zero (theta stays in (0, pi)); a run that loses that as A -> 0
    by more than ``_SUM_TOL`` raises ``NumericalError``.  Serves as the
    independent oracle for the quadrature route.
    """
    params.require_case_d()
    m, a, frac = params.m, params.a, params.A / params.A_max

    def du_event(t, y):
        w = y[:m] + 1j * y[m:]
        return float(np.real(np.prod(w)))

    sol = _case_d_run(params, _T_LIMIT, "betas_ode",
                      event=ode.Event(du_event, terminal=3))
    times = sol.t_event
    if times.size < 3:
        raise NumericalError(
            f"betas_ode failed to bracket one period of u (m={m}, a={a}, "
            f"A/A_max={frac:.6g}): {times.size} upward du crossings by "
            f"t = {float(sol.t[-1]):.6g}, 3 needed")

    t1, t2 = float(times[1]), float(times[2])
    T = t2 - t1
    w1, w2, w_half = sol([t1, t2, t1 + 0.5 * T])
    turn, s = np.angle(w2 / w1), params.signs
    beta_vals = np.where(s * turn > 0, turn - 2 * np.pi * s, turn)
    total = float(np.sum(beta_vals))
    if not abs(total) <= _SUM_TOL:      # a NaN sum is refused too
        raise NumericalError(
            f"betas_ode lost the angle sum rule (m={m}, a={a}, "
            f"A/A_max={frac:.6g}): sum of beta_j = {total:.3g}, "
            f"bound {_SUM_TOL:g}")
    return BetaResult(tuple(float(b) for b in beta_vals), float(T),
                      _u_of_w(w1, params), _u_of_w(w_half, params),
                      float("nan"))


def _u_of_w(w, params: CentredParams) -> float:
    return float(np.mean(params.signs * (np.abs(w) ** 2 - params.alpha_array)))


# ---------------------------------------------------------------------------
# periodicity search
# ---------------------------------------------------------------------------

def symmetric_alphas(m: int, a: int) -> tuple:
    """The normalized family (1,..,1, y,..,y) with y = (m-a)/a."""
    if not (1 <= a <= m - 1):
        raise ValidationError("need 1 <= a <= m-1")
    y = (m - a) / a
    return tuple([1.0] * a + [y] * (m - a))


def _rational_candidates(beta: np.ndarray, b_max: int) -> tuple:
    """Per row of beta (P, m), the best (a_vec, b, residual) with every
    beta_j ~ pi a_j / b, b <= b_max and sum a_j = 0: arrays (P, m), (P,)
    and (P,).  Among equal residuals the smallest b wins; a row with no
    such b has residual inf."""
    b = np.arange(1, b_max + 1)[:, None, None]
    a_vec = np.round(b * (beta / np.pi)).astype(int)            # (B, P, m)
    residual = np.max(np.abs(beta - np.pi * a_vec / b), axis=2)
    residual[a_vec.sum(axis=2) != 0] = np.inf
    best = np.argmin(residual, axis=0)
    cols = np.arange(beta.shape[0])
    return a_vec[best, cols], best + 1, residual[best, cols]


def _crossings(beta1: np.ndarray, b_max: int) -> tuple:
    """Brackets of the integer crossings of b * beta_1 / pi on a grid:
    arrays of the grid interval i and the target pi n / b, ordered by b,
    then i, then n, for every b <= b_max and integer n with beta_1 - pi n/b
    of strictly opposite signs at grid points i and i + 1."""
    b = np.arange(1, b_max + 1)[:, None]
    r0 = b * beta1 / np.pi
    lo_n = np.ceil(np.minimum(r0[:, :-1], r0[:, 1:])).astype(int)
    hi_n = np.floor(np.maximum(r0[:, :-1], r0[:, 1:])).astype(int)
    count = np.maximum(hi_n - lo_n + 1, 0).ravel()
    cell = np.repeat(np.arange(count.size), count)        # (b, i) per target
    first = np.cumsum(count) - count                      # of each cell
    n = lo_n.ravel()[cell] + np.arange(cell.size) - first[cell]
    b_idx, i = np.divmod(cell, beta1.size - 1)
    target = np.pi * n / (b_idx + 1)
    g_lo, g_hi = beta1[i] - target, beta1[i + 1] - target
    keep = (g_lo != 0.0) & (g_hi != 0.0) & ~(g_lo * g_hi > 0)
    return i[keep], target[keep]


def _reduce_hcf(a_vec: tuple, b: int) -> tuple:
    g = b
    for x in a_vec:
        g = gcd(g, abs(x))
    return tuple(x // g for x in a_vec), b // g


_A_FRACTIONS = (0.02, 0.98)  # the A window of periodic_search, over A_max
SEARCH_QUAD_TOL = 1e-12      # periodic_search's quadrature tolerance


def search_grid(A_max: float, n_grid: int) -> np.ndarray:
    """The A values ``periodic_search`` scans: n_grid points spaced
    evenly over ``_A_FRACTIONS`` of A_max."""
    return np.linspace(_A_FRACTIONS[0] * A_max, _A_FRACTIONS[1] * A_max,
                       n_grid)


def periodic_search(alphas, a: int, b_max: int, tol: float = 1e-8,
                    n_grid: int = 96, c: float = 0.0) -> list:
    """Scan A for parameter points where all beta_j / pi are rational with
    common denominator <= b_max.

    ``alphas`` is one normalized alpha tuple.  The scan evaluates beta, at
    quadrature tolerance ``SEARCH_QUAD_TOL``, on the A grid of
    ``search_grid``, brackets integer crossings of b * beta_1 / pi for each
    candidate denominator, solves for A by root finding, and keeps
    solutions whose full angle vector matches its rational target within
    tol.  An empty result is not an error; a NaN, infinite or negative tol
    raises ValidationError.
    """
    if b_max < 1:
        raise ValidationError(f"b_max must be at least 1, got {b_max}")
    if not 0.0 <= tol < np.inf:
        raise ValidationError(f"tol must be finite and non-negative, "
                              f"got {tol!r}")
    if n_grid < 2:
        raise ValidationError(f"n_grid must be at least 2, got {n_grid}")
    al = np.asarray(alphas, dtype=float)
    if al.ndim != 1:
        raise ValidationError("alphas must be one tuple of numbers")
    m = al.size
    probe = CentredParams(m, a, tuple(al), 0.5 * float(np.sqrt(np.prod(al))), c=c)
    probe.require_case_d()
    A_max = probe.A_max
    known = {}

    def beta_at(A):
        """beta at every A of a 1-D array, (len(A), m): one batched
        quadrature for the values not computed yet.  Its rows equal the
        scalar betas bit for bit, so the cache serves the grid, every
        round of the root finder and the final check alike."""
        new = [x for x in dict.fromkeys(A.tolist()) if x not in known]
        if new:
            rows = betas_grid(probe, np.array(new), tol=SEARCH_QUAD_TOL)
            known.update(zip(new, (r.betas for r in rows)))
        return np.array([known[x] for x in A.tolist()]).reshape(-1, m)

    A_grid = search_grid(A_max, n_grid)
    beta_grid = beta_at(A_grid)

    i_of, target = _crossings(beta_grid[:, 0], b_max)
    A_root = brent(lambda A, rows: beta_at(A)[:, 0] - target[rows],
                   A_grid[i_of], A_grid[i_of + 1], xtol=1e-14,
                   stage="periodic_search",
                   params={"m": m, "a": a, "alphas": tuple(al.tolist())})

    # direct hits on the grid (covers families with constant rational
    # beta), then the roots, each kept unless an earlier candidate for the
    # same angles had a residual at least as small
    A_all = np.concatenate([A_grid, A_root])
    found = {}
    for A_star, a_vec, denom, residual in zip(
            A_all.tolist(), *_rational_candidates(beta_at(A_all), b_max)):
        if not residual <= tol:
            continue
        residual = float(residual)
        a_vec, denom = _reduce_hcf(tuple(int(x) for x in a_vec), int(denom))
        key = (a_vec, denom)
        if key in found and found[key].residual <= residual:
            continue
        params = CentredParams(m, a, tuple(al), A_star, c=c)
        found[key] = PeriodicSolution(params, a_vec, denom, residual=residual)
    return sorted(found.values(), key=lambda s: (s.denom, s.int_angles))


_N_CHECK = 257              # check times per period in verify_periodic


def verify_periodic(sol: PeriodicSolution) -> dict:
    """Re-verify a periodic solution against the w ODE.

    Integrates over b*T plus one extra period and checks the sign relation
    w_j(t + b T) = (-1)^{a_j} w_j(t) on a grid of t in [0, T].  Only the
    two check windows are asked of the solver, so steps between them build
    no interpolant; the values equal the dense output's bit for bit.
    ``nfev`` and ``accepted_steps`` are the run's work counts.
    """
    params = sol.params
    quad = betas(params)
    T, b = quad.period_T, sol.denom
    t_grid = np.linspace(0.0, T, _N_CHECK)
    run = _case_d_run(params, b * T + T, "verify_periodic",
                      t_eval=np.concatenate([t_grid, t_grid + b * T]))
    w_base, w_shift = run.z_eval[:_N_CHECK], run.z_eval[_N_CHECK:]
    signs = np.asarray([(-1.0) ** aj for aj in sol.int_angles])
    err = float(np.max(np.abs(w_shift - signs * w_base)))
    return {"max_defect": err, "period_T": T, "denom": b,
            "betas": list(quad.betas), "nfev": int(run.nfev),
            "accepted_steps": int(run.t.size - 1)}
