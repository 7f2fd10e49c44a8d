"""Reference implementations the tests check the library against.

The library evaluates omega and Omega on batched complex frames with one
kernel (``multilinear.frame_forms``); the functions here evaluate the same
forms one vector pair or one real frame at a time, from their coordinate
definitions on R^{2m} with interleaved coordinates (Re z_1, Im z_1, ...).
``perm_expand_contract`` contracts basis multivectors by permutation
expansion, the reference for the coefficient arrays of chi, and
``lie_derivative_residual`` checks a symmetry field by finite differences
of the pushed-forward chi, with ``scipy.linalg.expm`` for the flow.
``quadric_sampler_loop`` is the quadric sampler one line at a time, the
reference for the stacked sampler's points, and ``frame_forms_hermitian``
evaluates the forms on frames by one Hermitian matrix product each, as the
library did before its elementwise pair products.

``sym_closed_solutions`` counts the closed solutions of a symmetric tuple
with ``fractions.Fraction`` alone, the reference for ``periodic_search``.

The rest are references no command runs: the reduced (u, theta_j) form of
the centred system, the derivative relations of the Jacobi functions, the
rotated planes and the conformality residuals of the cone-over-link sweep.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import comb, gcd

import numpy as np
import pytest

from slevolve import ConstructionError, ValidationError
from slevolve.centred import CentredParams
from slevolve.evodata import _SINGULAR_TOL, QuadricSpec
from slevolve.multilinear import complex_to_real, k_subsets


@dataclass(frozen=True)
class ComplexPoint:
    """Point of C^m stored as 2m interleaved reals (Re z_1, Im z_1, ...)."""

    m: int
    coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (2 * self.m,):
            raise ValidationError(f"expected {2 * self.m} coordinates")
        if not np.all(np.isfinite(c)):
            raise ValidationError("non-finite coordinate")
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @classmethod
    def from_complex(cls, z) -> "ComplexPoint":
        z = np.asarray(z, dtype=complex)
        return cls(z.size, complex_to_real(z))

    def to_complex(self) -> np.ndarray:
        return real_to_complex(self.coords)


@dataclass(frozen=True)
class Frame:
    """m real tangent vectors in R^{2m}, the columns of a candidate tangent
    m-plane to C^m."""

    m: int
    vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.shape != (self.m, 2 * self.m):
            raise ValidationError(
                f"frame must be {self.m} vectors of length {2 * self.m}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("non-finite frame entry")
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)


def real_to_complex(v: np.ndarray) -> np.ndarray:
    """Interleaved R^{2m} vector -> complex m-vector."""
    v = np.asarray(v, dtype=float)
    return v[..., 0::2] + 1j * v[..., 1::2]


def eval_omega(v1, v2, m: int) -> float:
    """Symplectic form omega = sum_j dx_j ^ dy_j evaluated on two vectors."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if v1.shape != (2 * m,) or v2.shape != (2 * m,):
        raise ValidationError(f"vectors must have length {2 * m}")
    return float(np.dot(v1[0::2], v2[1::2]) - np.dot(v1[1::2], v2[0::2]))


def eval_omega_complex(frame: Frame) -> complex:
    """The complex volume form dz_1 ^ ... ^ dz_m on a frame: the determinant
    of the m x m complex matrix whose columns are the frame vectors read as
    complex m-vectors."""
    Z = real_to_complex(frame.vectors).T
    return complex(np.linalg.det(Z))


def gram_volume(vectors: np.ndarray) -> float:
    """Square root of the Gram determinant of row vectors."""
    V = np.asarray(vectors, dtype=float)
    det = np.linalg.det(V @ V.T)
    return float(np.sqrt(max(det, 0.0)))


def basis(n, indices):
    """Coefficients of e_I over the k-subsets of {0, ..., n-1}."""
    subs = k_subsets(n, len(indices))
    return np.eye(len(subs))[subs.index(tuple(indices))]


def perm_expand_contract(indices, form_idx, n):
    """Permutation-expansion oracle for e_I . dx_J: expand the basis
    multivector into signed tensor products, contract the form with the
    leading slots, and read off the coefficient of each increasing
    remainder.  Returns coefficients over ``k_subsets(n, |I| - |J|)``."""
    k, q = len(indices), len(form_idx)
    rests = k_subsets(n, k - q)
    out = np.zeros(len(rests))
    for perm in permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if perm[i] > perm[j]:
                    sign = -sign
        seq = [indices[p] for p in perm]
        rest = tuple(seq[q:])
        # the other orderings of the remainder make up its own alternation
        if tuple(seq[:q]) == tuple(form_idx) and rest == tuple(sorted(rest)):
            out[rests.index(rest)] += sign
    return out


def pushforward(coeffs, B: np.ndarray, k: int) -> np.ndarray:
    """Apply Lambda^k B to a k-vector's coefficients, for a real N x n
    matrix B."""
    coeffs = np.asarray(coeffs, dtype=float)
    B = np.asarray(B, dtype=float)
    N, n = B.shape
    if coeffs.shape != (comb(n, k),):
        raise ValidationError("coefficients do not match the matrix width")
    out = np.zeros(comb(N, k))
    src = [(i, S) for i, S in enumerate(k_subsets(n, k)) if coeffs[i] != 0.0]
    for t, T in enumerate(k_subsets(N, k)):
        rows = B[list(T), :]
        acc = 0.0
        for i, S in src:
            acc += coeffs[i] * np.linalg.det(rows[:, list(S)])
        out[t] = acc
    return out


def lie_derivative_residual(data, vfield: np.ndarray, step: float = 1e-5,
                            n_probe: int = 12, seed: int = 0) -> float:
    """Finite-difference size of L_v chi for a linear field v (matrix V).

    The pullback of chi under the time-s flow of V is
    Lambda^{m-1}(e^{-sV}) chi(e^{sV} x); the derivative at s=0 is estimated
    by central differences and normalized by |chi(x)|.  Skips the calling
    test where scipy, which supplies the flow, is not installed.
    """
    expm = pytest.importorskip("scipy.linalg").expm
    V = np.asarray(vfield, dtype=float)
    rng = np.random.default_rng(seed)
    fwd = expm(step * V)
    bwd = expm(-step * V)
    worst = 0.0
    for _ in range(n_probe):
        x = rng.normal(size=data.n)
        chi_plus = pushforward(data.chi_at(fwd @ x), bwd, data.m - 1)
        chi_minus = pushforward(data.chi_at(bwd @ x), fwd, data.m - 1)
        diff = (chi_plus - chi_minus) * (0.5 / step)
        scale = max(np.linalg.norm(data.chi_at(x)), 1e-30)
        worst = max(worst, np.linalg.norm(diff) / scale)
    return worst


def frame_forms_hermitian(Z) -> tuple:
    """``multilinear.frame_forms`` as one Hermitian matrix product per
    frame: omega from the imaginary part of conj(Z) Z^T over the row norms,
    the Gram determinant of the unit rows from its real part and Im Omega
    from the determinant of the unit rows as columns.  It squares the
    unnormalized entries, so it holds only for entries between about
    1e-150 and 1e150 in size."""
    Z = np.asarray(Z, dtype=complex)
    k, m = Z.shape[-2:]
    norms = np.linalg.norm(Z, axis=-1)
    herm = np.conj(Z) @ np.swapaxes(Z, -1, -2)
    iu, ju = np.triu_indices(k, 1)
    denom = np.maximum(norms[..., iu] * norms[..., ju], 1e-300)
    omega = np.max(np.abs(herm.imag[..., iu, ju]) / denom, axis=-1,
                   initial=0.0)
    if k != m:
        return omega, None, None
    outer = np.maximum(norms[..., :, None] * norms[..., None, :], 1e-300)
    unit_cols = np.swapaxes(Z / np.maximum(norms, 1e-300)[..., None], -1, -2)
    return (omega, np.linalg.det(herm.real / outer),
            np.abs(np.linalg.det(unit_cols).imag))


def sym_closed_solutions(m: int, a: int, b_max: int) -> set:
    """The closed solutions of ``sym(m, a)`` with denominator <= b_max,
    as {(int_angles, denom)}, in exact arithmetic (ROADMAP item 8).

    The last m - a letters share beta_- and a beta_+ + (m - a) beta_- = 0.
    If beta_-/pi runs monotonically between its limits 1/(m - a) (A -> 0)
    and sqrt(2a / (m (m - a))) (A -> A_max), each r = k/b strictly between
    them with a dividing (m - a) k closes: the angles ((-(m - a) k / a)^a,
    k^(m - a)) over b, reduced by their gcd.  The irrational limit is
    compared by squares, so no float decides a fraction at a limit.
    """
    lo2, hi2 = sorted((Fraction(1, (m - a) ** 2),
                       Fraction(2 * a, m * (m - a))))
    out = set()
    for b in range(1, b_max + 1):
        for k in range(1, 2 * b + 1):       # both limits lie below sqrt(2)
            if (m - a) * k % a or not lo2 < Fraction(k, b) ** 2 < hi2:
                continue
            plus = -(m - a) * k // a
            g = gcd(gcd(b, k), plus)
            out.add(((plus // g,) * a + (k // g,) * (m - a), b // g))
    return out


def line_roots(a2, a1, a0) -> list:
    """Roots s of a2 s^2 + a1 s + a0 on one line: ``np.roots`` where
    |a2| > 1e-14, else -a0/a1 where |a1| > 1e-14, else none."""
    if abs(a2) > 1e-14:
        return list(np.roots([a2, a1, a0]))
    return [-a0 / a1] if abs(a1) > 1e-14 else []


def quadric_sampler_loop(spec: QuadricSpec, c: float):
    """The quadric sampler with every line's coefficients, roots, hits and
    gradient norms taken one line and one point at a time."""
    n = spec.n
    scale = max(1.0, float(np.abs(spec.S).max()), float(np.abs(spec.b).max()))

    def sampler(count: int, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        pts = []
        attempts, budget = 0, 250 * count + 500
        while len(pts) < count and attempts < budget:
            # one block of lines per round, drawn in the per-attempt order;
            # the draws past the last accepted point are never used
            block = min(count - len(pts), budget - attempts)
            attempts += block
            lines, coeffs = [], []
            for _ in range(block):
                p0 = rng.normal(size=n) * rng.uniform(0.3, 3.0)
                d = rng.normal(size=n)
                lines.append((p0, d))
                coeffs.append((d @ spec.S @ d,
                               2.0 * p0 @ spec.S @ d + spec.b @ d,
                               spec.value(p0) - c))
            roots = (line_roots(*abc) for abc in coeffs)
            hits = (p0 + float(np.real(s)) * d
                    for (p0, d), rs in zip(lines, roots)
                    for s in rs if abs(np.imag(s)) <= 1e-12)
            for p in hits:
                if np.linalg.norm(spec.gradient(p)) >= _SINGULAR_TOL * scale:
                    pts.append(p)
                    if len(pts) >= count:
                        break
        if len(pts) < count:
            raise ConstructionError(
                "could not sample the quadric level set (empty or degenerate)")
        return np.asarray(pts)

    return sampler


@dataclass(frozen=True)
class ReducedState:
    """(u, theta_1..theta_m)."""

    u: float
    thetas: tuple

    @property
    def theta(self) -> float:
        return float(np.sum(self.thetas))


def reduce_state(w, params: CentredParams, consistency_tol: float = 1e-8):
    """Recover (u, theta_j) and the conserved A from a w value.

    The m values of u implied by the moduli must agree to consistency_tol.
    """
    w = np.asarray(w, dtype=complex)
    al = params.alpha_array
    u_each = params.signs * (np.abs(w) ** 2 - al)
    scale = max(1.0, float(np.max(np.abs(al))))
    if np.max(u_each) - np.min(u_each) > consistency_tol * scale:
        raise ValidationError("moduli inconsistent with the given alphas")
    u = float(np.mean(u_each))
    thetas = tuple(float(x) for x in np.angle(w))
    state = ReducedState(u, thetas)
    A = float(np.sqrt(max(params.Q(u), 0.0)) * np.sin(state.theta))
    return state, A


def rhs_reduced(state: ReducedState, params: CentredParams):
    """du/dt and dtheta_j/dt of the reduced system."""
    al = params.alpha_array
    u = state.u
    radicands = np.where(params.signs > 0, al + u, al - u)
    if np.any(radicands <= 0):
        raise ValidationError("state outside the domain alpha_j +- u > 0")
    Q = float(np.prod(radicands))
    sqrtQ = np.sqrt(Q)
    theta = state.theta
    du = 2.0 * sqrtQ * np.cos(theta)
    dthetas = -params.signs * sqrtQ * np.sin(theta) / radicands
    return float(du), dthetas


def jacobi_derivatives(snd: np.ndarray, k: float) -> np.ndarray:
    """(sn', cn', dn') from the defining first-order system, for values
    (..., 3) of (sn, cn, dn) at modulus k; shape (..., 3)."""
    sn, cn, dn = np.moveaxis(np.asarray(snd, dtype=float), -1, 0)
    return np.stack([cn * dn, -sn * dn, -(k ** 2) * sn * cn], axis=-1)


class RotatedPlaneFamily:
    """The plane diag(e^{i theta_1}, ..., e^{i theta_m}) R^m in the batched
    family protocol of ``meshverify``; special Lagrangian exactly when the
    phases sum to a multiple of pi.  It has no time value: its chart is the
    identity on R^m."""

    def __init__(self, thetas, radius: float = 2.0):
        self.thetas = np.asarray(thetas, dtype=float)
        self.m = self.thetas.size
        self.radius = radius

    def sample_params(self, count: int, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.uniform(-self.radius, self.radius, size=(count, self.m))

    def points(self, P) -> np.ndarray:
        return np.exp(1j * self.thetas) * np.asarray(P, dtype=float)

    def frames(self, P) -> np.ndarray:
        return np.broadcast_to(np.diag(np.exp(1j * self.thetas)),
                               (len(P), self.m, self.m))


def link_grid(family, ns: int, nt: int) -> np.ndarray:
    """Parameter rows (t, s, r = 1) of a ``ConeOverLinkFamily`` on an ns x nt
    grid over one period of the link circle in s and [0, t_span] in t."""
    S, T = np.meshgrid(np.linspace(0.0, family.chart.section.period, ns),
                       np.linspace(0.0, family.t_span, nt), indexing="ij")
    return np.column_stack([T.ravel(), S.ravel(), np.ones(S.size)])


def link_conformality(family, ns: int, nt: int) -> dict:
    """Conformality and sphere residuals of the sweep Phi(s, t) of a
    ``ConeOverLinkFamily`` on its ``link_grid``.

    At r = 1 the family's frame rows are (dPhi/dt, dPhi/ds, Phi); the two
    derivatives must be orthogonal, of equal squared norm, and that norm
    must be alpha_3 - u + (alpha_2 - alpha_3)(alpha_1 + alpha_3) x_3^2 with
    u = |w_1|^2 - alpha_1; Phi itself lies on the unit sphere.
    """
    P = link_grid(family, ns, nt)
    F = family.frames(P)
    dphi_dt, dphi_ds = F[:, 0], F[:, 1]
    a1, a2, a3 = family.params.alphas
    u = np.abs(family.path.w(P[:, 0])[:, 0]) ** 2 - a1
    x3 = family.chart.section.x(P[:, 1])[:, 2]
    closed = a3 - u + (a2 - a3) * (a1 + a3) * x3 ** 2
    ns2 = np.sum(np.abs(dphi_ds) ** 2, axis=-1)
    nt2 = np.sum(np.abs(dphi_dt) ** 2, axis=-1)
    inner = np.sum(dphi_ds * np.conj(dphi_dt), axis=-1).real
    sphere = np.linalg.norm(family.points(P), axis=-1) - 1.0
    return {
        "max_sphere_residual": float(np.abs(sphere).max()),
        "max_orthogonality": float(np.abs(inner).max()),
        "max_norm_mismatch": float(np.abs(ns2 - nt2).max()),
        "max_norm_vs_closed": float(max(np.abs(ns2 - closed).max(),
                                        np.abs(nt2 - closed).max())),
    }
