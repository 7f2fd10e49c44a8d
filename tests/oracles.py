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

The rest are references no command runs: the tangency check of evolution
data (``chi_at``, ``tangency_residual``), the paper's symmetry Lie algebra
of evolution data (``symmetry_algebra``) and its n = m classifier
(``classify_square``), the fully explicit m = 3 translated solutions
(``Affine3ClosedForm``, swept by ``Affine3ClosedFamily``), the reduced
(u, theta_j) form of the centred system, the derivative relations of the
Jacobi functions, the rotated planes and the conformality residuals of the
cone-over-link sweep.
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
from slevolve.meshverify import ParaboloidChart, _SweptFamily
from slevolve.multilinear import complex_to_real, insertion_table, k_subsets


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


def chi_at(data, x) -> np.ndarray:
    """Coefficients of chi at points x (..., n), shape (..., C(n, m-1))."""
    x = np.asarray(x, dtype=float)
    return x @ data.chi[:, :-1].T + data.chi[:, -1]


def tangency_residual(data, pts) -> np.ndarray:
    """Size of the component of chi(p) transverse to T_p P at stacked
    points, shape (N,): the interior product with each defining normal
    must vanish for a multivector of Lambda^{m-1} T_p P.  Inf where
    chi(p) = 0."""
    pts = np.asarray(pts, dtype=float).reshape(-1, data.n)
    chis = chi_at(data, pts)
    nus = data.normals(pts)
    rank, sign = insertion_table(data.n, data.m - 2)
    resid = np.einsum("ki,pri,pki->prk", sign, nus, chis[:, rank])
    worst = np.max(np.linalg.norm(resid, axis=-1)
                   / np.linalg.norm(nus, axis=-1), axis=-1)
    nchi = np.linalg.norm(chis, axis=-1)
    return np.divide(worst, nchi, out=np.full_like(worst, np.inf),
                     where=nchi != 0.0)


def max_tangency_residual(data, count: int, seed: int) -> float:
    """The largest ``tangency_residual`` over ``data.sample(count, seed)``:
    at most round-off exactly when chi(p) lies in Lambda^{m-1} T_p P, and
    nonzero, at every sampled point."""
    return float(np.max(tangency_residual(data, data.sample(count, seed))))


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
        chi_plus = pushforward(chi_at(data, fwd @ x), bwd, data.m - 1)
        chi_minus = pushforward(chi_at(data, bwd @ x), fwd, data.m - 1)
        diff = (chi_plus - chi_minus) * (0.5 / step)
        scale = max(np.linalg.norm(chi_at(data, x)), 1e-30)
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


# ---------------------------------------------------------------------------
# the symmetry Lie algebra of evolution data and the n = m classifier
# ---------------------------------------------------------------------------

_RANK_TOL = 1e-10


@dataclass
class SymmetryAlgebra:
    """Lie algebra generated by the contractions L(alpha) = chi . alpha.

    ``basis`` is an orthonormal (Frobenius) basis of the algebra; the image
    generators are the raw L(alpha) over the standard basis of
    Lambda^{m-2}(R^n)*.  ker_dim records dim ker L; grew_in_closure is
    False when span(Im L) was already closed (surjectivity of L onto the
    algebra).
    """

    n: int
    basis: list
    image_generators: list
    ker_dim: int
    grew_in_closure: bool

    @property
    def dim(self) -> int:
        return len(self.basis)

    def bracket_residual(self) -> float:
        """Max component of any commutator of basis elements outside the span."""
        if not self.basis:
            return 0.0
        flat = np.array([B.ravel() for B in self.basis])
        proj = flat.T @ flat  # orthonormal rows: projector onto the span
        worst = 0.0
        for X in self.basis:
            for Y in self.basis:
                br = (X @ Y - Y @ X).ravel()
                out = br - proj @ br
                scale = np.linalg.norm(X) * np.linalg.norm(Y)
                worst = max(worst, np.linalg.norm(out) / max(scale, 1e-30))
        return worst


def _orthonormal_rows(mats):
    flat = np.array([np.asarray(M, dtype=float).ravel() for M in mats])
    u, s, vt = np.linalg.svd(flat, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, flat.shape[1])), 0
    rank = int(np.sum(s > _RANK_TOL * s[0]))
    return vt[:rank], rank


def symmetry_algebra(data) -> SymmetryAlgebra:
    """Generate the symmetry algebra of a set of evolution data.

    Every set of evolution data carries a symmetry Lie algebra spanned by
    the contractions L(alpha) = chi . alpha over (m-2)-forms alpha; the
    algebra closes under commutators onto span(Im L) and acts locally
    transitively on P.  Affine data is first linearized over R^{n+1} (P
    embedded at height 1).  Iterates commutators until the span stabilizes
    and reports whether any iteration enlarged it (it should not: the image
    of L is already an ideal).
    """
    n, m = data.n, data.m
    if data.kind == "affine":
        # the constant column becomes the coefficient of x_{n+1}
        subs = k_subsets(n + 1, m - 1)
        cols = np.zeros((len(subs), n + 1))
        cols[[subs.index(I) for I in k_subsets(n, m - 1)]] = data.chi
        n += 1
    else:
        cols = data.chi[:, :n]

    # L(dx_J)_i = e_{J+i} . dx_J: the form fills the leading m-2 slots, so
    # the sign is (-1)^(m-2) times that of inserting i into J; the added
    # 0.0 leaves no zero signed
    rank, sign = insertion_table(n, m - 2)
    generators = list(0.0 + ((-1.0) ** m * sign)[:, :, None] * cols[rank])

    basis_flat, rank0 = _orthonormal_rows(generators)
    ker_dim = len(generators) - rank0

    grew = False
    current = basis_flat
    for _ in range(n * n + 1):
        mats = [row.reshape(n, n) for row in current]
        brackets = [X @ Y - Y @ X for i, X in enumerate(mats)
                    for Y in mats[i + 1:]]
        stacked = list(current) + [b.ravel() for b in brackets]
        new_flat, new_rank = _orthonormal_rows(stacked)
        if new_rank == current.shape[0]:
            break
        grew = True
        current = new_flat
    basis = [row.reshape(n, n) for row in current]
    return SymmetryAlgebra(n, basis, generators, ker_dim, grew)


@dataclass(frozen=True)
class SquareClassification:
    """Outcome of the n = m classification via the 1-form beta = vol . chi;
    S and c are set for a quadric."""

    label: str  # 'quadric' | 'curve_times_plane' | 'indeterminate'
    S: np.ndarray = None
    c: float = None


def classify_square(data, n_samples: int = 40) -> SquareClassification:
    """Classify n = m evolution data by the constant 2-form d(beta).

    beta(x)(w) = vol(chi(x) ^ w) is linear/affine; d(beta) = 0 recovers a
    quadric with beta = dQ, and d(beta) of rank 2 with beta valued in its
    row plane is the integral-curve-times-plane construction.  Rank
    ambiguity at the tolerance 1e-9 is reported, not guessed.
    """
    n, m = data.n, data.m
    if n != m:
        raise ValidationError("classification applies to n = m data")
    tol = 1e-9

    # beta_i = vol(chi ^ e_i), and e_K ^ e_i = (-1)^(n-1) e_i ^ e_K
    W = (-1.0) ** (n - 1) * insertion_table(n, n - 1)[1].T
    B = W @ data.chi[:, :n]
    beta0 = W @ data.chi[:, n]
    D = B - B.T
    scale = max(np.abs(B).max(), np.abs(beta0).max(), 1e-300)
    svals = np.linalg.svd(D, compute_uv=False)
    pts = data.sample(n_samples, 0)

    if svals[0] <= tol * scale:
        # beta = dQ with Q = x'Sx + b'x; S from the symmetric part
        S = 0.25 * (B + B.T)
        cvals = np.einsum("pi,ij,pj->p", pts, S, pts) + pts @ beta0
        return SquareClassification("quadric", S=S, c=float(np.mean(cvals)))

    third = svals[2] if svals.size >= 3 else 0.0
    if third <= tol * svals[0]:
        # d(beta) = gamma ^ delta; beta must lie in the row plane on P
        plane = np.linalg.svd(D)[2][:2]
        bp = pts @ B.T + beta0
        out = bp - (bp @ plane.T) @ plane
        worst = np.max(np.linalg.norm(out, axis=1)
                       / np.maximum(np.linalg.norm(bp, axis=1), 1e-30))
        if worst <= 1e-6:
            return SquareClassification("curve_times_plane")
    return SquareClassification("indeterminate")


# ---------------------------------------------------------------------------
# the fully explicit m = 3 translated solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Affine3ClosedForm:
    """Fully explicit solutions of the m = 3 non-centred system.

    variant 'a2' is the hyperbolic pair (dw_1 = conj w_2, dw_2 = conj w_1),
    variant 'a1' the trigonometric pair (dw_1 = conj w_2, dw_2 = -conj w_1);
    both drive the translation by d(beta)/dt = conj(w_1 w_2).  (C, D) must
    not both vanish.
    """

    variant: str
    C: complex
    D: complex
    E: complex

    def w(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        C, D = self.C, self.D
        if self.variant == "a2":
            w1 = C * np.exp(t) + D * np.exp(-t)
            w2 = np.conj(C) * np.exp(t) - np.conj(D) * np.exp(-t)
        else:
            w1 = C * np.exp(1j * t) + D * np.exp(-1j * t)
            w2 = (1j * np.conj(D) * np.exp(1j * t)
                  - 1j * np.conj(C) * np.exp(-1j * t))
        return np.stack([w1, w2], axis=-1)

    def dw(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        C, D = self.C, self.D
        if self.variant == "a2":
            dw1 = C * np.exp(t) - D * np.exp(-t)
            dw2 = np.conj(C) * np.exp(t) + np.conj(D) * np.exp(-t)
        else:
            dw1 = 1j * C * np.exp(1j * t) - 1j * D * np.exp(-1j * t)
            dw2 = (-np.conj(D) * np.exp(1j * t)
                   - np.conj(C) * np.exp(-1j * t))
        return np.stack([dw1, dw2], axis=-1)

    def _beta_terms(self) -> tuple:
        """(lam, P, M, drift) with
        beta = P e^(2 lam t) + M e^(-2 lam t) + drift t + E."""
        C, D = self.C, self.D
        if self.variant == "a2":
            return (1, 0.5 * abs(C) ** 2, 0.5 * abs(D) ** 2,
                    2j * np.imag(C * np.conj(D)))
        return (1j, 0.5 * C * np.conj(D), 0.5 * np.conj(C) * D,
                1j * (abs(C) ** 2 - abs(D) ** 2))

    def beta(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        lam, P, M, drift = self._beta_terms()
        return (P * np.exp(2 * lam * t) + M * np.exp(-2 * lam * t)
                + drift * t + self.E)

    def dbeta(self, t) -> np.ndarray:
        """d(beta)/dt of the closed form (the system asks conj(w_1 w_2))."""
        t = np.asarray(t, dtype=float)
        lam, P, M, drift = self._beta_terms()
        return (2 * lam * (P * np.exp(2 * lam * t) - M * np.exp(-2 * lam * t))
                + drift)

    def ode_residual(self, t) -> float:
        """Max defect of the closed form against its defining system,
        the translation law d(beta)/dt = conj(w_1 w_2) included."""
        w, dw = self.w(t), self.dw(t)
        sign = 1.0 if self.variant == "a2" else -1.0
        defects = (dw[..., 0] - np.conj(w[..., 1]),
                   dw[..., 1] - sign * np.conj(w[..., 0]),
                   self.dbeta(t) - np.conj(w[..., 0] * w[..., 1]))
        return float(max(np.abs(d).max() for d in defects))

    def point(self, x1, x2, t) -> np.ndarray:
        """Points of the swept three-fold; the third quadric coordinate is
        eliminated through the defining paraboloid equation."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        w = self.w(t)
        if self.variant == "a2":
            x3 = -0.5 * (x1 ** 2 + x2 ** 2)
        else:
            x3 = 0.5 * (x2 ** 2 - x1 ** 2)
        return np.stack([w[..., 0] * x1, w[..., 1] * x2,
                         x3 + self.beta(t)], axis=-1)


class Affine3ClosedFamily(_SweptFamily):
    """The explicit m = 3 translated solutions as a map of (t, x_1, x_2), in
    the batched family protocol of ``meshverify``."""

    t_span = 3.0

    def __init__(self, form: Affine3ClosedForm):
        self.form = form
        self.m = 3
        self.chart = ParaboloidChart(
            (1.0, 1.0) if form.variant == "a2" else (1.0, -1.0))

    def _motion(self, t) -> tuple:
        f = self.form
        return f.w(t), f.dw(t), f.beta(t), f.dbeta(t)
