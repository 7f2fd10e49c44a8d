"""Construction and validation of linear/affine evolution data (P, chi).

A set of evolution data is an (m-1)-submanifold P of R^n together with a
linear (or affine) map chi: R^n -> Lambda^{m-1} R^n whose value at every
nonsingular p in P is a nonzero element of Lambda^{m-1} T_p P.  Quadric
level sets {x: x'Sx + b'x = c} in R^m supply the main family, with

    chi(x) = dQ(x) . (e_1 ^ ... ^ e_m)
           = sum_j (-1)^(j-1) dQ/dx_j  e_1 ^ ... e_j-hat ... ^ e_m.

Every set of evolution data carries a symmetry Lie algebra spanned by the
contractions L(alpha) = chi . alpha over (m-2)-forms alpha; the algebra
closes under commutators onto span(Im L) and acts locally transitively on P.
"""

from dataclasses import dataclass, field
from math import ceil, comb

import numpy as np

from . import ode
from .errors import ConstructionError, ImportedRecipe, ValidationError
from .multilinear import insertion_table, k_subsets
from .roots import companion_roots

_SINGULAR_TOL = 1e-8
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class QuadricSpec:
    """Quadratic polynomial Q(x) = x'Sx + b'x + c0 over R^n."""

    n: int
    S: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c0: float = 0.0

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if S.shape != (self.n, self.n):
            raise ValidationError("S must be n x n")
        if not np.allclose(S, S.T, atol=1e-12 * max(1.0, np.abs(S).max())):
            raise ValidationError("S must be symmetric")
        if b.shape != (self.n,):
            raise ValidationError("b must be an n-vector")
        if np.all(S == 0) and np.all(b == 0):
            raise ValidationError("S and b cannot both vanish")
        S = 0.5 * (S + S.T)
        S.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "b", b)

    def value(self, x: np.ndarray):
        """Q at points x (..., n).

        The products (x_i S_ij) x_j are added in one running sum from 0.0,
        in row-major order (what ``np.einsum("i,ij,j", x, S, x)`` does on
        one point for n >= 3), and b'x is one dot product per point, so a
        point has the same value alone as in a stack.
        """
        x = np.asarray(x, dtype=float)
        terms = (x[..., :, None] * self.S * x[..., None, :]).reshape(
            x.shape[:-1] + (-1,))
        quad = np.cumsum(terms, axis=-1)[..., -1] + 0.0
        return quad + (x[..., None, :] @ self.b[:, None])[..., 0, 0] + self.c0

    def gradient(self, x: np.ndarray):
        """dQ at points x (..., n), one gemv per point."""
        x = np.asarray(x, dtype=float)
        return (2.0 * x[..., None, :] @ self.S)[..., 0, :] + self.b


class EvolutionData:
    """A pair (P, chi) with samplers and normal data for validation.

    chi is one array of shape (C(n, m-1), n+1), a row per (m-1)-subset of
    ``k_subsets`` and a column per coordinate x_q, then the constant column:
    chi(x) = chi[:, :n] @ x + chi[:, n].  The sampler produces points of P
    (seeded, reproducible) and ``normals`` returns the covectors cutting out
    T_p P, from which orthonormal tangent bases are built.

    ``normals`` takes stacked points (..., n) and returns r covectors per
    point, shape (..., r, n); a point's covectors must not depend on the
    stack it is in (the library's data build them from matmuls with the
    same per-point cores, one gemv per point, alone or stacked), so that
    ``tangent_bases`` and ``tangency_residual`` call it once per stack.
    """

    def __init__(self, n, m, chi, sampler, normals, label="", recipe=None):
        if not (2 <= m <= n):
            raise ValidationError("need 2 <= m <= n")
        chi = np.array(chi, dtype=float)
        shape = (comb(n, m - 1), n + 1)
        if chi.shape != shape:
            raise ValidationError(
                f"chi needs shape {shape} (one row per (m-1)-subset, one "
                f"column per coordinate and the constant), got {chi.shape}")
        if not np.all(np.isfinite(chi)):
            raise ValidationError("non-finite chi coefficient")
        chi.flags.writeable = False
        self.n = n
        self.m = m
        self.chi = chi
        self.sampler = sampler
        self.normals = normals
        self.label = label
        self.recipe = dict(recipe or {})

    @property
    def kind(self) -> str:
        """'affine' exactly when chi has a nonzero constant column."""
        return "affine" if np.any(self.chi[:, -1] != 0.0) else "linear"

    def chi_at(self, x) -> np.ndarray:
        """Coefficients of chi at points x (..., n), shape (..., C(n, m-1)),
        from a matmul on one (1, n) core per point, so that a point has
        the same coefficients alone as in a stack."""
        x = np.asarray(x, dtype=float)[..., None, :]
        return (x @ self.chi[:, :-1].T)[..., 0, :] + self.chi[:, -1]

    def sample(self, count: int, seed: int = 0) -> np.ndarray:
        return self.sampler(count, seed)

    def tangent_bases(self, pts) -> np.ndarray:
        """Orthonormal bases of T_p P as rows for stacked points, shape
        (N, m-1, n).

        One stacked full SVD of the normal covectors (r, n) at every point;
        the rank rule and the rows kept are ``scipy.linalg.null_space``'s:
        singular values above s.max() * eps * max(r, n) span the normal
        space, and the remaining right singular vectors are the basis.
        """
        pts = np.asarray(pts, dtype=float).reshape(-1, self.n)
        if len(pts) == 0:
            return np.empty((0, self.m - 1, self.n))
        N = self.normals(pts)
        _, s, vh = np.linalg.svd(N, full_matrices=True)
        tol = np.max(s, axis=-1, initial=0.0) * (
            np.finfo(float).eps * max(N.shape[1], self.n))
        dims = self.n - np.sum(s > tol[:, None], axis=-1)
        bad = np.nonzero(dims != self.m - 1)[0]
        if bad.size:
            i = int(bad[0])
            raise ValidationError(
                f"{self.label}: tangent space at sample {i} (point "
                f"{pts[i].tolist()}) has dimension {dims[i]}, expected "
                f"{self.m - 1}")
        return np.ascontiguousarray(vh[:, self.n - self.m + 1:, :])

    def tangent_basis(self, p) -> np.ndarray:
        """Orthonormal basis of T_p P as rows, from the normal covectors."""
        return self.tangent_bases(np.asarray(p, dtype=float)[None])[0]

    def tangency_residual(self, pts) -> np.ndarray:
        """Size of the component of chi(p) transverse to T_p P at stacked
        points, shape (N,): the interior product with each defining normal
        must vanish for a multivector of Lambda^{m-1} T_p P.  Inf where
        chi(p) = 0."""
        pts = np.asarray(pts, dtype=float).reshape(-1, self.n)
        chis = self.chi_at(pts)
        nus = self.normals(pts)
        rank, sign = insertion_table(self.n, self.m - 2)
        resid = np.einsum("ki,pri,pki->prk", sign, nus, chis[:, rank])
        worst = np.max(np.linalg.norm(resid, axis=-1)
                       / np.linalg.norm(nus, axis=-1), axis=-1)
        nchi = np.linalg.norm(chis, axis=-1)
        return np.divide(worst, nchi, out=np.full_like(worst, np.inf),
                         where=nchi != 0.0)

    def validate(self, n_samples: int = 200, seed: int = 0) -> dict:
        """Numerical check of the defining conditions on sampled points."""
        pts = self.sample(n_samples, seed)
        tang = self.tangency_residual(pts)
        chinorm = np.linalg.norm(self.chi_at(pts), axis=-1)
        span_pts = self.sample(2 * self.n, seed + 1)
        if self.kind == "affine":
            span_pts = np.column_stack([span_pts, np.ones(len(span_pts))])
        rank = np.linalg.matrix_rank(span_pts, tol=_RANK_TOL * max(
            1.0, np.abs(span_pts).max()) * max(span_pts.shape))
        full = self.n + (1 if self.kind == "affine" else 0)
        return {
            "max_tangency_residual": float(np.max(tang)),
            "min_chi_norm": float(np.min(chinorm)),
            "spans_ambient": bool(rank == full),
            "span_rank": int(rank),
            "samples": len(pts),
        }

    def to_json_dict(self) -> dict:
        d = {
            "schema": "sl-evodata-1",
            "n": self.n,
            "m": self.m,
            "kind": self.kind,
            "label": self.label,
            "chi_linear": self.chi[:, :-1].T.tolist(),
            "chi_const": self.chi[:, -1].tolist(),
        }
        d.update(self.recipe)
        return d


# ---------------------------------------------------------------------------
# quadric evolution data
# ---------------------------------------------------------------------------

def _top_contraction(X: np.ndarray) -> np.ndarray:
    """chi of n = m data, chi(x) = xi(x) . (e_1 ^ ... ^ e_n) with the 1-form
    xi(x)_i = X[i, :n] @ x + X[i, n], as an (n, n+1) chi array:
    chi(x) = sum_i (-1)^(i-1) xi_i e_1 ^ ... e_i-hat ... ^ e_n.
    """
    return insertion_table(X.shape[0], X.shape[0] - 1)[1] @ X


def _root_table(coeffs: np.ndarray) -> np.ndarray:
    """Roots s of a2 s^2 + a1 s + a0 for each row (a2, a1, a0) of coeffs,
    as a (rows, 2) complex table padded with NaN + NaN i: ``np.roots``'s
    where |a2| > 1e-14, else -a0/a1 where |a1| > 1e-14, else none.  A
    quadratic row's roots come from its companion row -(a1, a0)/a2: one
    ``roots.companion_roots`` where a0 != 0, and (-a1/a2, 0), ``np.roots``'s
    roots bit for bit, where a0 = 0.  A line whose companion row or
    linear root is not finite (a coefficient out of reach) has no roots."""
    table = np.full((len(coeffs), 2), complex(np.nan, np.nan))
    a2, a1, a0 = coeffs.T
    quad = np.abs(a2) > 1e-14
    with np.errstate(all="ignore"):     # only finite rows below are read
        comp = -coeffs[:, 1:] / coeffs[:, :1]
        lin = -a0 / a1
    ok = quad & np.isfinite(comp).all(axis=1)
    stacked = ok & (a0 != 0.0)
    table[stacked] = companion_roots(coeffs[stacked])
    pure = ok & (a0 == 0.0)     # np.roots's (-a1/a2, 0), a zero as +0.0
    table[pure] = comp[pure] + 0.0
    linear = ~quad & (np.abs(a1) > 1e-14) & np.isfinite(lin)
    table[linear, 0] = lin[linear]
    return table


def _quadric_sampler(spec: QuadricSpec, c: float):
    """Sample the level set Q = c by intersecting random lines with it,
    rejecting points where |dQ| is below the nonsingularity threshold.

    Each round draws a block of lines, one attempt at a time in the order
    the draws were always made, then takes the block's quadratics, hits and
    gradient norms in stacked calls; the hits are kept in line order up to
    the count, so a longer block only draws lines no point comes from.
    Every product is a matmul with (1, n) cores, where numpy runs one gemv
    or ddot per row, as it does on one line alone, so the points do not
    depend on the block size.  ``_root_table`` solves the block's
    quadratics into one root table, and one mask picks the real roots in
    line order.
    """
    n = spec.n
    scale = max(1.0, float(np.abs(spec.S).max()), float(np.abs(spec.b).max()))
    b = spec.b[:, None]

    def sampler(count: int, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        pts = [np.empty((0, n))]
        found, attempts, budget = 0, 0, 250 * count + 500
        while found < count and attempts < budget:
            # one line per point first, then lines for the missing points at
            # half as many again as the yield so far asks, so that a round
            # rarely falls short; draws past the last accepted point are
            # never used
            block = count - found
            if attempts:
                block = ceil(1.5 * block * attempts / max(found, 1))
            block = min(block, budget - attempts)
            attempts += block
            P0, D = np.empty((block, n)), np.empty((block, n))
            for i in range(block):
                P0[i] = rng.normal(size=n) * rng.uniform(0.3, 3.0)
                D[i] = rng.normal(size=n)
            rows, cols = D[:, None, :], D[:, :, None]
            dSd, pSd = np.stack([rows, 2.0 * P0[:, None, :]]) @ spec.S @ cols
            coeffs = np.column_stack([dSd[:, 0, 0],
                                      (pSd + rows @ b)[:, 0, 0],
                                      spec.value(P0) - c])
            roots = _root_table(coeffs)
            # the real roots in line order; the NaN padding is never real
            real = np.abs(roots.imag) <= 1e-12
            lines, s = np.nonzero(real)[0], roots.real[real]
            hits = P0[lines] + s[:, None] * D[lines]
            grad = spec.gradient(hits)[:, None, :]
            with np.errstate(over="ignore"):    # out of reach: the norm is inf
                norms = np.sqrt((grad @ np.swapaxes(grad, 1, 2))[:, 0, 0])
            good = hits[(norms >= _SINGULAR_TOL * scale)
                        & (norms < np.inf)][:count - found]
            pts.append(good)
            found += len(good)
        if found < count:
            raise ConstructionError(
                "could not sample the quadric level set (empty or degenerate)")
        return np.concatenate(pts)

    return sampler


def quadric_data(spec: QuadricSpec, c: float) -> EvolutionData:
    """Evolution data of a nondegenerate quadric level set in R^n, n = m.

    chi(x) = dQ(x) . (e_1 ^ ... ^ e_n); linear kind exactly when Q is
    homogeneous (b = 0).
    """
    if not np.isfinite(c):
        raise ValidationError(f"the quadric level c must be finite, got {c!r}")
    n = spec.n
    chi = _top_contraction(np.column_stack([2.0 * spec.S, spec.b]))
    c_eff = c - spec.c0
    sampler = _quadric_sampler(spec, c)

    def normals(P):
        return spec.gradient(P)[..., None, :]

    data = EvolutionData(
        n, n, chi, sampler, normals,
        label=f"quadric(n={n}, c={c})",
        recipe={"recipe": "quadric", "S": spec.S.tolist(),
                "b": spec.b.tolist(), "c": float(c_eff)})
    # construction fails loudly on an empty or degenerate level set
    sampler(8, seed=0)
    return data


def example_quadric(m: int, a: int, c: float = 1.0) -> EvolutionData:
    """The signature-(a, m-a) centred quadric sum x_j^2 - sum x_j^2 = c
    (c = 0 gives the cone with its singular vertex excluded by sampling)."""
    if not (1 <= a <= m):
        raise ValidationError("need 1 <= a <= m")
    S = np.diag([1.0] * a + [-1.0] * (m - a))
    return quadric_data(QuadricSpec(m, S, np.zeros(m)), c)


def example_paraboloid(m: int, a: int) -> EvolutionData:
    """The non-centred quadric sum_{j<=a} x_j^2 - sum_{a<j<m} x_j^2 + 2 x_m = 0."""
    if not (1 <= a <= m - 1):
        raise ValidationError("need 1 <= a <= m-1")
    diag = [1.0] * a + [-1.0] * (m - 1 - a) + [0.0]
    S = np.diag(diag)
    b = np.zeros(m)
    b[m - 1] = 2.0
    return quadric_data(QuadricSpec(m, S, b), 0.0)


# ---------------------------------------------------------------------------
# the two trivial constructions
# ---------------------------------------------------------------------------

def extend_product(data: EvolutionData, k: int) -> EvolutionData:
    """Replace P by P x R^k and wedge chi with the new coordinate directions,
    raising m by k."""
    if k < 0:
        raise ValidationError("k must be >= 0")
    if k == 0:
        return data
    n, m = data.n, data.m
    n2, m2 = n + k, m + k
    # e_I ^ e_{n+1} ^ ... ^ e_{n+k} = e_{I + {n+1, ..., n+k}}: each row
    # moves, and the new coordinates get zero columns
    subs = k_subsets(n2, m2 - 1)
    rows = [subs.index(I + tuple(range(n, n2))) for I in k_subsets(n, m - 1)]
    chi = np.zeros((len(subs), n2 + 1))
    chi[rows, :n] = data.chi[:, :n]
    chi[rows, n2] = data.chi[:, n]

    def sampler(count, seed=0):
        rng = np.random.default_rng(seed + 7919)
        base = data.sample(count, seed)
        tail = rng.normal(scale=1.5, size=(count, k))
        return np.column_stack([base, tail])

    def normals(P):
        base = data.normals(np.asarray(P)[..., :n])
        return np.concatenate([base, np.zeros(base.shape[:-1] + (k,))],
                              axis=-1)

    return EvolutionData(
        n2, m2, chi, sampler, normals,
        label=f"{data.label} x R^{k}",
        recipe={"recipe": "product", "base": data.to_json_dict(), "k": k})


def curve_data(M: np.ndarray, v: np.ndarray, m: int) -> EvolutionData:
    """Integral-curve data in R^m: P is (integral curve of the planar field
    M x + v) x R^{m-2}, and chi wedges the field with the extra directions."""
    M = np.asarray(M, dtype=float)
    v = np.asarray(v, dtype=float)
    if M.shape != (2, 2) or v.shape != (2,):
        raise ValidationError("M must be 2x2 and v a 2-vector")
    if np.all(M == 0) and np.all(v == 0):
        raise ConstructionError("zero vector field")
    if m < 2:
        raise ValidationError("need m >= 2")
    n = m
    # V ^ e_3 ^ ... ^ e_m = (V_2 dx_1 - V_1 dx_2) . (e_1 ^ ... ^ e_m) for the
    # field V = M x + v
    X = np.zeros((m, m + 1))
    X[0, [0, 1, m]] = M[1, 0], M[1, 1], v[1]
    X[1, [0, 1, m]] = -M[0, 0], -M[0, 1], -v[0]
    chi = _top_contraction(X)

    # base point with a nonzero field value
    p0 = None
    for cand in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, -1.2)):
        if np.linalg.norm(M @ cand + v) > 1e-10:
            p0 = np.asarray(cand)
            break
    if p0 is None:
        raise ConstructionError("vector field vanishes at all probe points")

    # the affine flow as the linear flow y' = aug y of y = (x, 1)
    aug = np.zeros((3, 3))
    aug[:2, :2] = M
    aug[:2, 2] = v
    radius = max(np.abs(np.linalg.eigvals(M)).max(), 0.2)
    t_max = min(3.0, 4.0 / radius)

    def flow(t, y):
        # packed (Re y, Im y); the imaginary half starts and stays zero
        return (y.reshape(2, 3) @ aug.T).ravel()

    def sampler(count, seed=0):
        rng = np.random.default_rng(seed + 104729)
        ts = rng.uniform(-t_max, t_max, size=count)
        pts = np.empty((count, m))
        # one dense run each side of t = 0, to +-t_max whatever the draws,
        # so a point depends on its time alone
        ahead = ts >= 0.0
        for side, t_end in ((ahead, t_max), (~ahead, -t_max)):
            if side.any():
                sol = ode.solve(flow, [p0[0], p0[1], 1.0], t_end, 1e-13, 1e-15,
                                stage="evodata.curve_data",
                                params={"M": M.tolist(), "v": v.tolist()})
                pts[side, :2] = sol(ts[side])[:, :2].real
        pts[:, 2:] = rng.normal(scale=1.5, size=(count, m - 2))
        return pts

    def normals(P):
        # M on a (2, 1) core per point: the gemv of M @ p
        P = np.asarray(P, dtype=float)
        V = (M @ P[..., :2, None])[..., 0] + v
        nu = np.zeros(P.shape[:-1] + (1, m))
        nu[..., 0, 0], nu[..., 0, 1] = -V[..., 1], V[..., 0]
        return nu

    return EvolutionData(
        n, m, chi, sampler, normals,
        label=f"curve x R^{m - 2}",
        recipe={"recipe": "curve", "M": M.tolist(), "v": v.tolist()})


def evolution_data_from_dict(doc: dict) -> EvolutionData:
    """Rebuild evolution data from its versioned JSON document.

    Quadric and curve recipes reconstruct their samplers; other documents
    are rejected (a sampler cannot be recovered from coefficients alone),
    and so is a recipe that lacks a key or holds a value of the wrong type.
    """
    if not isinstance(doc, dict) or doc.get("schema") != "sl-evodata-1":
        raise ValidationError("not an sl-evodata-1 document")
    recipe = doc.get("recipe")
    doc = ImportedRecipe(doc, f"{recipe} evolution data")
    try:
        if recipe == "quadric":
            S = np.asarray(doc["S"], dtype=float)
            b = np.asarray(doc["b"], dtype=float)
            return quadric_data(QuadricSpec(len(S), S, b),
                                float(doc["c"]))
        if recipe == "curve":
            return curve_data(np.asarray(doc["M"], float),
                              np.asarray(doc["v"], float), int(doc["m"]))
        if recipe == "product":
            return extend_product(evolution_data_from_dict(doc["base"]),
                                  int(doc["k"]))
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{recipe} evolution data holds a value of "
                              f"the wrong type: {exc}") from None
    raise ValidationError(f"cannot rebuild evolution data from {recipe!r}")


# ---------------------------------------------------------------------------
# symmetry Lie algebra
# ---------------------------------------------------------------------------

@dataclass
class SymmetryAlgebra:
    """Lie algebra generated by the contractions L(alpha) = chi . alpha.

    ``basis`` is an orthonormal (Frobenius) basis of the algebra; the image
    generators are the raw L(alpha) over the standard basis of
    Lambda^{m-2}(R^n)*.  ker_dim records dim ker L for the case-split
    diagnostics; grew_in_closure is False when span(Im L) was already closed
    (surjectivity of L onto the algebra).
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


def _orthonormal_rows(mats, tol=_RANK_TOL):
    flat = np.array([np.asarray(M, dtype=float).ravel() for M in mats])
    u, s, vt = np.linalg.svd(flat, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, flat.shape[1])), 0
    rank = int(np.sum(s > tol * s[0]))
    return vt[:rank], rank


def symmetry_algebra(data: EvolutionData, tol: float = _RANK_TOL) -> SymmetryAlgebra:
    """Generate the symmetry algebra of a set of evolution data.

    Affine data is first linearized over R^{n+1} (P embedded at height 1).
    Iterates commutators until the span stabilizes and reports whether any
    iteration enlarged it (it should not: the image of L is already an ideal).
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

    basis_flat, rank0 = _orthonormal_rows(generators, tol)
    ker_dim = len(generators) - rank0

    grew = False
    current = basis_flat
    for _ in range(n * n + 1):
        mats = [row.reshape(n, n) for row in current]
        brackets = [X @ Y - Y @ X for i, X in enumerate(mats)
                    for Y in mats[i + 1:]]
        stacked = list(current) + [b.ravel() for b in brackets]
        new_flat, new_rank = _orthonormal_rows(stacked, tol)
        if new_rank == current.shape[0]:
            break
        grew = True
        current = new_flat
    basis = [row.reshape(n, n) for row in current]
    return SymmetryAlgebra(n, basis, generators, ker_dim, grew)


# ---------------------------------------------------------------------------
# classification for n = m
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SquareClassification:
    """Outcome of the n = m classification via the 1-form beta = vol . chi."""

    label: str  # 'quadric' | 'curve_times_plane' | 'indeterminate'
    S: np.ndarray = None
    b: np.ndarray = None
    c: float = None
    dbeta_singular_values: tuple = ()


def classify_square(data: EvolutionData, tol: float = 1e-9,
                    n_samples: int = 40, seed: int = 0) -> SquareClassification:
    """Classify n = m evolution data by the constant 2-form d(beta).

    beta(x)(w) = vol(chi(x) ^ w) is linear/affine; d(beta) = 0 recovers a
    quadric with beta = dQ, and d(beta) of rank 2 with beta valued in its
    row plane is the integral-curve-times-plane construction.  Rank
    ambiguity at the tolerance is reported, not guessed.
    """
    n, m = data.n, data.m
    if n != m:
        raise ValidationError("classification applies to n = m data")

    # beta_i = vol(chi ^ e_i), and e_K ^ e_i = (-1)^(n-1) e_i ^ e_K
    W = (-1.0) ** (n - 1) * insertion_table(n, n - 1)[1].T
    B = W @ data.chi[:, :n]
    beta0 = W @ data.chi[:, n]
    D = B - B.T
    scale = max(np.abs(B).max(), np.abs(beta0).max(), 1e-300)
    svals = np.linalg.svd(D, compute_uv=False)

    if svals[0] <= tol * scale:
        # beta = dQ with Q = x'Sx + b'x; S from the symmetric part
        S = 0.25 * (B + B.T)
        b = beta0
        pts = data.sample(n_samples, seed)
        cvals = np.einsum("pi,ij,pj->p", pts, S, pts) + pts @ b
        c = float(np.mean(cvals))
        return SquareClassification("quadric", S=S, b=b, c=c,
                                    dbeta_singular_values=tuple(svals))

    third = svals[2] if svals.size >= 3 else 0.0
    if third <= tol * svals[0]:
        # d(beta) = gamma ^ delta; beta must lie in the row plane on P
        u, s, vt = np.linalg.svd(D)
        plane = vt[:2]
        pts = data.sample(n_samples, seed)
        worst = 0.0
        for p in pts:
            bp = B @ p + beta0
            out = bp - plane.T @ (plane @ bp)
            worst = max(worst, np.linalg.norm(out) /
                        max(np.linalg.norm(bp), 1e-30))
        if worst <= 1e-6:
            return SquareClassification("curve_times_plane",
                                        dbeta_singular_values=tuple(svals))
        return SquareClassification("indeterminate",
                                    dbeta_singular_values=tuple(svals))

    return SquareClassification("indeterminate",
                                dbeta_singular_values=tuple(svals))
