"""Exterior-algebra indexing over R^n, and the standard forms g, omega,
Omega of C^m = R^{2m} on tangent frames.

A k-vector is an array of coefficients, one per strictly increasing basis
subset in lexicographic order (``k_subsets``).  C^m is identified with
R^{2m} through interleaved coordinates (Re z_1, Im z_1, ..., Re z_m,
Im z_m), which makes the symplectic form and the complex structure explicit.

Sign conventions, fixed once and tested against a permutation-expansion
oracle: a 1-form xi contracts into the *leading* slot of a multivector,

    xi . (v_1 ^ ... ^ v_k) = sum_j (-1)^(j-1) xi(v_j) v_1 ^ ... v_j-hat ... ^ v_k,

so that on basis elements e_{K+i} . dx_i = (-1)^#{j in K: j < i} e_K, the
sign with which e_i ^ e_K = e_{K+i}.  ``insertion_table`` holds these signs
and ranks, the one primitive the evolution-data constructions need.

``frame_forms`` is the one evaluator of omega and Omega on frames: the
evolution engine's membership and checkpoint residuals and every mesh and
family residual report call it on batched complex frames.
"""

from functools import lru_cache
from itertools import combinations

import numpy as np


@lru_cache(maxsize=None)
def k_subsets(n: int, k: int) -> tuple:
    """All strictly increasing k-subsets of {0, ..., n-1}, lexicographic."""
    return tuple(combinations(range(n), k))


@lru_cache(maxsize=None)
def insertion_table(n: int, k: int) -> tuple:
    """Inserting an index into each k-subset of {0, ..., n-1}.

    Returns ``(rank, sign)``, both of shape (C(n, k), n): for the k-subset K
    of row r and an index i not in K, ``rank[r, i]`` is the rank of K + {i}
    among the (k+1)-subsets and ``sign[r, i]`` is (-1)^#{j in K: j < i};
    where i is in K the sign is 0 (and the rank 0).  So e_i ^ e_K =
    sign e_{K+i}, and a 1-form xi contracts a (k+1)-vector X to the k-vector
    (xi . X)_K = sum_i sign[K, i] xi_i X[rank[K, i]].  Both arrays are
    read-only.
    """
    larger = {s: r for r, s in enumerate(k_subsets(n, k + 1))}
    subs = k_subsets(n, k)
    rank = np.zeros((len(subs), n), dtype=np.intp)
    sign = np.zeros((len(subs), n))
    for r, K in enumerate(subs):
        for i in range(n):
            if i not in K:
                rank[r, i] = larger[tuple(sorted(K + (i,)))]
                sign[r, i] = (-1.0) ** sum(j < i for j in K)
    rank.flags.writeable = False
    sign.flags.writeable = False
    return rank, sign


def complex_to_real(z: np.ndarray) -> np.ndarray:
    """Complex m-vector -> interleaved R^{2m} vector."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


# rows whose squared norms all lie in this range are evaluated as they are:
# no entry exceeds 2^450, so no product overflows, and a product that
# underflows is below 2^-122 of the rows' norms; other stacks are prescaled
_SAFE_SQ = (2.0 ** -900, 2.0 ** 900)
# the prescale's binary exponents stay where 2^-e is a normal double
_EXP_LIMIT = 1021


@lru_cache(maxsize=None)
def _row_pairs(k: int) -> tuple:
    """The pairs i < j of k rows in ``np.triu_indices`` order, as a tuple
    and as read-only index arrays."""
    iu, ju = np.triu_indices(k, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return tuple(zip(iu.tolist(), ju.tolist())), iu, ju


def _component_sum(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum over the component axis -2 of t (..., m, B) into out (..., B),
    one slab of frames at a time in component order: every frame's sum is
    the same sequence of additions, whatever the number of frames B (a
    reduction over m would sum one frame alone in another order)."""
    out[...] = t[..., 0, :]
    for l in range(1, t.shape[-2]):
        out += t[..., l, :]
    return out


def _squared_norms(R: np.ndarray) -> np.ndarray:
    """The squared norm of each row of R (k, 2m, B), its squares added one
    slab of frames at a time in column order, as ``_component_sum`` does,
    without an array of all the squares."""
    sq = R[:, 0] * R[:, 0]
    square = np.empty_like(sq)
    for l in range(1, R.shape[1]):
        sq += np.multiply(R[:, l], R[:, l], out=square)
    return sq


def frame_forms(Z) -> tuple:
    """omega and, on square frames, the Gram determinant and Im Omega of
    complex tangent frames Z (..., k, m), one tangent vector per row.

    Returns ``(omega, gram, im_Omega)``, each of shape ``Z.shape[:-2]``.
    ``omega`` is the largest |omega(z_i, z_j)| / (|z_i| |z_j|) over pairs
    of rows, with omega(z_i, z_j) = Im sum_l conj(z_il) z_jl.  For k = m,
    ``gram`` is the Gram determinant of the unit rows and ``im_Omega`` is
    |Im Omega| on them, Omega = dz_1 ^ ... ^ dz_m being the determinant of
    the matrix with the rows as columns; for k < m both are None.  A zero
    row gives omega 0 against every row and a zero Gram determinant; a NaN
    entry gives NaN.

    The pair products are sums over the m components of elementwise
    products of real and imaginary parts, on a (row, Re/Im and component,
    frame) layout where each sum adds contiguous slabs of frames in
    component order (``_component_sum``): no frame is a matrix product of
    its own, and every frame's values are the same sequence of operations
    whatever the stack it is in, one frame alone included.  A stack with a
    row whose squared norm leaves ``_SAFE_SQ`` (a zero row, a NaN, entries
    beyond about 1e+-135) first scales each row by the power of two that
    brings its largest entry into [1/2, 1): exact, so it changes no result
    that was in range, and it keeps every finite frame clear of under- and
    overflow.
    """
    Z = np.ascontiguousarray(Z, dtype=complex)
    lead, (k, m) = Z.shape[:-2], Z.shape[-2:]
    parts = Z.reshape(-1, k * m).view(float).T.reshape(k, m, 2, -1)
    R = np.ascontiguousarray(parts.transpose(0, 2, 1, 3)).reshape(k, 2 * m, -1)
    with np.errstate(over="ignore"):     # an inf here asks for the prescale
        sq = _squared_norms(R)
    if sq.size and not _SAFE_SQ[0] <= sq.min() <= sq.max() <= _SAFE_SQ[1]:
        big = np.maximum(R.max(axis=1), -R.min(axis=1))
        e = np.clip(np.frexp(big)[1], -_EXP_LIMIT, _EXP_LIMIT)
        R *= np.ldexp(1.0, -e)[:, None]
        sq = _squared_norms(R)
    X, Y = R[:, :m], R[:, m:]
    norms = np.sqrt(sq)
    pairs, iu, ju = _row_pairs(k)
    im = np.empty((len(pairs), R.shape[-1]))
    for p, (i, j) in enumerate(pairs):
        t = X[i] * Y[j]
        t -= Y[i] * X[j]
        _component_sum(t, im[p])
    denom = np.maximum(norms[iu] * norms[ju], 1e-300)
    omega = np.max(np.abs(im) / denom, axis=0, initial=0.0).reshape(lead)[()]
    if k != m:
        return omega, None, None
    G = np.empty((m, m, R.shape[-1]))
    for p, (i, j) in enumerate(pairs):
        t = X[i] * X[j]
        t += Y[i] * Y[j]
        # summed into t's first slab, which no later slab overlaps
        G[i, j] = G[j, i] = _component_sum(t, t[0]) / denom[p]
    d = np.arange(m)
    G[d, d] = sq / np.maximum(norms * norms, 1e-300)
    # the unit rows as the columns of one complex matrix per frame
    unit = np.empty((R.shape[-1], m, k), dtype=complex)
    scale = np.maximum(norms, 1e-300)[:, None]
    unit.real = (X / scale).transpose(2, 1, 0)
    unit.imag = (Y / scale).transpose(2, 1, 0)
    return (omega, np.linalg.det(G.transpose(2, 0, 1)).reshape(lead)[()],
            np.abs(np.linalg.det(unit).imag).reshape(lead)[()])
