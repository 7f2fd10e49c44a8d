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


def frame_forms(Z) -> tuple:
    """omega and, on square frames, the Gram determinant and Im Omega of
    complex tangent frames Z (..., k, m), one tangent vector per row.

    Returns ``(omega, gram, im_Omega)``, each of shape ``Z.shape[:-2]``.
    ``omega`` is the largest |omega(z_i, z_j)| / (|z_i| |z_j|) over pairs
    of rows, with omega(z_i, z_j) = Im sum_l conj(z_il) z_jl.  For k = m,
    ``gram`` is the Gram determinant of the unit rows and ``im_Omega`` is
    |Im Omega| on them, Omega = dz_1 ^ ... ^ dz_m being the determinant of
    the matrix with the rows as columns; for k < m both are None.  A zero
    row gives omega 0 against every row and a zero Gram determinant.

    One Hermitian product of the rows gives omega (its imaginary part) and
    the Gram matrix (its real part), so products of entries must neither
    under- nor overflow: entries between about 1e-150 and 1e150 in size.
    """
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
