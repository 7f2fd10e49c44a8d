"""Exterior algebra over R^n, and the standard forms g, omega, Omega of
C^m = R^{2m} on tangent frames.

Multivectors are stored densely, indexed by the combinatorial rank of the
strictly increasing basis subset in lexicographic order.  C^m is identified
with R^{2m} through interleaved coordinates (Re z_1, Im z_1, ..., Re z_m,
Im z_m), which makes the symplectic form and the complex structure explicit.

Sign conventions, fixed once and tested against a permutation-expansion
oracle: a q-form contracts into the *leading* q slots of a multivector, so
that for a 1-form xi

    xi . (v_1 ^ ... ^ v_k) = sum_j (-1)^(j-1) xi(v_j) v_1 ^ ... v_j-hat ... ^ v_k

and on basis elements e_I . dx_J = sign(J, I \\ J) e_{I \\ J}, the sign of the
shuffle sorting the concatenation (J, I \\ J) into I.

``frame_forms`` is the one evaluator of omega and Omega on frames: the
evolution engine's membership and checkpoint residuals and every mesh and
family residual report call it on batched complex frames.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .errors import ValidationError

MAX_DIM = 16


@lru_cache(maxsize=None)
def k_subsets(n: int, k: int) -> tuple:
    """All strictly increasing k-subsets of {0, ..., n-1}, lexicographic."""
    return tuple(combinations(range(n), k))


@lru_cache(maxsize=None)
def _subset_rank_table(n: int, k: int) -> dict:
    return {s: i for i, s in enumerate(k_subsets(n, k))}


def subset_rank(subset: tuple, n: int) -> int:
    """Lexicographic rank of a strictly increasing subset among k-subsets."""
    return _subset_rank_table(n, len(subset))[tuple(subset)]


def _shuffle_sign(left: tuple, right: tuple) -> int:
    """Sign of the permutation sorting the concatenation (left, right), both
    already sorted, into one increasing sequence.  Equals (-1)^inversions."""
    inv = 0
    for a in left:
        for b in right:
            if a > b:
                inv += 1
    return -1 if inv & 1 else 1


@dataclass(frozen=True)
class Multivector:
    """Element of Lambda^k R^n with dense real coefficients.

    ``coeffs[i]`` multiplies the wedge of basis vectors indexed by
    ``k_subsets(n, k)[i]``.  Values are immutable after construction.
    """

    n: int
    k: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (0 <= self.k <= self.n <= MAX_DIM):
            raise ValidationError(
                f"need 0 <= k <= n <= {MAX_DIM}, got k={self.k}, n={self.n}")
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (comb(self.n, self.k),):
            raise ValidationError(
                f"expected {comb(self.n, self.k)} coefficients, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValidationError("non-finite multivector coefficient")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, n: int, k: int) -> "Multivector":
        return cls(n, k, np.zeros(comb(n, k)))

    @classmethod
    def basis(cls, n: int, indices) -> "Multivector":
        """e_{i_1} ^ ... ^ e_{i_k} for 0-based indices (any order, no repeats)."""
        idx = tuple(indices)
        if len(set(idx)) != len(idx):
            return cls.zero(n, len(idx))
        order = tuple(sorted(idx))
        sign = _permutation_sign(idx, order)
        c = np.zeros(comb(n, len(idx)))
        c[subset_rank(order, n)] = sign
        return cls(n, len(idx), c)

    @classmethod
    def from_vector(cls, v) -> "Multivector":
        v = np.asarray(v, dtype=float)
        return cls(v.size, 1, v.copy())

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_same(other)
        return Multivector(self.n, self.k, self.coeffs + other.coeffs)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check_same(other)
        return Multivector(self.n, self.k, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "Multivector":
        return Multivector(self.n, self.k, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Multivector":
        return Multivector(self.n, self.k, -self.coeffs)

    def _check_same(self, other: "Multivector"):
        if self.n != other.n or self.k != other.k:
            raise ValidationError("multivector degree/dimension mismatch")

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def wedge(self, other: "Multivector") -> "Multivector":
        if self.n != other.n:
            raise ValidationError("wedge of multivectors over different R^n")
        n, k, l = self.n, self.k, other.k
        if k + l > n:
            raise ValidationError("wedge degree exceeds ambient dimension")
        out = np.zeros(comb(n, k + l))
        subs_l = k_subsets(n, l)
        for i, I in enumerate(k_subsets(n, k)):
            a = self.coeffs[i]
            if a == 0.0:
                continue
            iset = set(I)
            for j, J in enumerate(subs_l):
                b = other.coeffs[j]
                if b == 0.0 or iset & set(J):
                    continue
                merged = tuple(sorted(I + J))
                out[subset_rank(merged, n)] += _shuffle_sign(I, J) * a * b
        return Multivector(n, k + l, out)

    def interior(self, form: "Multivector") -> "Multivector":
        """Contraction with a q-form (also stored as a Multivector of the dual
        space) filling the leading q slots; returns a (k-q)-vector."""
        if form.n != self.n:
            raise ValidationError("form/multivector dimension mismatch")
        q = form.k
        if q > self.k:
            raise ValidationError("form degree exceeds multivector degree")
        n, k = self.n, self.k
        out = np.zeros(comb(n, k - q))
        subs_J = k_subsets(n, q)
        for i, I in enumerate(k_subsets(n, k)):
            a = self.coeffs[i]
            if a == 0.0:
                continue
            iset = set(I)
            for j, J in enumerate(subs_J):
                b = form.coeffs[j]
                if b == 0.0 or not set(J) <= iset:
                    continue
                rest = tuple(x for x in I if x not in J)
                out[subset_rank(rest, n)] += _shuffle_sign(J, rest) * a * b
        return Multivector(n, k - q, out)

    def embed(self, N: int) -> "Multivector":
        """Reinterpret over a larger ambient R^N (extra coordinates unused)."""
        if N < self.n:
            raise ValidationError("cannot embed into smaller dimension")
        out = np.zeros(comb(N, self.k))
        for i, I in enumerate(k_subsets(self.n, self.k)):
            out[subset_rank(I, N)] = self.coeffs[i]
        return Multivector(N, self.k, out)


def _permutation_sign(seq: tuple, sorted_seq: tuple) -> int:
    perm = [sorted_seq.index(x) for x in seq]
    sign, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


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
