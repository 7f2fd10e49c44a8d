"""Exterior algebra over R^n and the standard forms g, omega, Omega on C^m = R^{2m}.

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

    def pushforward(self, B: np.ndarray) -> "Multivector":
        """Apply Lambda^k B for a real N x n matrix B."""
        B = np.asarray(B, dtype=float)
        N = B.shape[0]
        if B.shape[1] != self.n:
            raise ValidationError("pushforward matrix has wrong width")
        k = self.k
        out = np.zeros(comb(N, k))
        src = [(i, S) for i, S in enumerate(k_subsets(self.n, k))
               if self.coeffs[i] != 0.0]
        for t, T in enumerate(k_subsets(N, k)):
            rows = B[list(T), :]
            acc = 0.0
            for i, S in src:
                acc += self.coeffs[i] * np.linalg.det(rows[:, list(S)])
            out[t] = acc
        return Multivector(N, k, out)

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


def complex_to_real(z: np.ndarray) -> np.ndarray:
    """Complex m-vector -> interleaved R^{2m} vector."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


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


def contract(chi: Multivector, alpha: Multivector) -> np.ndarray:
    """Natural contraction of an (m-1)-vector with an (m-2)-form, returning a
    vector in R^n.  Degrees must differ by exactly one."""
    if chi.n != alpha.n:
        raise ValidationError("contraction over different R^n")
    if alpha.k != chi.k - 1:
        raise ValidationError(
            f"degree mismatch: multivector degree {chi.k}, form degree {alpha.k}")
    return chi.interior(alpha).coeffs.copy()


def gram_volume(vectors: np.ndarray) -> float:
    """Square root of the Gram determinant of row vectors."""
    V = np.asarray(vectors, dtype=float)
    g = V @ V.T
    det = np.linalg.det(g)
    return float(np.sqrt(max(det, 0.0)))
