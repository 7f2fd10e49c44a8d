"""Scalar reference implementations the tests check the library against.

The library evaluates omega and Omega on batched complex frames with one
kernel (``multilinear.frame_forms``); the functions here evaluate the same
forms one vector pair or one real frame at a time, from their coordinate
definitions on R^{2m} with interleaved coordinates (Re z_1, Im z_1, ...).
``lie_derivative_residual`` checks a symmetry field by finite differences
of the pushed-forward chi, with ``scipy.linalg.expm`` for the flow.
"""

from dataclasses import dataclass, field
from math import comb

import numpy as np

from slevolve import ValidationError
from slevolve.multilinear import Multivector, complex_to_real, k_subsets


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


def contract(chi: Multivector, alpha: Multivector) -> np.ndarray:
    """Natural contraction of an (m-1)-vector with an (m-2)-form, returning a
    vector in R^n.  Degrees must differ by exactly one."""
    if chi.n != alpha.n:
        raise ValidationError("contraction over different R^n")
    if alpha.k != chi.k - 1:
        raise ValidationError(
            f"degree mismatch: multivector degree {chi.k}, form degree {alpha.k}")
    return chi.interior(alpha).coeffs.copy()


def pushforward(mv: Multivector, B: np.ndarray) -> Multivector:
    """Apply Lambda^k B to a k-vector, for a real N x n matrix B."""
    B = np.asarray(B, dtype=float)
    N = B.shape[0]
    if B.shape[1] != mv.n:
        raise ValidationError("pushforward matrix has wrong width")
    k = mv.k
    out = np.zeros(comb(N, k))
    src = [(i, S) for i, S in enumerate(k_subsets(mv.n, k))
           if mv.coeffs[i] != 0.0]
    for t, T in enumerate(k_subsets(N, k)):
        rows = B[list(T), :]
        acc = 0.0
        for i, S in src:
            acc += mv.coeffs[i] * np.linalg.det(rows[:, list(S)])
        out[t] = acc
    return Multivector(N, k, out)


def lie_derivative_residual(data, vfield: np.ndarray, step: float = 1e-5,
                            n_probe: int = 12, seed: int = 0) -> float:
    """Finite-difference size of L_v chi for a linear field v (matrix V).

    The pullback of chi under the time-s flow of V is
    Lambda^{m-1}(e^{-sV}) chi(e^{sV} x); the derivative at s=0 is estimated
    by central differences and normalized by |chi(x)|.
    """
    from scipy.linalg import expm
    V = np.asarray(vfield, dtype=float)
    rng = np.random.default_rng(seed)
    fwd = expm(step * V)
    bwd = expm(-step * V)
    worst = 0.0
    for _ in range(n_probe):
        x = rng.normal(size=data.n)
        chi_plus = pushforward(data.chi_at(fwd @ x), bwd)
        chi_minus = pushforward(data.chi_at(bwd @ x), fwd)
        diff = (chi_plus - chi_minus) * (0.5 / step)
        scale = max(data.chi_at(x).norm(), 1e-30)
        worst = max(worst, diff.norm() / scale)
    return worst
