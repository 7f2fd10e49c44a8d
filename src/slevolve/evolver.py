"""The general finite-dimensional evolution engine for linear/affine maps.

A map phi: R^n -> C^m evolves by pushing chi(x) forward through the linear
part, contracting with Re Omega over its trailing slots, and raising the
index with the flat metric:

    dphi/dt (x) = 1/2 * [Re Omega( . , phi_* chi(x))]^sharp.

Writing Omega(v, u_1, .., u_{m-1}) = det[v | U] column-wise over complex
coordinates, the derivative's complex coordinates are conjugated cofactors;
the slot order and the 1/2 are pinned by requiring exact agreement with the
diagonal closed forms (the acceptance suite checks this to 1e-12).  The
right-hand side is homogeneous of degree m-1 in phi and depends only on the
linear part; affine data feeds its constant chi term into the translation
derivative.

The cofactors are (m-1)-minors of A, and those are wedges of its rows
r_0, ..., r_{m-1}: the minor of A without row j on the columns of an
(m-1)-subset K is the e_K coefficient of the leave-one-out wedge

    r_0 ^ ... r_j-hat ... ^ r_{m-1} = P_j ^ S_{j+1},

with prefixes P_j = r_0 ^ ... ^ r_{j-1} and suffixes S_j = r_j ^ ... ^
r_{m-1} (P_0 = S_m = 1).  On a diagonal map these are the w system's
running products of ``centred._w_kernel``.  ``integrate`` runs on
``_stage_kernel``, straight-line code that forms the prefixes, the suffixes
and their products with ``multilinear.insertion_table`` and contracts them
with chi's nonzero entries, generated once per (n, m, chi).  It serves the
shapes n = m <= 5.  ``_rhs_arrays`` takes every minor in one stacked
``np.linalg.det`` instead: it is ``rhs_general``'s evaluator, the kernel's
test reference, and ``integrate``'s right-hand side for m >= 6 (and n > m):
the wedges take 18, 72, 210, 540 and 1302 complex products for n = m = 3
to 7, growing like 3 m 2^(m-1), against a numpy cost that grows slowly with
the size, so the kernel loses from m = 6 on (see ``_KERNEL_MAX_M``).  One call
on a stack of maps, as in ``rhs_general``, is numpy's case too.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from . import ode
from .errors import ValidationError, _check_count
from .evodata import EvolutionData
from .multilinear import (complex_to_real, frame_forms, insertion_table,
                          k_subsets)


@dataclass(frozen=True)
class EvolMap:
    """Linear-plus-translation map R^n -> C^m: x -> A x + t0."""

    n: int
    m: int
    A: np.ndarray = field(repr=False)
    t0: np.ndarray = field(repr=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        t0 = np.asarray(self.t0, dtype=complex)
        if A.shape != (self.m, self.n):
            raise ValidationError(f"A must be {self.m} x {self.n}")
        if t0.shape != (self.m,):
            raise ValidationError(f"t0 must have length {self.m}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(t0))):
            raise ValidationError("non-finite map entries")
        A.flags.writeable = False
        t0.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "t0", t0)

    @classmethod
    def linear(cls, A) -> "EvolMap":
        A = np.asarray(A, dtype=complex)
        return cls(A.shape[1], A.shape[0], A, np.zeros(A.shape[0], complex))

    @classmethod
    def diagonal(cls, w) -> "EvolMap":
        w = np.asarray(w, dtype=complex)
        return cls.linear(np.diag(w))


def _checked_map(n: int, m: int, A: np.ndarray, t0: np.ndarray) -> EvolMap:
    """An EvolMap of read-only complex A (m, n) and t0 (m,) whose entries
    the caller has found finite, built without ``__post_init__``'s checks."""
    phi = object.__new__(EvolMap)
    phi.__dict__.update(n=n, m=m, A=A, t0=t0)
    return phi


def _check_dims(phi: EvolMap, data: EvolutionData) -> None:
    if phi.n != data.n or phi.m != data.m:
        raise ValidationError("map/evolution-data dimension mismatch")


def _rhs_plan(data: EvolutionData):
    """Gather plan for the cofactors of the (m-1)-subsets of coordinates
    carrying any nonzero chi coefficient, with the corresponding rows of
    chi's linear part and constant column.

    For m >= 3 the gather indices, shape (S, m, m-1, m-1), pick from the
    flattened linear part every minor "subset s, row j removed"; for m = 2
    they are the subset columns, shape (S,).
    """
    n, m = data.n, data.m
    active = np.flatnonzero(np.any(data.chi != 0.0, axis=1))
    cols = np.array(k_subsets(n, m - 1), dtype=np.intp)[active]
    if m == 2:
        gather = cols[:, 0]
    else:
        keep = np.array([[r for r in range(m) if r != j] for j in range(m)])
        gather = keep[None, :, :, None] * n + cols[:, None, None, :]
    return gather, data.chi[active, :n], data.chi[active, n]


def _rhs_arrays(A: np.ndarray, plan) -> tuple:
    """Right-hand side (dA, dt0) for the linear part A of a map.

    Column s of C holds the cofactors c_j = (-1)^j det(U_s with row j
    removed) of U_s = A[:, subset s], so that det[v | U_s] = sum_j v_j c_j;
    all minors go through one stacked determinant.
    """
    gather, lin_rows, const_rows = plan
    m = A.shape[0]
    if m == 2:
        C = np.stack([A[1, gather], -A[0, gather]])
    else:
        C = (np.linalg.det(A.take(gather)) * (-1.0) ** np.arange(m)).T
    dA = 0.5 * np.conj(C) @ lin_rows
    dt0 = 0.5 * np.conj(C) @ const_rows
    return dA, dt0


# integrate's right-hand side is the generated kernel for n = m up to this
# size: one stage costs (median us, numpy path -> kernel, 2-core x86-64,
# Python 3.11) 22 -> 4 at m = 3 and 49 -> 29 at m = 5, but 49 -> 51 at
# m = 6 and 98 -> 131 at m = 7
_KERNEL_MAX_M = 5


@lru_cache(maxsize=64)
def _stage_kernel(n: int, m: int, chi_bytes: bytes) -> ode.System:
    """``_rhs_arrays`` for the chi array with bytes ``chi_bytes`` as an
    ``ode.System`` on the packed real vector (Re A, Re t0, Im A, Im t0) of
    ``ode.solve``: straight-line code from ``ode.generated_system``,
    generated and compiled once per (n, m, chi).

    The entries of A become Python complex numbers; the prefix wedges
    P_2, ..., P_{m-1}, the suffix wedges S_{m-2}, ..., S_1 and the
    leave-one-out wedges P_j ^ S_{j+1} are formed one coefficient per line,
    each a signed sum of products, with signs and ranks from
    ``insertion_table`` (e_I ^ e_J inserts the indices of I into J, the
    last first).  The derivative of entry (j, q) is the complex sum over
    the active subsets s of a baked constant 1/2 (-1)^j chi[s, q] times a
    minor; its real part and its negated imaginary part (the conjugate) are
    the outputs.  Only lines that an output reads are kept, so inactive
    subsets of chi cost nothing.  Its sums and products are all complex,
    as ``ode.generated_system`` asks wherever two NaNs can meet.
    """
    chi = np.frombuffer(chi_bytes).reshape(comb(n, m - 1), n + 1)
    half = m * n + m
    lines = {}          # name -> (expression, names it reads), in order

    def define(name, terms):
        # name = sum of coefficient * product of factors, over the terms
        expr = "".join(
            f" {'-' if c < 0 else '+'} "
            + " * ".join(factors if abs(c) == 1.0 else (repr(abs(c)),) + factors)
            for c, factors in terms)
        lines[name] = (expr[3:] if expr[1] == "+" else expr[1:],
                       {f for _, factors in terms for f in factors})
        return name

    def wedge(X, j, Y, k, prefix):
        # X ^ Y for a j-vector X and a k-vector Y (names by subset rank)
        terms = [[] for _ in k_subsets(n, j + k)]
        for I, x in zip(k_subsets(n, j), X):
            for r, y in enumerate(Y):
                sign = 1.0
                for d, i in enumerate(reversed(I)):
                    ranks, signs = insertion_table(n, k + d)
                    sign *= signs[r, i]
                    if not sign:
                        break
                    r = ranks[r, i]
                if sign:
                    terms[r].append((sign, (x, y)))
        return [define(f"{prefix}_{r}", ts) for r, ts in enumerate(terms)]

    rows = [[f"a{i}_{q}" for q in range(n)] for i in range(m)]
    pre, suf = [None, rows[0]], {m - 1: rows[m - 1]}
    for j in range(1, m - 1):
        pre.append(wedge(pre[j], j, rows[j], 1, f"p{j + 1}"))
    for j in range(m - 2, 0, -1):
        suf[j] = wedge(rows[j], 1, suf[j + 1], m - 1 - j, f"s{j}")
    minors = ([suf[1]] + [wedge(pre[j], j, suf[j + 1], m - 1 - j, f"c{j}")
                          for j in range(1, m - 1)] + [pre[m - 1]])

    active = np.flatnonzero(np.any(chi != 0.0, axis=1))
    derivs = []         # the line of each derivative, None where it is 0
    for j, q in ([(j, q) for j in range(m) for q in range(n)]
                 + [(j, n) for j in range(m)]):
        terms = [(float(0.5 * (-1) ** j * chi[s, q]), (minors[j][s],))
                 for s in active if chi[s, q] != 0.0]
        derivs.append(define(f"d{j}_{q}", terms) if terms else None)
    needed = set(derivs) - {None}
    body = []
    for name, (expr, reads) in reversed(lines.items()):
        if name in needed:
            body.append(f"{name} = {expr}")
            needed |= reads
    body.reverse()
    entries = [f"a{i}_{q} = complex(x{i * n + q}, x{half + i * n + q})"
               for i in range(m) for q in range(n) if f"a{i}_{q}" in needed]
    return ode.generated_system(
        f"evolver kernel n={n} m={m}", entries + body,
        [f"{d}.real" if d else "0.0" for d in derivs]
        + [f"-{d}.imag" if d else "0.0" for d in derivs])


def rhs_general(phi: EvolMap, data: EvolutionData) -> EvolMap:
    """Right-hand side of the evolution equation as an EvolMap increment.

    Returns (dA, dt0); dt0 is zero for linear data (no constant chi term).
    """
    _check_dims(phi, data)
    dA, dt0 = _rhs_arrays(phi.A, _rhs_plan(data))
    return EvolMap(phi.n, phi.m, dA, dt0)


@dataclass(frozen=True)
class CPDiagnostics:
    """Membership diagnostics for the admissible set of initial maps:
    pullback-omega residual (condition i) and injectivity of phi on tangent
    spaces (condition ii)."""

    max_omega_residual: float
    min_singular_value: float
    min_singular_ratio: float
    samples: int

    def passes(self) -> bool:
        """The omega residual at most 1e-8 and the smallest singular-value
        ratio at least 1e-8."""
        return (self.max_omega_residual <= 1e-8
                and self.min_singular_ratio >= 1e-8)


def _pushed_frames(bases: np.ndarray, As: np.ndarray) -> tuple:
    """The tangent frames ``bases`` (N, k, n) pushed through each linear
    part of ``As`` (M, m, n), and their omega residuals.

    Returns the frames Z, shape (M, N, k, m), and ``frame_forms``'s omega
    of each, shape (M, N).  The bases are folded to (N k, n), and one
    stacked matmul runs one (N k, n) by (n, m) product per map; since
    ``frame_forms`` also evaluates every frame on its own, a map's frames
    and residuals do not depend on the other maps of the stack:
    ``membership_cp`` of one map equals its checkpoint residual in
    ``integrate`` bit for bit.
    """
    N, k, n = bases.shape
    flat = bases.reshape(N * k, n).astype(complex)
    Z = np.matmul(flat, np.swapaxes(As, 1, 2)).reshape(len(As), N, k, -1)
    return Z, frame_forms(Z)[0]


def membership_cp(phi: EvolMap, data: EvolutionData, n_samples: int = 200,
                  seed: int = 0) -> CPDiagnostics:
    """Evaluate the two admissibility conditions on sampled points of P:
    the omega residual, and injectivity from the singular values of the
    real (2m, m-1) pushed frames."""
    _check_dims(phi, data)
    _check_count(n_samples, "n_samples", 1)
    bases = data.tangent_bases(data.sample(n_samples, seed))
    (Z,), (omega,) = _pushed_frames(bases, phi.A[None])
    svals = np.linalg.svd(complex_to_real(Z).transpose(0, 2, 1),
                          compute_uv=False)
    ratios = svals[:, -1] / np.maximum(svals[:, 0], 1e-300)
    return CPDiagnostics(float(np.max(omega, initial=0.0)),
                         float(np.min(svals[:, -1], initial=np.inf)),
                         float(np.min(ratios, initial=np.inf)),
                         len(Z))


@dataclass
class Trajectory:
    """Time-indexed maps with integration and membership diagnostics.

    nfev and accepted_steps summarize the controller's work (their gap
    reflects rejected trials and dense-output setup); membership_samples is
    the number of sample points the residuals are taken over.
    """

    times: np.ndarray
    maps: list
    omega_residuals: np.ndarray
    escaped: bool = False
    escape_time: float = None
    flagged: list = field(default_factory=list)
    nfev: int = 0
    accepted_steps: int = 0
    membership_samples: int = 0

    def diagnostics(self) -> dict:
        """The run's deterministic work counts."""
        return {"nfev": self.nfev, "accepted_steps": self.accepted_steps,
                "checkpoints": len(self.times),
                "membership_samples": self.membership_samples}


def _pack(A: np.ndarray, t0: np.ndarray) -> np.ndarray:
    z = np.concatenate([A.ravel(), t0])
    return np.concatenate([z.real, z.imag])


def integrate(phi0: EvolMap, data: EvolutionData, t_end: float,
              rtol: float = 1e-10, atol: float = 1e-12,
              checkpoints: int = 33, membership_samples: int = 40,
              seed: int = 0) -> Trajectory:
    """Adaptive integration of the evolution equation up to t_end.

    ``rtol`` and ``atol`` set the per-step error target.  Stops cleanly at
    ``ode.blow_up`` on the linear part A (escaping families leave every
    bounded set in finite time), located by the solver's root finder.
    Membership of the admissible set is checked at the checkpoint times, on
    one set of sample points and tangent frames drawn from ``seed``, and
    deviations beyond 10x the initial residual plus 1e-8 are flagged.
    """
    _check_dims(phi0, data)
    _check_count(checkpoints, "checkpoints", 2)
    _check_count(membership_samples, "membership_samples", 1)
    n, m = phi0.n, phi0.m
    half = m * n + m
    if n == m <= _KERNEL_MAX_M:
        rhs = _stage_kernel(n, m, data.chi.tobytes())
    else:
        plan = _rhs_plan(data)

        def rhs(t, y):
            A = (y[:m * n] + 1j * y[half:half + m * n]).reshape(m, n)
            return _pack(*_rhs_arrays(A, plan))

    sol = ode.solve(rhs, np.concatenate([phi0.A.ravel(), phi0.t0]), t_end,
                    rtol, atol, stage="evolver.integrate",
                    params={"m": m, "n": n, "data": data.label},
                    event=ode.blow_up(m * n, half, m))
    escaped = sol.status == 1
    t_last = sol.t[-1]
    escape_time = float(t_last) if escaped else None
    times = np.linspace(0.0, t_last, checkpoints)
    zs = sol(times)
    if not np.all(np.isfinite(zs)):
        raise ValidationError("non-finite map entries")
    zs.flags.writeable = False
    As = zs[:, :m * n].reshape(-1, m, n)
    maps = [_checked_map(n, m, A, t0) for A, t0 in zip(As, zs[:, m * n:])]

    # every checkpoint's map pushes the same frames
    bases = data.tangent_bases(data.sample(membership_samples, seed))
    _, omega = _pushed_frames(bases, As)
    residuals = np.max(omega, axis=1, initial=0.0)
    tol_line = 10.0 * residuals[0] + 1e-8
    flagged = [int(i) for i in np.nonzero(residuals > tol_line)[0]]
    return Trajectory(times, maps, residuals, escaped, escape_time,
                      flagged, int(sol.nfev), accepted_steps=len(sol.t) - 1,
                      membership_samples=len(bases))

