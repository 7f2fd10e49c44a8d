"""Evolution of non-centred quadrics (paraboloids): the translated family.

The map (x_1,...,x_m) -> (w_1 x_1, ..., w_{m-1} x_{m-1}, x_m + beta) sweeps
the paraboloid sum_{j<=a} x_j^2 - sum_{a<j<m} x_j^2 + 2 x_m = 0 under

    dw_j/dt = +-conj(prod_{k != j} w_k)   over the m-1 letters,
    dbeta/dt = conj(w_1 ... w_{m-1}),

so the w subsystem is exactly the centred system one dimension down and
only beta is new.  With A = Q(u)^(1/2) sin(theta) over the m-1 letters,

    beta(t) = C + u(t)/2 - i A t,    C = beta(0) - u(0)/2,

and for A > 0 the imaginary part decreases strictly: the translated family
never closes up.
"""

from dataclasses import dataclass

import numpy as np

from . import centred, ode
from .errors import ValidationError

_CASE_TOL = 1e-10


@dataclass(frozen=True)
class AffineParams:
    """Scale data over the m-1 letters plus the translation constant C."""

    m: int
    a: int
    alphas: tuple
    A: float
    Cconst: complex = 0.0 + 0.0j

    def __post_init__(self):
        if self.m < 3:
            raise ValidationError("the translated family needs m >= 3")
        if not (1 <= self.a <= self.m - 1):
            raise ValidationError("need 1 <= a <= m-1")
        if 2 * self.a < self.m - 1:
            raise ValidationError("need a >= (m-1)/2")
        al = tuple(float(x) for x in self.alphas)
        if len(al) != self.m - 1:
            raise ValidationError(f"expected {self.m - 1} alphas")
        if self.A < 0:
            raise ValidationError("A must be >= 0")
        object.__setattr__(self, "alphas", al)
        object.__setattr__(self, "Cconst", complex(self.Cconst))

    def reduced(self, c: float = 1.0) -> centred.CentredParams:
        """The centred parameters of the w subsystem (m-1 letters)."""
        return centred.CentredParams(self.m - 1, self.a, self.alphas,
                                     self.A, c=c)

    @property
    def A_max(self) -> float:
        return float(np.sqrt(np.prod(np.asarray(self.alphas))))


@dataclass(frozen=True)
class AffineState:
    """w_1..w_{m-1} (nonzero) and the translation beta at time t.

    beta itself may vanish: only the scale letters are constrained away
    from zero, and the closed translation law needs no such restriction.
    """

    w: tuple
    beta: complex
    t: float = 0.0

    def __post_init__(self):
        w = tuple(complex(z) for z in self.w)
        if any(z == 0 for z in w):
            raise ValidationError("all w_j must be nonzero")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "beta", complex(self.beta))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.w, dtype=complex)


def rhs_affine(state, a: int):
    """(dw, dbeta): the centred right-hand side over the m-1 letters and
    dbeta/dt = conj(prod w_j); w may be a stack (..., m-1)."""
    if isinstance(state, AffineState):
        w = state.array
    else:
        w, _ = state
        w = np.asarray(w, dtype=complex)
    return centred.rhs_w(w, a), np.conj(np.prod(w, axis=-1))


def beta_closed(u: float, u0: float, t: float, A: float,
                beta0: complex) -> complex:
    """beta(t) = C + u(t)/2 - i A t with C = beta(0) - u(0)/2."""
    C = complex(beta0) - 0.5 * u0
    return C + 0.5 * u - 1j * A * t


def classify_affine_case(params: AffineParams, tol: float = _CASE_TOL) -> str:
    """'a' (A=0, planar), 'b' (a=m-1), 'c' (A maximal), or 'd' (generic,
    annotated never-periodic by the strictly decreasing Im beta)."""
    if abs(params.A) <= tol:
        return "a"
    if params.a == params.m - 1:
        return "b"
    if abs(params.A - params.A_max) <= tol * (1.0 + params.A_max):
        return "c"
    return "d"


def case_span_note(params: AffineParams) -> str:
    """Qualitative solution-interval note for the classified case."""
    case = classify_affine_case(params)
    if case == "b":
        return ("solutions exist on all of R" if params.m == 3 else
                "solutions escape in finite time on a bounded interval")
    if case == "d":
        return "never periodic: Im(beta) decreases strictly"
    return ""


class AffinePath:
    """Dense solution (w(t), beta(t)) of the translated system."""

    def __init__(self, a, sol, t_span, escaped=False, escape_time=None):
        self.a = a
        self._sol = sol
        self.t_span = t_span
        self.escaped = escaped
        self.escape_time = escape_time

    def w(self, t):
        return self._sol(t)[..., :-1]

    def beta(self, t):
        return self._sol(t)[..., -1]


def integrate_affine(w0, beta0: complex, a: int, t_end: float,
                     rtol: float = 1e-11, atol: float = 1e-13,
                     guard: float = 1e8) -> AffinePath:
    """Integrate (w, beta) to t_end with the escape guard of the a = m-1
    case (both directions if t_end < 0)."""
    w0 = np.asarray(w0, dtype=complex)
    k = w0.size

    def rhs(t, y):
        z = y[:k + 1] + 1j * y[k + 1:]
        dw = centred.rhs_w(z[:k], a)
        dbeta = np.conj(np.prod(z[:k]))
        dz = np.concatenate([dw, [dbeta]])
        return np.concatenate([dz.real, dz.imag])

    def blow_up(t, y):
        return float(np.linalg.norm(y) - guard)

    z0 = np.concatenate([w0, [complex(beta0)]])
    sol = ode.solve(rhs, z0, t_end, rtol, atol, stage="integrate_affine",
                    params={"m": k + 1, "a": a},
                    events=[ode.Event(blow_up, direction=1.0, terminal=True)])
    escaped = sol.status == 1
    esc_t = float(sol.t_events[0][0]) if escaped else None
    return AffinePath(a, sol, (0.0, sol.t[-1]), escaped, esc_t)


def affine_initial(params: AffineParams, u0: float = 0.0,
                   beta0: complex = None) -> tuple:
    """(w0, beta0) realizing the given parameters; beta0 defaults to
    u0/2 + Cconst so that the closed form starts from the stated C."""
    w0 = centred.w_initial(params.reduced(), u0=u0)
    if beta0 is None:
        beta0 = params.Cconst + 0.5 * u0
    return w0, complex(beta0)


def quadrature_affine(params: AffineParams, u0: float, u: float,
                      tol: float = 1e-12) -> centred.QuadratureArc:
    """Angle and time increments of the w subsystem between u0 and u on the
    monotone branch; the kernel is the centred one over m-1 letters (the
    a = m-1 case runs on an unbounded half line and uses the one-sided
    substitution)."""
    reduced = params.reduced()
    if params.a == params.m - 1:
        return centred.quadrature_case_b(reduced, u0, u, tol=tol)
    return centred.quadrature_solution(reduced, u0, u, tol=tol)


def betas_affine(params: AffineParams, tol: float = 3e-12) -> centred.BetaResult:
    """Monodromy data of the w subsystem (the translation itself never
    closes: beta(t + T) - beta(t) = -i A T)."""
    return centred.betas(params.reduced(), tol=tol)
