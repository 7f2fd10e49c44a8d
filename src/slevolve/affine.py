"""Evolution of non-centred quadrics (paraboloids): the translated family.

The map (x_1,...,x_m) -> (w_1 x_1, ..., w_{m-1} x_{m-1}, x_m + beta) sweeps
the paraboloid sum_{j<=a} x_j^2 - sum_{a<j<m} x_j^2 + 2 x_m = 0 under

    dw_j/dt = +-conj(prod_{k != j} w_k)   over the m-1 letters,
    dbeta/dt = conj(w_1 ... w_{m-1}),

so the w subsystem is exactly the centred system one dimension down and
only beta is new.  With A = Q(u)^(1/2) sin(theta) over the m-1 letters,

    beta(t) = C + u(t)/2 - i A t,    C = beta(0) - u(0)/2,

and for A > 0 the imaginary part decreases strictly, so the translated
family never closes up: over a period T of the w subsystem, whose monodromy
is ``centred.betas(params.reduced())``, beta(t + T) - beta(t) = -i A T.
``integrate_affine`` runs on the centred w kernel over the m-1 letters,
generated with beta as one more component, and returns a
``centred.WSolutionPath`` that carries beta.
"""

from dataclasses import dataclass

import numpy as np

from . import centred, ode
from .errors import ValidationError


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


def rhs_affine(w, a: int):
    """(dw, dbeta): the centred right-hand side over the m-1 letters w and
    dbeta/dt = conj(prod w_j); w may be a stack (..., m-1).  beta enters
    neither."""
    w = np.asarray(w, dtype=complex)
    return centred.rhs_w(w, a), np.conj(np.prod(w, axis=-1))


def beta_closed(u, u0: float, t, A: float, beta0: complex):
    """beta(t) = C + u(t)/2 - i A t with C = beta(0) - u(0)/2; u and t may
    be arrays of one shape, evaluated elementwise."""
    C = complex(beta0) - 0.5 * u0
    return C + 0.5 * u - 1j * A * t


def classify_affine_case(params: AffineParams,
                         tol: float = centred._CASE_TOL) -> str:
    """The centred case of the w subsystem: 'a' (A=0, planar), 'b'
    (a=m-1), 'c' (A maximal), or 'd' (generic, annotated never-periodic by
    the strictly decreasing Im beta)."""
    return centred.classify_case(params.reduced(), tol)


def case_span_note(params: AffineParams) -> str:
    """Qualitative solution-interval note for the classified case."""
    case = classify_affine_case(params)
    if case == "b":
        return ("solutions exist on all of R" if params.m == 3 else
                "solutions escape in finite time on a bounded interval")
    if case == "d":
        return "never periodic: Im(beta) decreases strictly"
    return ""


def integrate_affine(w0, beta0: complex, a: int, t_end: float,
                     rtol: float = 1e-11, atol: float = 1e-13,
                     guard: float = 1e8) -> centred.WSolutionPath:
    """Integrate (w, beta) to t_end on the translated w kernel, with the
    escape guard of the a = m-1 case (both directions if t_end < 0)."""
    w0 = np.asarray(w0, dtype=complex)
    k = w0.size

    def blow_up(t, y):
        return float(np.linalg.norm(y) - guard)

    z0 = np.append(w0, complex(beta0))
    sol = ode.solve(centred._w_kernel(a, k, translated=True), z0, t_end,
                    rtol, atol, stage="integrate_affine",
                    params={"m": k + 1, "a": a},
                    events=[ode.Event(blow_up, direction=1.0, terminal=True)])
    escaped = sol.status == 1
    esc_t = float(sol.t_events[0][0]) if escaped else None
    return centred.WSolutionPath(a, sol, (0.0, sol.t[-1]), escaped, esc_t,
                                 translated=True)


def affine_initial(params: AffineParams) -> tuple:
    """(w0, beta0) realizing the given parameters from u(0) = 0, with
    beta0 = C + u(0)/2 so that the closed form starts from the stated C."""
    return centred.w_initial(params.reduced()), params.Cconst + 0.0
