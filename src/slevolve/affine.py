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
generated with beta as one more component, through the dense solve it
shares with ``centred.integrate_w`` (one tolerance pair, one escape
stop), and returns a ``centred.WSolutionPath`` that carries beta.
"""

from dataclasses import dataclass

import numpy as np

from . import centred
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

    def reduced(self) -> centred.CentredParams:
        """The centred parameters of the w subsystem (m-1 letters, c = 1)."""
        return centred.CentredParams(self.m - 1, self.a, self.alphas,
                                     self.A, c=1.0)


def rhs_affine(w, a: int):
    """(dw, dbeta): the centred right-hand side over the m-1 letters w and
    dbeta/dt = conj(prod w_j); w may be a stack (..., m-1).  beta enters
    neither."""
    w = np.asarray(w, dtype=complex)
    return centred.rhs_w(w, a), np.conj(np.prod(w, axis=-1))


def beta_closed(u, t, A: float, C: complex):
    """beta(t) = C + u(t)/2 - i A t, C = beta(0) - u(0)/2 (beta(0) itself
    from ``affine_initial``, which starts at u(0) = 0); u and t may be
    arrays of one shape, evaluated elementwise."""
    return complex(C) + 0.5 * u - 1j * A * t


def classify_affine_case(params: AffineParams) -> str:
    """The centred case of the w subsystem: 'a' (A=0, planar), 'b'
    (a=m-1), 'c' (A maximal), or 'd' (generic, annotated never-periodic by
    the strictly decreasing Im beta)."""
    return centred.classify_case(params.reduced())


def case_span_note(params: AffineParams) -> str:
    """Qualitative solution-interval note for the classified case."""
    case = classify_affine_case(params)
    if case == "b":
        return ("solutions exist on all of R" if params.m == 3 else
                "solutions escape in finite time on a bounded interval")
    if case == "d":
        return "never periodic: Im(beta) decreases strictly"
    return ""


def integrate_affine(w0, beta0: complex, a: int,
                     t_end: float) -> centred.WSolutionPath:
    """Integrate (w, beta) to t_end (backward if t_end < 0) on the
    translated w kernel, stopping at an escape (the a = m-1 case)."""
    z0 = np.append(np.asarray(w0, dtype=complex), complex(beta0))
    return centred._dense_path(a, z0, t_end, "integrate_affine",
                               translated=True)


def affine_initial(params: AffineParams) -> tuple:
    """(w0, beta0) realizing the given parameters from u(0) = 0, with
    beta0 = C + u(0)/2 so that the closed form starts from the stated C."""
    return centred.w_initial(params.reduced()), params.Cconst + 0.0
