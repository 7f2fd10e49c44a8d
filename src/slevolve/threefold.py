"""The three-dimensional family: the cone link circle in closed form and the
fully explicit translated solutions.

For m = 3, a = 1 the diagonal system is

    dw_1/dt = conj(w_2 w_3),  dw_2/dt = -conj(w_3 w_1),  dw_3/dt = -conj(w_1 w_2),

and the c = 0 cone meets the unit sphere in a surface swept by the circle

    C = {x : alpha_1 x_1^2 + alpha_2 x_2^2 + alpha_3 x_3^2 = 1,
             x_1^2 - x_2^2 - x_3^2 = 0},

parametrized in closed form by Jacobi elliptic functions, with the
cross-section speed normalized.  The sweep of the circle by the evolution
is ``meshverify.ConeOverLinkFamily``.

Naming note: the symbol gamma is used both for the conformal factor (fixed
to 1 here, inside CrossSection) and for the lower turning point of u (inside
BetaResult); they are unrelated quantities.
"""

from dataclasses import dataclass

import numpy as np

from . import elliptic
from .centred import _check_gauge
from .errors import ValidationError


@dataclass(frozen=True)
class CrossSection:
    """Closed-form unit-speed-normalized parametrization of the link circle.

    The conformal factor is fixed to 1; ``swapped`` selects the variant for
    alpha_2 > alpha_3 (x_2 and x_3 trade their sn/cn roles).
    """

    alphas: tuple
    mu: float
    nu: float
    swapped: bool

    @property
    def period(self) -> float:
        """s-period of the circle, 4K(nu)/mu."""
        return 4.0 * elliptic.complete_K(self.nu) / self.mu

    def _scales(self) -> tuple:
        a1, a2, a3 = self.alphas
        s12 = 1.0 / np.sqrt(a1 + a2)
        s13 = 1.0 / np.sqrt(a1 + a3)
        return s12, s13

    def x(self, s) -> np.ndarray:
        """(x_1, x_2, x_3)(s); vectorized, shape (..., 3).

        The swapped variant runs the circle with s reversed (sn -> -sn) so
        that the speed equations hold with conformal factor +1 in both
        variants, not -1 in one of them.
        """
        s = np.asarray(s, dtype=float)
        j = elliptic.jacobi_grid(self.mu * s, self.nu)
        sn, cn, dn = j[..., 0], j[..., 1], j[..., 2]
        s12, s13 = self._scales()
        if not self.swapped:
            return np.stack([s12 * dn, s12 * cn, s13 * sn], axis=-1)
        return np.stack([s13 * dn, -s12 * sn, s13 * cn], axis=-1)

    def dx_ds(self, s) -> np.ndarray:
        """d x_j / d s from the elliptic derivative relations."""
        s = np.asarray(s, dtype=float)
        j = elliptic.jacobi_grid(self.mu * s, self.nu)
        sn, cn, dn = j[..., 0], j[..., 1], j[..., 2]
        nu2 = self.nu ** 2
        s12, s13 = self._scales()
        if not self.swapped:
            return self.mu * np.stack([
                s12 * (-nu2 * sn * cn), s12 * (-sn * dn), s13 * (cn * dn)],
                axis=-1)
        return self.mu * np.stack([
            s13 * (-nu2 * sn * cn), -s12 * (cn * dn), s13 * (-sn * dn)],
            axis=-1)

    def constraint_residuals(self, s) -> tuple:
        """Residuals of the two defining constraints along the circle."""
        x = self.x(s)
        al = np.asarray(self.alphas)
        r1 = np.einsum("...j,j->...", x ** 2, al) - 1.0
        r2 = x[..., 0] ** 2 - x[..., 1] ** 2 - x[..., 2] ** 2
        return float(np.abs(r1).max()), float(np.abs(r2).max())


def cross_section(alphas) -> CrossSection:
    """Closed-form cross-section circle for normalized positive alphas."""
    al = np.asarray(alphas, dtype=float)
    if al.shape != (3,):
        raise ValidationError("expected three alphas")
    _check_gauge(al, 1)
    a1, a2, a3 = al
    if a2 <= a3:
        mu = np.sqrt(a1 + a3)
        nu = np.sqrt((a3 - a2) / (a1 + a3))
        swapped = False
    else:
        mu = np.sqrt(a1 + a2)
        nu = np.sqrt((a2 - a3) / (a1 + a2))
        swapped = True
    return CrossSection(tuple(map(float, al)), float(mu), float(nu), swapped)


# ---------------------------------------------------------------------------
# closed-form non-centred three-folds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Affine3ClosedForm:
    """Fully explicit solutions of the m = 3 non-centred system.

    variant 'a2' is the hyperbolic pair (dw_1 = conj w_2, dw_2 = conj w_1),
    variant 'a1' the trigonometric pair (dw_1 = conj w_2, dw_2 = -conj w_1);
    both drive the translation by d(beta)/dt = conj(w_1 w_2).
    """

    variant: str
    C: complex
    D: complex
    E: complex

    def __post_init__(self):
        if self.variant not in ("a1", "a2"):
            raise ValidationError("variant must be 'a1' or 'a2'")
        if self.C == 0 and self.D == 0:
            raise ValidationError("(C, D) must not both vanish")

    def w(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        C, D = self.C, self.D
        if self.variant == "a2":
            w1 = C * np.exp(t) + D * np.exp(-t)
            w2 = np.conj(C) * np.exp(t) - np.conj(D) * np.exp(-t)
        else:
            w1 = C * np.exp(1j * t) + D * np.exp(-1j * t)
            w2 = (1j * np.conj(D) * np.exp(1j * t)
                  - 1j * np.conj(C) * np.exp(-1j * t))
        return np.stack([w1, w2], axis=-1)

    def dw(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        C, D = self.C, self.D
        if self.variant == "a2":
            dw1 = C * np.exp(t) - D * np.exp(-t)
            dw2 = np.conj(C) * np.exp(t) + np.conj(D) * np.exp(-t)
        else:
            dw1 = 1j * C * np.exp(1j * t) - 1j * D * np.exp(-1j * t)
            dw2 = (-np.conj(D) * np.exp(1j * t)
                   - np.conj(C) * np.exp(-1j * t))
        return np.stack([dw1, dw2], axis=-1)

    def beta(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        C, D, E = self.C, self.D, self.E
        if self.variant == "a2":
            return (0.5 * abs(C) ** 2 * np.exp(2 * t)
                    + 0.5 * abs(D) ** 2 * np.exp(-2 * t)
                    + 2j * np.imag(C * np.conj(D)) * t + E)
        return (0.5 * C * np.conj(D) * np.exp(2j * t)
                + 0.5 * np.conj(C) * D * np.exp(-2j * t)
                + 1j * (abs(C) ** 2 - abs(D) ** 2) * t + E)

    def dbeta(self, t) -> np.ndarray:
        w = self.w(t)
        return np.conj(w[..., 0] * w[..., 1])

    def ode_residual(self, t) -> float:
        """Max defect of the closed form against its defining system."""
        w = self.w(t)
        dw = self.dw(t)
        sign = 1.0 if self.variant == "a2" else -1.0
        r1 = np.abs(dw[..., 0] - np.conj(w[..., 1]))
        r2 = np.abs(dw[..., 1] - sign * np.conj(w[..., 0]))
        return float(max(r1.max(), r2.max()))

    def point(self, x1, x2, t) -> np.ndarray:
        """Points of the swept three-fold; the third quadric coordinate is
        eliminated through the defining paraboloid equation."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        w = self.w(t)
        if self.variant == "a2":
            x3 = -0.5 * (x1 ** 2 + x2 ** 2)
        else:
            x3 = 0.5 * (x2 ** 2 - x1 ** 2)
        return np.stack([w[..., 0] * x1, w[..., 1] * x2,
                         x3 + self.beta(t)], axis=-1)

    def is_planar(self) -> bool:
        """True when the family degenerates into one affine plane (A = 0)."""
        if self.variant == "a2":
            return abs(np.imag(self.C * np.conj(self.D))) <= 1e-12
        return abs(abs(self.C) - abs(self.D)) <= 1e-12


def affine3_closed(variant: str, C: complex, D: complex, E: complex,
                   x1_grid, x2_grid, t_grid) -> np.ndarray:
    """Point set of the explicit non-centred three-fold over a parameter
    grid; shape (len(t), len(x1), len(x2), 3) complex."""
    form = Affine3ClosedForm(variant, complex(C), complex(D), complex(E))
    x1 = np.asarray(x1_grid, dtype=float)
    x2 = np.asarray(x2_grid, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    out = np.empty((t.size, x1.size, x2.size, 3), dtype=complex)
    for i, ti in enumerate(t):
        out[i] = form.point(X1, X2, float(ti))
    return out
