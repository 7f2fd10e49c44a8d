"""The three-dimensional family: the cone link circle in closed form.

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

    def curve(self, s) -> tuple:
        """(x, dx/ds) at s, each of shape (..., 3), from one Jacobi
        evaluation: x = (p dn, p cn, q sn) with p = 1/sqrt(alpha_1 + alpha_2)
        and q = 1/sqrt(alpha_1 + alpha_3).

        The swapped variant is the same formula for (alpha_1, alpha_3,
        alpha_2) with x_2 and x_3 traded and s run backward (sn -> -sn), so
        that the speed equations hold with conformal factor +1 in both
        variants, not -1 in one of them.
        """
        s = np.asarray(s, dtype=float)
        j = elliptic.jacobi_grid(self.mu * s, self.nu)
        sn, cn, dn = j[..., 0], j[..., 1], j[..., 2]
        a1, a2, a3 = self.alphas
        p, q = 1.0 / np.sqrt(a1 + a2), 1.0 / np.sqrt(a1 + a3)
        speed, order = self.mu, [0, 1, 2]
        if self.swapped:
            p, q, sn, speed, order = q, p, -sn, -self.mu, [0, 2, 1]
        x = np.stack([p * dn, p * cn, q * sn], axis=-1)
        dx = speed * np.stack([p * (-self.nu ** 2 * sn * cn), p * (-sn * dn),
                               q * (cn * dn)], axis=-1)
        return x[..., order], dx[..., order]

    def x(self, s) -> np.ndarray:
        """(x_1, x_2, x_3)(s); vectorized, shape (..., 3)."""
        return self.curve(s)[0]

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
    swapped = bool(a2 > a3)     # the formula for (alpha_1, alpha_3, alpha_2)
    if swapped:
        a2, a3 = a3, a2
    mu = np.sqrt(a1 + a3)
    nu = np.sqrt((a3 - a2) / (a1 + a3))
    return CrossSection(tuple(map(float, al)), float(mu), float(nu), swapped)
