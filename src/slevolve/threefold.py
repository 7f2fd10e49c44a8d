"""The three-dimensional family: cone links and their conformal coordinates.

For m = 3, a = 1 the diagonal system is

    dw_1/dt = conj(w_2 w_3),  dw_2/dt = -conj(w_3 w_1),  dw_3/dt = -conj(w_1 w_2),

and the c = 0 cone meets the unit sphere in a surface swept by the circle

    C = {x : alpha_1 x_1^2 + alpha_2 x_2^2 + alpha_3 x_3^2 = 1,
             x_1^2 - x_2^2 - x_3^2 = 0},

parametrized in closed form by Jacobi elliptic functions.  With the
cross-section speed normalized the sweep map

    Phi(s, t) = (x_1(s) w_1(t), x_2(s) w_2(t), x_3(s) w_3(t))

has orthogonal coordinate derivatives of equal norm
alpha_3 + u + (alpha_2 - alpha_3)(alpha_1 + alpha_3) v, with v = x_3^2, so it
is conformal; minimality of the cone then makes it harmonic.

Naming note: the symbol gamma is used both for the conformal factor (fixed
to 1 here, inside CrossSection) and for the lower turning point of u (inside
BetaResult); they are unrelated quantities.
"""

from dataclasses import dataclass, field

import numpy as np

from . import centred, elliptic
from .errors import ValidationError

_NORM_TOL = 1e-9


def _check_normalized3(alphas) -> np.ndarray:
    al = np.asarray(alphas, dtype=float)
    if al.shape != (3,):
        raise ValidationError("expected three alphas")
    if np.any(al <= 0):
        raise ValidationError("alphas must be positive")
    if abs(1.0 / al[0] - 1.0 / al[1] - 1.0 / al[2]) > _NORM_TOL:
        raise ValidationError(
            "alphas must satisfy 1/alpha_1 = 1/alpha_2 + 1/alpha_3")
    return al


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

    def v(self, s) -> np.ndarray:
        """v(s) = x_3(s)^2."""
        return self.x(s)[..., 2] ** 2

    def constraint_residuals(self, s) -> tuple:
        """Residuals of the two defining constraints along the circle."""
        x = self.x(s)
        al = np.asarray(self.alphas)
        r1 = np.einsum("...j,j->...", x ** 2, al) - 1.0
        r2 = x[..., 0] ** 2 - x[..., 1] ** 2 - x[..., 2] ** 2
        return float(np.abs(r1).max()), float(np.abs(r2).max())


def cross_section(alphas) -> CrossSection:
    """Closed-form cross-section circle for normalized positive alphas."""
    al = _check_normalized3(alphas)
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


@dataclass
class ConformalGrid:
    """The sweep map on an (s, t) grid with analytic first derivatives."""

    alphas: tuple
    s_grid: np.ndarray
    t_grid: np.ndarray
    phi: np.ndarray = field(repr=False)       # (ns, nt, 3) complex
    dphi_ds: np.ndarray = field(repr=False)
    dphi_dt: np.ndarray = field(repr=False)
    u_values: np.ndarray = field(repr=False)  # (nt,)
    v_values: np.ndarray = field(repr=False)  # (ns,)

    def norms_closed(self) -> np.ndarray:
        """The closed expression alpha_3 - u + (alpha_2-alpha_3)(alpha_1+alpha_3) v
        for |dPhi/ds|^2 = |dPhi/dt|^2 on the grid (an exact polynomial
        identity given the circle constraints; positive since u < alpha_3)."""
        a1, a2, a3 = self.alphas
        return (a3 - self.u_values[None, :]
                + (a2 - a3) * (a1 + a3) * self.v_values[:, None])

    def residuals(self) -> dict:
        """Conformality and sphere-membership residuals over the grid."""
        sphere = np.abs(np.linalg.norm(self.phi, axis=-1) - 1.0).max()
        inner = np.abs(np.sum(self.dphi_ds * np.conj(self.dphi_dt),
                              axis=-1).real).max()
        ns2 = np.sum(np.abs(self.dphi_ds) ** 2, axis=-1)
        nt2 = np.sum(np.abs(self.dphi_dt) ** 2, axis=-1)
        closed = self.norms_closed()
        return {
            "max_sphere_residual": float(sphere),
            "max_orthogonality": float(inner),
            "max_norm_mismatch": float(np.abs(ns2 - nt2).max()),
            "max_norm_vs_closed": float(max(np.abs(ns2 - closed).max(),
                                            np.abs(nt2 - closed).max())),
        }


def conformal_map(alphas, A: float, w_path=None, s_grid=None, t_grid=None,
                  ns: int = 96, nt: int = 96) -> ConformalGrid:
    """Evaluate the sweep map and its analytic derivatives on a grid.

    ``w_path`` is a dense solution of the three-function system consistent
    with the given alphas (checked); by default one is integrated from the
    standard initial state.  The default grids cover one full cross-section
    period in s and one (u, theta) period in t.
    """
    al = _check_normalized3(alphas)
    params = centred.CentredParams(3, 1, tuple(al), float(A), c=0.0)
    section = cross_section(al)

    if t_grid is None:
        T = centred.betas(params).period_T
        t_grid = np.linspace(0.0, T, nt)
    t_grid = np.asarray(t_grid, dtype=float)
    if w_path is None:
        w_path = centred.integrate_w(centred.w_initial(params), 1,
                                     float(t_grid[-1]) if t_grid[-1] > 0 else 1.0)
    W = w_path.w(t_grid)  # (nt, 3)

    # the trajectory must realize the same alphas: moduli pattern check
    u_each = np.array([np.abs(W[0, 0]) ** 2 - al[0],
                       al[1] - np.abs(W[0, 1]) ** 2,
                       al[2] - np.abs(W[0, 2]) ** 2])
    if np.max(u_each) - np.min(u_each) > 1e-8 * max(1.0, al.max()):
        raise ValidationError("w trajectory is inconsistent with the alphas")

    if s_grid is None:
        s_grid = np.linspace(0.0, section.period, ns)
    s_grid = np.asarray(s_grid, dtype=float)

    X = section.x(s_grid)          # (ns, 3)
    dX = section.dx_ds(s_grid)     # (ns, 3)
    dW = centred.rhs_w(W, 1)       # (nt, 3)

    phi = X[:, None, :] * W[None, :, :]
    dphi_ds = dX[:, None, :] * W[None, :, :]
    dphi_dt = X[:, None, :] * dW[None, :, :]
    u_values = np.abs(W[:, 0]) ** 2 - al[0]
    v_values = X[:, 2] ** 2
    return ConformalGrid(tuple(map(float, al)), s_grid, t_grid, phi,
                         dphi_ds, dphi_dt, u_values, v_values)


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

    def is_planar(self, tol: float = 1e-12) -> bool:
        """True when the family degenerates into one affine plane (A = 0)."""
        if self.variant == "a2":
            return abs(np.imag(self.C * np.conj(self.D))) <= tol
        return abs(abs(self.C) - abs(self.D)) <= tol


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
