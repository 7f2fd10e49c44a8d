"""Three-dimensional specializations: the cone link circle, the conformal
sweep of the cone-over-link family, and the oracle's fully explicit
translated solutions against their defining system."""

import numpy as np
import pytest

from oracles import Affine3ClosedForm, link_conformality, link_grid
from slevolve import ValidationError, centred, elliptic
from slevolve.meshverify import ConeOverLinkFamily
from slevolve.threefold import cross_section

SYM = (2 / 3, 4 / 3, 4 / 3)
ASYM = (1.2, 2.0, 3.0)       # 1/1.2 = 1/2 + 1/3
SWAPPED = (1.2, 3.0, 2.0)


class TestRhsW3:
    """The m = 3 system (conj(w2 w3), -conj(w3 w1), -conj(w1 w2)) is the
    centred right-hand side with a = 1, batched over rows."""

    def test_unit_start(self):
        assert np.array_equal(centred.rhs_w(np.ones(3, complex), 1),
                              [1.0, -1.0, -1.0])

    def test_matches_general_reduction(self):
        rng = np.random.default_rng(61)
        W = rng.normal(size=(25, 3)) + 1j * rng.normal(size=(25, 3))
        W[3, 1] = 0.0
        batched = centred.rhs_w(W, 1)
        for w, row in zip(W, batched):
            assert row.tobytes() == centred.rhs_w(w, 1).tobytes()
            assert np.allclose(row, [np.conj(w[1] * w[2]),
                                     -np.conj(w[2] * w[0]),
                                     -np.conj(w[0] * w[1])], rtol=1e-15,
                               atol=0)
        stacked = centred.rhs_w(W.reshape(5, 5, 3), 1)
        assert stacked.tobytes() == batched.tobytes()

    def test_long_time_existence(self):
        params = centred.CentredParams(3, 1, SYM, 0.4, c=0.0)
        T = centred.betas(params).period_T
        path = centred.integrate_w(centred.w_initial(params), 1, 100 * T)
        assert not getattr(path, "escaped", False)
        W = path.w(np.linspace(0, 100 * T, 500))
        assert np.all(np.isfinite(W))
        assert np.abs(W).max() < 10.0  # moduli stay on their bounded shells


class TestCrossSection:
    def test_constraints_symmetric(self):
        cs = cross_section(SYM)
        assert cs.nu == 0.0 and not cs.swapped
        s = np.linspace(0, cs.period, 257)
        r1, r2 = cs.constraint_residuals(s)
        assert r1 <= 1e-12 and r2 <= 1e-12

    @pytest.mark.parametrize("alphas", [ASYM, SWAPPED])
    def test_constraints_and_speed_equations(self, alphas):
        cs = cross_section(alphas)
        a1, a2, a3 = cs.alphas
        s = np.linspace(0, cs.period, 129)
        r1, r2 = cs.constraint_residuals(s)
        assert max(r1, r2) <= 1e-12
        # speed equations with unit factor, by finite differences
        h = 1e-6
        xp, xm = cs.x(s + h), cs.x(s - h)
        fd = (xp - xm) / (2 * h)
        target = np.stack([(a2 - a3) * cs.x(s)[:, 1] * cs.x(s)[:, 2],
                           -(a1 + a3) * cs.x(s)[:, 2] * cs.x(s)[:, 0],
                           (a1 + a2) * cs.x(s)[:, 0] * cs.x(s)[:, 1]], axis=-1)
        assert np.abs(fd - target).max() <= 1e-9
        # and exactly with the analytic derivatives
        assert np.abs(cs.curve(s)[1] - target).max() <= 1e-12

    def test_v_closed_form(self):
        cs = cross_section(ASYM)
        a1, _, a3 = cs.alphas
        s = np.linspace(0, cs.period, 65)
        sn = elliptic.jacobi_grid(cs.mu * s, cs.nu)[:, 0]
        assert np.allclose(cs.x(s)[..., 2] ** 2, sn ** 2 / (a1 + a3),
                           atol=1e-12)

    def test_periodicity(self):
        for alphas in (ASYM, SWAPPED):
            cs = cross_section(alphas)
            s = np.linspace(0, 1.7, 40)
            assert np.abs(cs.x(s + cs.period) - cs.x(s)).max() <= 1e-9

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            cross_section((1.0, 2.0, 2.5))


class TestConformalMap:
    """Phi(s, t) = (x_j(s) w_j(t)) is conformal: read off the frames of the
    cone-over-link family at r = 1, rows (dPhi/dt, dPhi/ds, Phi)."""

    @pytest.mark.parametrize("alphas,A", [(SYM, 0.5), (ASYM, 0.3)])
    def test_grid_residuals(self, alphas, A):
        res = link_conformality(ConeOverLinkFamily(alphas, A), 100, 100)
        assert res["max_sphere_residual"] <= 1e-10
        assert res["max_orthogonality"] <= 1e-10
        assert res["max_norm_mismatch"] <= 1e-9
        assert res["max_norm_vs_closed"] <= 1e-9

    def test_stretched_t_row_detected(self):
        family = ConeOverLinkFamily(ASYM, 0.3)
        frames = family.frames
        family.frames = lambda P: frames(P) * np.array([[1.01], [1], [1]])
        res = link_conformality(family, 100, 100)
        assert res["max_norm_mismatch"] > 1e-9
        assert res["max_norm_vs_closed"] > 1e-9

    def test_fd_conformality(self):
        family = ConeOverLinkFamily(ASYM, 0.3)
        P = link_grid(family, 24, 24).reshape(24, 24, 3)[2:-2:5, 2:-2:5]
        F = family.fd_frames(P.reshape(-1, 3), 1e-5)
        dpt, dps = F[:, 0], F[:, 1]
        orth = np.abs(np.sum(dps * np.conj(dpt), axis=-1).real)
        norm = np.abs(np.sum(np.abs(dps) ** 2, axis=-1)
                      - np.sum(np.abs(dpt) ** 2, axis=-1))
        assert orth.max() <= 1e-6
        assert norm.max() <= 1e-6


def _dbeta_defect(form, t) -> float:
    """Largest gap between d(beta)/dt and the system's conj(w_1 w_2)."""
    w = form.w(t)
    return float(np.abs(form.dbeta(t) - np.conj(w[..., 0] * w[..., 1])).max())


class TestAffine3Closed:
    def test_ode_residuals_analytic(self):
        rng = np.random.default_rng(62)
        t = rng.uniform(-2, 2, size=64)
        for variant in ("a1", "a2"):
            form = Affine3ClosedForm(variant, 1.2 - 0.3j, 0.4 + 0.9j, 0.1)
            assert form.ode_residual(t) <= 1e-13
            # the translation derivative matches conj(w1 w2)
            assert _dbeta_defect(form, t) <= 1e-13

    @pytest.mark.parametrize("variant", ["a1", "a2"])
    def test_dbeta_differentiates_beta(self, variant):
        form = Affine3ClosedForm(variant, 1.2 - 0.3j, 0.4 + 0.9j, 0.1)
        t, h = np.linspace(-2, 2, 33), 1e-5
        fd = (form.beta(t + h) - form.beta(t - h)) / (2 * h)
        assert np.abs(form.dbeta(t) - fd).max() <= 1e-7

    @pytest.mark.parametrize("variant", ["a1", "a2"])
    def test_perturbed_linear_term_detected(self, variant, monkeypatch):
        # dbeta was conj(w1 w2) itself, so its check read 0.0 whatever the
        # beta formula said
        terms = Affine3ClosedForm._beta_terms
        monkeypatch.setattr(Affine3ClosedForm, "_beta_terms", lambda self: (
            *terms(self)[:3], terms(self)[3] + 1e-6j))
        form = Affine3ClosedForm(variant, 1.2 - 0.3j, 0.4 + 0.9j, 0.1)
        t = np.linspace(-2, 2, 33)
        assert _dbeta_defect(form, t) > 1e-7
        assert form.ode_residual(t) > 1e-7

    def test_planar_points_affinely_flat(self):
        # hyperbolic variant with Im(C conj D) = 0: one affine 3-plane
        f = Affine3ClosedForm("a2", 1.0 + 0.5j, 2.0 + 1.0j, 0.3)
        X1, X2, T = np.meshgrid(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5),
                                np.linspace(0, 1, 6), indexing="ij")
        pts = f.point(X1, X2, T)
        flat = pts.reshape(-1, 3)
        real = np.column_stack([flat.real, flat.imag])
        real -= real.mean(axis=0)
        svals = np.linalg.svd(real, compute_uv=False)
        assert svals[3] <= 1e-10 * svals[0]  # rank 3: one affine 3-plane

    def test_perpendicular_symmetry_special_case(self):
        # D = 0: w1 = C e^{it}, w2 = -i conj(C) e^{-it}
        C = 0.8 - 0.6j
        form = Affine3ClosedForm("a1", C, 0.0, 0.0)
        t = np.linspace(-3, 3, 41)
        assert np.abs(form.w(t)[..., 0] - C * np.exp(1j * t)).max() <= 1e-14
        assert np.abs(form.w(t)[..., 1]
                      + 1j * np.conj(C) * np.exp(-1j * t)).max() <= 1e-14
        assert form.ode_residual(t) <= 1e-14

    def test_point_set_shape_and_quadric_elimination(self):
        form = Affine3ClosedForm("a1", 1.0, 0.5, 0.0)
        T, X1, X2 = np.meshgrid([0.0, 0.4, 0.9], [0.5, 1.0], [0.25, 0.75],
                                indexing="ij")
        pts = form.point(X1, X2, T)
        assert pts.shape == (3, 2, 2, 3)
        # third coordinate carries (x2^2 - x1^2)/2 + beta(t)
        want = 0.5 * (0.75 ** 2 - 0.5 ** 2) + form.beta(0.4)
        assert pts[1, 0, 1, 2] == pytest.approx(want, abs=1e-14)
