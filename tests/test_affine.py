"""The translated (non-centred) family: right-hand sides, the closed
translation law, case classification, and the quadrature of the w
subsystem, which is the centred one over m-1 letters."""

import numpy as np
import pytest

from slevolve import ValidationError, centred
from slevolve.affine import (AffineParams, affine_initial, beta_closed,
                             case_span_note, classify_affine_case,
                             integrate_affine, rhs_affine)


def normalized(m, a):
    base = centred.symmetric_alphas(m - 1, a)
    return AffineParams(m, a, base, 0.35)


class TestRhs:
    def test_m3_a2_units(self):
        dw, dbeta = rhs_affine(np.array([1.0, 1.0], complex), 2)
        assert np.allclose(dw, [1.0, 1.0])
        assert dbeta == 1.0

    def test_m3_a1_units(self):
        dw, dbeta = rhs_affine(np.array([1.0, 1.0], complex), 1)
        assert np.allclose(dw, [1.0, -1.0])
        assert dbeta == 1.0


class TestBetaClosed:
    def test_t_zero(self):
        # C = beta(0) - u(0)/2 with u(0) = 0.4
        assert beta_closed(0.4, 0.0, 1.0, 0.7 + 0.2j - 0.2) == 0.7 + 0.2j

    def test_matches_integration(self):
        params = normalized(4, 2)
        w0, b0 = affine_initial(params)
        path = integrate_affine(w0, b0, params.a, 10.0)
        ts = np.linspace(0, 10, 300)
        W = path.w(ts)
        u = np.abs(W[:, 0]) ** 2 - params.alphas[0]
        closed = np.array([beta_closed(u[i], ts[i], params.A, b0)
                           for i in range(ts.size)])
        assert np.abs(path.beta(ts) - closed).max() <= 1e-8

    def test_grid_equals_pointwise(self):
        # the cli evaluates the closed form on its whole output grid at once
        rng = np.random.default_rng(71)
        u, t = rng.normal(size=(2, 64)) * 10.0 ** rng.uniform(-3, 3,
                                                              size=(2, 64))
        grid = beta_closed(u, t, 0.7, 0.2 - 0.4j - 0.15)
        pointwise = np.array([beta_closed(u[i], t[i], 0.7, 0.2 - 0.4j - 0.15)
                              for i in range(u.size)])
        assert grid.tobytes() == pointwise.tobytes()

    def test_im_beta_strictly_decreasing(self):
        params = normalized(4, 2)
        w0, b0 = affine_initial(params)
        path = integrate_affine(w0, b0, params.a, 8.0)
        ts = np.linspace(0, 8, 200)
        im = path.beta(ts).imag
        assert np.all(np.diff(im) < 0)

    def test_translation_after_one_period(self):
        params = normalized(4, 2)
        res = centred.betas(params.reduced())
        T = res.period_T
        w0, b0 = affine_initial(params)
        path = integrate_affine(w0, b0, params.a, 3 * T)
        ts = np.linspace(0, T, 120)
        defect = path.beta(ts + T) - path.beta(ts) + 1j * params.A * T
        assert np.abs(defect).max() <= 1e-8


class TestCases:
    def test_labels(self):
        al2 = centred.symmetric_alphas(3, 2)
        A_max = float(np.sqrt(np.prod(al2)))
        assert classify_affine_case(AffineParams(4, 2, al2, 0.0)) == "a"
        assert classify_affine_case(AffineParams(4, 3, (1, 1, 1), 0.4)) == "b"
        assert classify_affine_case(AffineParams(4, 2, al2, A_max)) == "c"
        assert classify_affine_case(AffineParams(4, 2, al2, 0.4)) == "d"
        assert "never periodic" in case_span_note(AffineParams(4, 2, al2, 0.4))

    def test_case_b_escape_m4(self):
        params = AffineParams(4, 3, (1.0, 1.0, 1.0), 0.4)
        w0, b0 = affine_initial(params)
        path = integrate_affine(w0, b0, 3, 60.0)
        assert path.escaped and path.escape_time < 60.0
        assert "finite time" in case_span_note(params)

    def test_case_b_full_line_m3(self):
        params = AffineParams(3, 2, (1.0, 1.2), 0.4)
        w0, b0 = affine_initial(params)
        path = integrate_affine(w0, b0, 2, 8.0)
        assert not path.escaped
        assert "all of R" in case_span_note(params)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            AffineParams(2, 1, (1.0,), 0.2)  # m >= 3
        with pytest.raises(ValidationError):
            AffineParams(5, 1, (1.0,) * 4, 0.2)  # a below (m-1)/2


class TestPath:
    def test_translated_w_path(self):
        # one path class for the w system and the translated system: the
        # letters come from w, the translation from beta
        params = normalized(4, 2)
        w0, b0 = affine_initial(params)
        path = integrate_affine(w0, b0, params.a, 2.0)
        assert isinstance(path, centred.WSolutionPath) and path.translated
        ts = np.linspace(0.0, 2.0, 9)
        assert path.w(ts).shape == (9, 3) and path.beta(ts).shape == (9,)
        assert path.w(0.0).tobytes() == w0.tobytes() and path.beta(0.0) == b0

    def test_centred_path_has_no_beta(self):
        path = centred.integrate_w(np.ones(3, complex), 1, 0.5)
        assert not path.translated
        with pytest.raises(ValidationError):
            path.beta(0.1)


class TestQuadratureAffine:
    """The w subsystem's quadrature is the centred one over m-1 letters on
    ``params.reduced()``: the integrands of ``betas`` over a sub-arc in
    psi, u = gamma + (delta - gamma) sin^2 psi."""

    def test_round_trip_case_d(self):
        params = normalized(4, 2)
        w0, b0 = affine_initial(params)
        path = integrate_affine(w0, b0, params.a, 1.0)
        t1 = 0.4
        W0, W1 = path.w(0.0), path.w(t1)
        al = np.asarray(params.alphas)
        signs = np.array([1.0, 1.0, -1.0])
        u0 = 0.0
        u1 = float(np.mean(signs * (np.abs(W1) ** 2 - al)))
        arc = centred._ArcGeometry(params.reduced(), np.array([params.A]))
        psi = np.arcsin(np.sqrt((np.array([u0, u1]) - arc.gamma) / arc.width))
        vals, _ = centred.adaptive_gauss(arc, psi[0], psi[1])
        dth = np.angle(W1) - np.angle(W0)
        assert np.allclose(-signs * params.A * vals[0, :3], dth, atol=1e-8)
        assert vals[0, 3] == pytest.approx(t1, abs=1e-9)

    def test_zero_A_freezes_angles(self):
        params = AffineParams(4, 2, centred.symmetric_alphas(3, 2), 1e-9)
        arc = centred._ArcGeometry(params.reduced(), np.array([params.A]))
        psi = np.arcsin(np.sqrt((np.array([-0.1, 0.25]) - arc.gamma)
                                / arc.width))
        vals, _ = centred.adaptive_gauss(arc, psi[0], psi[1])
        assert np.abs(params.A * vals[0, :3]).max() <= 1e-8


class TestConservedQuantity:
    def test_reduced_conservation(self):
        params = normalized(5, 2)
        w0, b0 = affine_initial(params)
        path = integrate_affine(w0, b0, params.a, 6.0)
        ts = np.linspace(0, 6, 600)
        W = path.w(ts)
        al = np.asarray(params.alphas)
        signs = np.ones(params.m - 1)
        signs[params.a:] = -1
        u = np.mean(signs * (np.abs(W) ** 2 - al), axis=1)
        theta = np.unwrap(np.angle(W), axis=0).sum(axis=1)
        Q = np.prod(np.where(signs > 0, al + u[:, None], al - u[:, None]),
                    axis=1)
        drift = np.abs(np.sqrt(Q) * np.sin(theta) - params.A)
        assert drift.max() <= 1e-8

    def test_du_dt_twice_real_dbeta(self):
        params = normalized(4, 2)
        w0, b0 = affine_initial(params)
        path = integrate_affine(w0, b0, params.a, 4.0)
        h = 1e-6
        for t in (0.3, 1.1, 2.6):
            u_p = np.abs(path.w(t + h)[0]) ** 2 - params.alphas[0]
            u_m = np.abs(path.w(t - h)[0]) ** 2 - params.alphas[0]
            du = (u_p - u_m) / (2 * h)
            dbeta = (path.beta(t + h) - path.beta(t - h)) / (2 * h)
            assert du == pytest.approx(2 * dbeta.real, abs=1e-8 * (1 + abs(du)))
