"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with the measured figure.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines as they stream."""

import time

import numpy as np
import pytest

from conftest import random_case_d
from oracles import (Affine3ClosedFamily, Affine3ClosedForm,
                     link_conformality, symmetry_algebra)
from slevolve import affine, centred, elliptic, evolver, meshverify
from slevolve.evodata import example_paraboloid, example_quadric

solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp


def _report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _conservation_drift(params, n_periods=5):
    T = centred.betas(params).period_T
    path = centred.integrate_w(centred.w_initial(params), params.a,
                               n_periods * T)
    grid = np.linspace(0.0, n_periods * T, 1200)
    W = path.w(grid)
    al = params.alpha_array
    u = np.mean(params.signs * (np.abs(W) ** 2 - al), axis=1)
    theta = np.unwrap(np.angle(W), axis=0).sum(axis=1)
    return float(np.abs(np.sqrt(params.Q(u)) * np.sin(theta)
                        - params.A).max())


def test_criterion_01_conservation():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    tol_worst = np.inf
    for i in range(20):
        m = (3, 4, 5)[i % 3]
        params = random_case_d(rng, m)
        drift = _conservation_drift(params, n_periods=5)
        tol = 1e-8 * (1.0 + params.A)
        worst = max(worst, drift)
        tol_worst = min(tol_worst, tol)
        assert drift <= tol, (params, drift)
    elapsed = time.time() - t0
    _report(1, worst <= tol_worst and elapsed <= 20.0,
            f"max conservation drift {worst:.2e} over 20 runs "
            f"(tol {tol_worst:.1e}), {elapsed:.1f} s")


def test_criterion_02_m2_exactness():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        params = random_case_d(rng, 2, a=1)
        res = centred.betas(params)
        worst = max(worst, float(np.abs(np.asarray(res.betas)
                                        - [-np.pi, np.pi]).max()))
    _report(2, worst <= 1e-8,
            f"max deviation from (-pi, pi) is {worst:.2e} over 20 inputs")


def test_criterion_03_beta_limits():
    al = (1.0, 2.0, 2.0)
    A_max = float(np.sqrt(np.prod(al)))
    lim = centred.beta_limits(al, 1)
    small = np.asarray(centred.betas(
        centred.CentredParams(3, 1, al, 1e-3 * A_max, c=0.0)).betas)
    large = np.asarray(centred.betas(
        centred.CentredParams(3, 1, al, (1 - 1e-3) * A_max, c=0.0)).betas)
    rel_small = float(np.abs((small - lim.small_A)
                             / np.asarray(lim.small_A)).max())
    rel_large = float(np.abs((large - lim.large_A)
                             / np.asarray(lim.large_A)).max())
    sum_sq = float(np.sum(np.asarray(lim.large_A) ** 2))
    ok = (rel_small < 0.02 and rel_large < 0.02
          and abs(sum_sq - 2 * np.pi ** 2) <= 1e-10
          and np.allclose(lim.small_A, [-np.pi, np.pi / 2, np.pi / 2]))
    _report(3, ok, f"limit deviations {rel_small:.3%} (A->0), "
                   f"{rel_large:.3%} (A->max); sum of squares defect "
                   f"{abs(sum_sq - 2 * np.pi ** 2):.1e}")


def test_criterion_04_quadrature_vs_ode():
    rng = np.random.default_rng(104)
    worst_beta = worst_T = 0.0
    for _ in range(10):
        params = random_case_d(rng, int(rng.integers(3, 6)))
        q = centred.betas(params)
        o = centred.betas_ode(params)
        worst_beta = max(worst_beta, float(np.abs(
            np.asarray(q.betas) - np.asarray(o.betas)).max()))
        worst_T = max(worst_T, abs(q.period_T - o.period_T))
    _report(4, worst_beta <= 1e-6,
            f"max |beta_quad - beta_ode| = {worst_beta:.2e}, "
            f"max period gap {worst_T:.2e} over 10 parameter sets")


def test_criterion_05_general_engine_specialization():
    rng = np.random.default_rng(105)
    worst = 0.0
    for m, a in ((3, 1), (4, 2), (5, 3)):
        data = example_quadric(m, a, 1.0)
        for _ in range(34):
            w = rng.normal(size=m) + 1j * rng.normal(size=m)
            der = evolver.rhs_general(evolver.EvolMap.diagonal(w), data)
            want = centred.rhs_w(w, a)
            worst = max(worst,
                        float(np.abs(np.diag(der.A) - want).max()),
                        float(np.abs(der.A - np.diag(np.diag(der.A))).max()))
    for m, a in ((3, 2), (4, 2), (5, 3)):
        data = example_paraboloid(m, a)
        for _ in range(34):
            w = rng.normal(size=m - 1) + 1j * rng.normal(size=m - 1)
            A = np.zeros((m, m), complex)
            A[:m - 1, :m - 1] = np.diag(w)
            A[m - 1, m - 1] = 1.0
            t0 = np.zeros(m, complex)
            t0[m - 1] = complex(rng.normal(), rng.normal())
            der = evolver.rhs_general(evolver.EvolMap(m, m, A, t0), data)
            dw, dbeta = affine.rhs_affine(w, a)
            worst = max(worst,
                        float(np.abs(np.diag(der.A)[:m - 1] - dw).max()),
                        float(abs(der.t0[m - 1] - dbeta)))
    _report(5, worst <= 1e-12,
            f"max defect of the engine against the closed right-hand sides "
            f"{worst:.2e} on 100+ random states")


def test_criterion_06_sl_residuals():
    al = (1.0, 2.0, 2.0)
    families = {
        "case-c family": meshverify.CentredFamily(
            centred.CentredParams(3, 1, al, 2.0, c=1.0)),
        "case-d trajectory": meshverify.CentredFamily(
            centred.CentredParams(3, 1, al, 1.0, c=1.0)),
        "explicit hyperbolic": Affine3ClosedFamily(
            Affine3ClosedForm("a2", 1.0, 0.35 + 0.45j, 0.2)),
        "explicit trigonometric": Affine3ClosedFamily(
            Affine3ClosedForm("a1", 1.0, 0.4 - 0.2j, 0.1)),
        "torus cone": meshverify.ConeOverLinkFamily((1.2, 2.0, 3.0), 0.4),
    }
    worst = 0.0
    for name, fam in families.items():
        rep = meshverify.sl_residuals(fam, 1000, seed=106)
        assert rep.max_residual() <= 1e-6, (name, rep)
        worst = max(worst, rep.max_residual())
    _report(6, worst <= 1e-6,
            f"max analytic-tangent residual {worst:.2e} across "
            f"{len(families)} families at 1000 samples each")


def test_criterion_07_jacobi_layer():
    rng = np.random.default_rng(107)
    worst_id = 0.0
    for _ in range(10_000):
        t = rng.uniform(-6, 6)
        k = rng.uniform(0, 1)
        sn, cn, dn = elliptic.jacobi_grid(t, k)
        worst_id = max(worst_id, abs(sn ** 2 + cn ** 2 - 1),
                       abs((k * sn) ** 2 + dn ** 2 - 1))
    ts = np.linspace(-5, 5, 101)
    circ = elliptic.jacobi_grid(ts, 0.0) - np.stack(
        [np.sin(ts), np.cos(ts), np.ones_like(ts)], axis=-1)
    worst_circ = float(np.abs(circ).max())
    worst_ode = 0.0
    for k in (0.2, 0.5, 0.8, 0.95):
        for t in (-2.1, -0.9, 0.7, 1.6, 2.8):
            def rhs(_, y):
                return [y[1] * y[2], -y[0] * y[2], -k * k * y[0] * y[1]]

            sol = solve_ivp(rhs, (0.0, t), [0.0, 1.0, 1.0], method="DOP853",
                            rtol=1e-12, atol=1e-14)
            worst_ode = max(worst_ode, float(np.abs(
                elliptic.jacobi_grid(t, k) - sol.y[:, -1]).max()))
    ok = worst_id <= 1e-12 and worst_circ <= 1e-12 and worst_ode <= 1e-10
    _report(7, ok, f"identities {worst_id:.1e}, circular reduction "
                   f"{worst_circ:.1e}, AGM vs ODE {worst_ode:.1e}")


def test_criterion_08_conformality():
    worst = {"orth": 0.0, "norm": 0.0, "closed": 0.0, "sphere": 0.0}
    for al in ((2 / 3, 4 / 3, 4 / 3), (1.2, 2.0, 3.0)):
        res = link_conformality(meshverify.ConeOverLinkFamily(al, 0.45),
                                100, 100)
        worst["orth"] = max(worst["orth"], res["max_orthogonality"])
        worst["norm"] = max(worst["norm"], res["max_norm_mismatch"])
        worst["closed"] = max(worst["closed"], res["max_norm_vs_closed"])
        worst["sphere"] = max(worst["sphere"], res["max_sphere_residual"])
    ok = (worst["orth"] <= 1e-10 and worst["norm"] <= 1e-9
          and worst["closed"] <= 1e-9 and worst["sphere"] <= 1e-10)
    _report(8, ok, "orthogonality {orth:.1e}, norm mismatch {norm:.1e}, "
                   "vs closed expression {closed:.1e} on 100x100 grids"
            .format(**worst))


def test_criterion_09_periodicity_search():
    sols = centred.periodic_search(centred.symmetric_alphas(3, 1), 1,
                                   b_max=8, tol=1e-8)
    assert len(sols) >= 1
    sol = next(s for s in sols if s.denom == 7)
    assert sol.int_angles == (-8, 4, 4)
    check = centred.verify_periodic(sol)
    # even first integer angle: the two-piece picture of the cone
    assert sol.topology == "two T²-cones, N_− = −N_+"
    ok = check["max_defect"] <= 1e-6
    _report(9, ok, f"found {len(sols)} solutions with b <= 8; "
                   f"denominator-7 family re-verified to "
                   f"{check['max_defect']:.2e}; topology '{sol.topology}'")


def test_criterion_10_scaling_invariance():
    params = centred.CentredParams(3, 1, (1.0, 2.0, 2.0), 1.0, c=1.0)
    base = centred.betas(params)
    worst_beta = worst_T = 0.0
    for kappa in (0.5, 2.0):
        scaled = centred.CentredParams(
            params.m, params.a,
            tuple(kappa ** 2 * x for x in params.alphas),
            kappa ** params.m * params.A, c=params.c)
        res = centred.betas(scaled)
        worst_beta = max(worst_beta, float(np.abs(
            np.asarray(res.betas) - np.asarray(base.betas)).max()))
        want_T = kappa ** (2 - params.m) * base.period_T
        worst_T = max(worst_T, abs(res.period_T - want_T) / want_T)
    ok = worst_beta <= 1e-8 and worst_T <= 1e-8
    _report(10, ok, f"beta shift {worst_beta:.2e}, relative period defect "
                    f"{worst_T:.2e} under the two rescalings")


def test_criterion_11_symmetry_algebra():
    worst_br = worst_eta = worst_tan = 0.0
    for a, b in ((1, 2), (2, 2), (3, 1)):
        m = a + b
        data = example_quadric(m, a, 1.0)
        g = symmetry_algebra(data)
        assert g.dim == m * (m - 1) // 2, (a, b, g.dim)
        worst_br = max(worst_br, g.bracket_residual())
        eta = np.diag([1.0] * a + [-1.0] * b)
        for X in g.basis:
            worst_eta = max(worst_eta, float(np.abs(X.T @ eta + eta @ X).max()
                                             / max(np.abs(X).max(), 1e-30)))
        pts = data.sample(200, seed=111)
        for X in g.basis:
            for p in pts:
                v = X @ p
                nu = data.normals(p)[0]
                denom = max(np.linalg.norm(v) * np.linalg.norm(nu), 1e-30)
                worst_tan = max(worst_tan, abs(v @ nu) / denom)
    ok = worst_br <= 1e-10 and worst_eta <= 1e-10 and worst_tan <= 1e-10
    _report(11, ok, f"dims m(m-1)/2 confirmed; closure {worst_br:.1e}, "
                    f"form preservation {worst_eta:.1e}, "
                    f"field tangency {worst_tan:.1e}")


def test_criterion_12_affine_translation_law():
    params = affine.AffineParams(4, 2, centred.symmetric_alphas(3, 2), 0.4)
    res = centred.betas(params.reduced())
    T = res.period_T
    w0, b0 = affine.affine_initial(params)
    path = affine.integrate_affine(w0, b0, params.a, 6 * T)
    grid = np.linspace(0.0, 5 * T, 900)
    W = path.w(grid)
    u = np.abs(W[:, 0]) ** 2 - params.alphas[0]
    closed = np.array([affine.beta_closed(float(u[i]), float(t), params.A,
                                          b0)
                       for i, t in enumerate(grid)])
    worst_closed = float(np.abs(path.beta(grid) - closed).max())
    tgrid = np.linspace(0.0, T, 160)
    worst_trans = float(np.abs(path.beta(tgrid + T) - path.beta(tgrid)
                               + 1j * params.A * T).max())
    worst_forms = 0.0
    t_check = np.linspace(-2.0, 2.0, 64)
    for variant in ("a1", "a2"):
        form = Affine3ClosedForm(variant, 1.1 - 0.4j, 0.3 + 0.8j, 0.05)
        worst_forms = max(worst_forms, form.ode_residual(t_check))
        w = form.w(t_check)
        worst_forms = max(worst_forms, float(np.abs(
            form.dbeta(t_check) - np.conj(w[..., 0] * w[..., 1])).max()))
    ok = (worst_closed <= 1e-8 and worst_trans <= 1e-8
          and worst_forms <= 1e-13)
    _report(12, ok, f"closed translation law {worst_closed:.2e} over five "
                    f"periods, one-period translation {worst_trans:.2e}, "
                    f"explicit-form defects {worst_forms:.2e}")


def test_criterion_12_sees_a_perturbed_translation(monkeypatch):
    # dbeta was conj(w1 w2) itself, so the criterion's dbeta term read 0.0
    # whatever the beta formula said
    terms = Affine3ClosedForm._beta_terms
    monkeypatch.setattr(Affine3ClosedForm, "_beta_terms",
                        lambda self: (*terms(self)[:3], terms(self)[3] + 1e-6))
    with pytest.raises(AssertionError, match="explicit-form defects 1"):
        test_criterion_12_affine_translation_law()
