"""The centred-quadric system: reduction, conservation, turning points,
quadrature against direct integration, limits, and the periodicity search."""

import numpy as np
import pytest

from conftest import assert_fused_stage, random_case_d
from oracles import ReducedState, reduce_state, rhs_reduced
from slevolve import NumericalError, ValidationError, centred
from slevolve.centred import (CentredParams, PeriodicSolution, beta_limits,
                              betas, betas_ode, classify_case,
                              classify_topology, integrate_w, normalize_lambda,
                              periodic_search, rhs_w, symmetric_alphas,
                              turning_points, verify_periodic, w_initial)


def _packed_rhs_loop(signs, y):
    """The w kernel's reference: the running-product loop it replaced, on
    Python complex numbers, with signs[j] = +-1.0 per letter."""
    m = len(signs)
    vals = y.tolist()
    w = list(map(complex, vals[:m], vals[m:]))
    pre = [1 + 0j]                  # prod_{k<j} w_k
    for z in w[:-1]:
        pre.append(pre[-1] * z)
    out = [0.0] * (2 * m)
    suf = 1 + 0j                    # prod_{k>j} w_k
    for j in range(m - 1, -1, -1):
        p = pre[j] * suf
        out[j], out[m + j] = signs[j] * p.real, -signs[j] * p.imag
        suf = w[j] * suf
    return np.array(out)


def _packed_translated_loop(signs, y):
    """The translated kernel's reference on y = (Re w, Re beta, Im w,
    Im beta): ``_packed_rhs_loop`` over the letters, and conj(prod w) as
    the running product from 1+0j on Python complex numbers."""
    k = len(signs)
    vals = y.tolist()
    re, im = vals[:k], vals[k + 1:2 * k + 1]
    dw = _packed_rhs_loop(signs, np.array(re + im)).tolist()
    prod = 1 + 0j
    for z in map(complex, re, im):
        prod = prod * z
    return np.array(dw[:k] + [prod.real] + dw[k:] + [-prod.imag])


def _wide_values(rng, n):
    """n reals with magnitudes from 1e-150 to 1e150, about a quarter of
    them exact zeros of either sign."""
    y = rng.normal(size=n) * 10.0 ** rng.uniform(-150, 150, size=n)
    zeros = rng.uniform(size=n) < 0.25
    y[zeros] = np.where(rng.uniform(size=n) < 0.5, 0.0, -0.0)[zeros]
    return y


class TestRhsW:
    def test_m3_unit_start(self):
        dw = rhs_w(np.array([1.0, 1.0, 1.0], complex), 1)
        assert np.allclose(dw, [1.0, -1.0, -1.0])

    def test_m2_mixed(self):
        dw = rhs_w(np.array([1j, 1.0]), 1)
        assert np.allclose(dw, [1.0, 1j])

    @pytest.mark.parametrize("m", range(2, 9))
    def test_packed_rhs_matches_rhs_w(self, m):
        rng = np.random.default_rng(m)
        for a in range(1, m + 1):
            kernel = centred._w_kernel(a, m)
            signs = (1.0,) * a + (-1.0,) * (m - a)
            for _ in range(50):
                y = rng.normal(size=2 * m) * rng.uniform(0.1, 3.0)
                want = rhs_w(y[:m] + 1j * y[m:], a)
                got = kernel(0.0, y)
                assert got.tobytes() == _packed_rhs_loop(signs, y).tobytes()
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got[:m] - want.real)) <= 1e-15 * scale
                assert np.max(np.abs(got[m:] - want.imag)) <= 1e-15 * scale
            # magnitudes from 1e-150 to 1e150, with exact (signed) zeros:
            # overflow, underflow and zero products round as in the loop
            for _ in range(200):
                y = _wide_values(rng, 2 * m)
                assert (kernel(0.0, y).tobytes()
                        == _packed_rhs_loop(signs, y).tobytes())

    @pytest.mark.parametrize("m", range(2, 9))
    def test_fused_stage_matches_numpy_stage(self, m):
        rng = np.random.default_rng(100 + m)
        for a in range(1, m + 1):
            assert_fused_stage(centred._w_kernel(a, m), 2 * m, rng)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_translated_rhs_matches_loop(self, k):
        # the translated kernel over k letters: its letter rows are the
        # centred kernel's, and beta's row is conj(prod w) as the loop
        # forms it, byte for byte over magnitudes from 1e-150 to 1e150 with
        # exact (signed) zeros
        rng = np.random.default_rng(200 + k)
        n = 2 * (k + 1)
        letters = np.r_[0:k, k + 1:n - 1]
        for a in range(1, k + 1):
            kernel = centred._w_kernel(a, k, translated=True)
            signs = (1.0,) * a + (-1.0,) * (k - a)
            for _ in range(200):
                y = _wide_values(rng, n)
                got = kernel(0.0, y)
                assert got.tobytes() == _packed_translated_loop(signs,
                                                                y).tobytes()
                assert (got[letters].tobytes()
                        == centred._w_kernel(a, k)(0.0, y[letters]).tobytes())

    @pytest.mark.parametrize("k", range(2, 8))
    def test_translated_fused_stage_matches_numpy_stage(self, k):
        rng = np.random.default_rng(300 + k)
        for a in range(1, k + 1):
            assert_fused_stage(centred._w_kernel(a, k, translated=True),
                                2 * (k + 1), rng)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_one_row_equals_its_row_of_a_stack(self, m):
        # a single row runs the stacked products, so it rounds as its row
        # of a stack does
        rng = np.random.default_rng(400 + m)
        W = np.empty((40, m), dtype=complex)
        W.real, W.imag = (_wide_values(rng, W.size).reshape(W.shape)
                          for _ in range(2))
        with np.errstate(all="ignore"):
            for a in range(1, m + 1):
                stack = rhs_w(W, a)
                assert (rhs_w(W.reshape(8, 5, m), a).tobytes()
                        == stack.tobytes())
                for w, row in zip(W, stack):
                    assert rhs_w(w, a).tobytes() == row.tobytes()

    def test_packed_rhs_keeps_verify_defects(self):
        # verify_periodic integrated on the rhs_w closure it used before
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        sol = next(s for s in periodic_search(symmetric_alphas(3, 1), 1, 8)
                   if s.int_angles == (-8, 4, 4))
        params, b = sol.params, sol.denom
        T = betas(params).period_T
        w0 = w_initial(params)

        def closure(t, y):
            dw = rhs_w(y[:3] + 1j * y[3:], params.a)
            return np.concatenate([dw.real, dw.imag])

        ref = solve_ivp(closure, (0.0, b * T + T),
                        np.concatenate([w0.real, w0.imag]), method="DOP853",
                        rtol=1e-11, atol=1e-13, dense_output=True)
        t_grid = np.linspace(0.0, T, 257)
        signs = np.asarray([(-1.0) ** aj for aj in sol.int_angles])

        def defect(w):
            return np.max(np.abs(w(t_grid + b * T) - signs * w(t_grid)))

        want = defect(lambda t: (ref.sol(t)[:3] + 1j * ref.sol(t)[3:]).T)
        got = verify_periodic(sol)["max_defect"]
        assert abs(got - want) <= 1e-12


class TestNormalizeLambda:
    def test_hand_value(self):
        alphas, lam = normalize_lambda([1.0, 1.0, 1.0], 1)
        assert lam == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert np.allclose(alphas, [2 / 3, 4 / 3, 4 / 3], atol=1e-14)

    def test_fixed_point(self):
        base = symmetric_alphas(4, 2)
        alphas, lam = normalize_lambda(base, 2)
        assert lam == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(alphas, base, atol=1e-14)

    def test_residual_random(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            a = int(rng.integers(1, m))
            s = rng.uniform(0.3, 3.0, size=m)
            alphas, _ = normalize_lambda(s, a)
            al = np.asarray(alphas)
            assert np.all(al > 0)
            resid = np.sum(1 / al[:a]) - np.sum(1 / al[a:])
            assert abs(resid) <= 1e-12


class TestReduce:
    def test_unit_alphas_quarter_circle(self):
        params = CentredParams(3, 1, (1.0, 1.0, 1.0), 0.0, c=1.0)
        w = np.exp(1j * np.pi / 6) * np.ones(3)
        state, A = reduce_state(w, params)
        assert state.u == pytest.approx(0.0, abs=1e-15)
        assert A == pytest.approx(1.0, abs=1e-12)

    def test_zero_angles_zero_A(self):
        params = CentredParams(3, 1, (1.0, 2.0, 2.0), 0.0, c=1.0)
        w = np.sqrt([1.0, 2.0, 2.0]).astype(complex)
        _, A = reduce_state(w, params)
        assert A == 0.0

    def test_inconsistent_moduli_rejected(self):
        params = CentredParams(3, 1, (1.0, 2.0, 2.0), 0.0, c=1.0)
        with pytest.raises(ValidationError):
            reduce_state(np.array([1.0, 1.0, 1.0], complex), params)

    def test_conservation_along_trajectory(self):
        params = CentredParams(3, 1, (1.0, 2.0, 2.0), 1.0, c=1.0)
        T = betas(params).period_T
        path = integrate_w(w_initial(params), 1, 3 * T)
        grid = np.linspace(0.0, 3 * T, 1500)
        W = path.w(grid)
        al = params.alpha_array
        u = (np.abs(W[:, 0]) ** 2 - al[0])
        theta = np.unwrap(np.angle(W), axis=0).sum(axis=1)
        drift = np.abs(np.sqrt(params.Q(u)) * np.sin(theta) - params.A)
        assert drift.max() <= 1e-8

    def test_pairwise_modulus_laws(self):
        params = CentredParams(4, 2, symmetric_alphas(4, 2), 0.6, c=1.0)
        path = integrate_w(w_initial(params), 2, 5.0)
        W = path.w(np.linspace(0, 5.0, 800))
        mods = np.abs(W) ** 2
        # across the split: sums constant; within a group: differences
        for i in range(2):
            for j in range(2, 4):
                vals = mods[:, i] + mods[:, j]
                assert vals.max() - vals.min() <= 1e-9
        diff = mods[:, 0] - mods[:, 1]
        assert diff.max() - diff.min() <= 1e-9


class TestRhsReduced:
    def test_case_c_rates(self):
        al = (1.0, 2.0, 2.0)
        params = CentredParams(3, 1, al, float(np.sqrt(np.prod(al))), c=1.0)
        thetas = (np.pi / 6, np.pi / 6, np.pi / 6)
        du, dth = rhs_reduced(ReducedState(0.0, thetas), params)
        assert abs(du) <= 1e-14
        want = -params.signs * params.A / params.alpha_array
        assert np.allclose(dth, want, atol=1e-14)

    def test_zero_A_freezes_angles(self):
        params = CentredParams(3, 1, (1.0, 2.0, 2.0), 0.0, c=1.0)
        du, dth = rhs_reduced(ReducedState(0.2, (0.0, 0.0, 0.0)), params)
        assert np.allclose(dth, 0.0)
        assert du == pytest.approx(2 * np.sqrt(params.Q(0.2)), rel=1e-14)

    def test_chain_rule_consistency(self):
        params = CentredParams(3, 1, (1.0, 2.0, 2.0), 1.0, c=1.0)
        path = integrate_w(w_initial(params), 1, 1.0)
        h = 1e-6
        for t in (0.11, 0.43, 0.77):
            sp, _ = reduce_state(path.w(t + h), params)
            sm, _ = reduce_state(path.w(t - h), params)
            du_fd = (sp.u - sm.u) / (2 * h)
            dth_fd = (np.asarray(sp.thetas) - np.asarray(sm.thetas)) / (2 * h)
            s0, _ = reduce_state(path.w(t), params)
            du, dth = rhs_reduced(s0, params)
            assert du_fd == pytest.approx(du, abs=1e-9 * (1 + abs(du)))
            assert np.allclose(dth_fd, dth, atol=1e-9)

    def test_domain_violation_rejected(self):
        params = CentredParams(3, 1, (1.0, 2.0, 2.0), 1.0, c=1.0)
        with pytest.raises(ValidationError):
            rhs_reduced(ReducedState(-1.5, (0.0, 0.0, 0.0)), params)


class TestTurningPoints:
    def test_collapse_at_maximal_A(self):
        al = (1.0, 2.0, 2.0)
        A = (1 - 1e-10) * float(np.sqrt(np.prod(al)))
        g, d = turning_points(CentredParams(3, 1, al, A, c=1.0),
                              np.array([A]))
        assert abs(g[0]) < 2e-5 and abs(d[0]) < 2e-5

    def test_roots_against_dense_scan(self):
        params = CentredParams(3, 1, (1.0, 2.0, 2.0), 1.0, c=1.0)
        (g,), (d,) = turning_points(params, np.array([params.A]))
        assert params.Q(g) == pytest.approx(1.0, abs=1e-12)
        assert params.Q(d) == pytest.approx(1.0, abs=1e-12)
        assert -1 < g < 0 < d < 2
        # dense-scan oracle: sign changes of Q - A^2 bracket the same roots
        us = np.linspace(-1 + 1e-9, 2 - 1e-9, 40_001)
        vals = params.Q(us) - 1.0
        sign_changes = np.nonzero(np.diff(np.sign(vals)))[0]
        roots = us[sign_changes]
        assert min(abs(roots - g)) < 1e-4
        assert min(abs(roots - d)) < 1e-4

    def test_symmetric_case(self):
        params = CentredParams(4, 2, (1.0, 1.0, 1.0, 1.0), 0.5, c=1.0)
        (g,), (d,) = turning_points(params, np.array([params.A]))
        assert g == pytest.approx(-d, abs=1e-12)

    def test_A_out_of_range_rejected(self):
        # the A of params and every A of the array are checked
        al = (1.0, 2.0, 2.0)
        inside = CentredParams(3, 1, al, 1.0, c=1.0)
        for A in (2.5, 0.0):
            with pytest.raises(ValidationError, match="got A="):
                turning_points(CentredParams(3, 1, al, A, c=1.0),
                               np.array([A]))
            with pytest.raises(ValidationError, match="for every A"):
                turning_points(inside, np.array([1.0, A]))


def _psi(arc, u):
    """psi of u on the arc u = gamma + (delta - gamma) sin^2 psi."""
    return np.arcsin(np.sqrt((u - arc.gamma) / arc.width))


class TestQuadratureSolution:
    """Sub-arcs of the integrands of ``betas``: from psi0 to psi1 the m+1
    integrals are dtheta_j / (-sign_j A) and dt along the branch where u
    rises with t."""

    def test_small_A_angles_frozen(self):
        params = CentredParams(3, 1, (1.0, 2.0, 2.0), 1e-6, c=1.0)
        arc = centred._ArcGeometry(params, np.array([params.A]))
        vals, _ = centred.adaptive_gauss(arc, _psi(arc, -0.2), _psi(arc, 0.3))
        assert np.max(np.abs(params.A * vals[0, :3])) < 1e-5

    def test_round_trip_against_ode(self):
        params = CentredParams(3, 1, (1.0, 2.0, 2.0), 1.0, c=1.0)
        path = integrate_w(w_initial(params), 1, 0.5)
        # theta(0) is in (0, pi/2); follow the rising branch of u
        t1 = 0.3
        s0, _ = reduce_state(path.w(0.0), params)
        s1, _ = reduce_state(path.w(t1), params)
        arc = centred._ArcGeometry(params, np.array([params.A]))
        vals, _ = centred.adaptive_gauss(arc, _psi(arc, s0.u), _psi(arc, s1.u))
        dth_ode = np.asarray(s1.thetas) - np.asarray(s0.thetas)
        assert np.allclose(-params.signs * params.A * vals[0, :3], dth_ode,
                           atol=1e-8)
        assert vals[0, 3] == pytest.approx(t1, abs=1e-9)

    def test_half_period_time(self):
        # from gamma to delta: psi from 0 to pi/2
        params = CentredParams(3, 1, (1.0, 2.0, 2.0), 1.0, c=1.0)
        arc = centred._ArcGeometry(params, np.array([params.A]))
        vals, _ = centred.adaptive_gauss(arc, 0.0, np.pi / 2)
        T_ode = betas_ode(params).period_T
        assert vals[0, 3] == pytest.approx(T_ode / 2, abs=1e-7)


class TestBetas:
    def test_m2_exact(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            params = random_case_d(rng, 2, a=1)
            res = betas(params)
            assert np.allclose(res.betas, [-np.pi, np.pi], atol=1e-8)

    def test_limits_122(self):
        al = (1.0, 2.0, 2.0)
        A_max = float(np.sqrt(np.prod(al)))
        lim = beta_limits(al, 1)
        assert (lim.k, lim.l) == (1, 2)
        assert np.allclose(lim.small_A, [-np.pi, np.pi / 2, np.pi / 2])
        want = 2 * np.pi / np.sqrt(3)
        assert np.allclose(lim.large_A, [-want, want / 2, want / 2], atol=1e-14)
        # sum of squares of the large-A limit is 2 pi^2 identically
        assert np.sum(np.asarray(lim.large_A) ** 2) == pytest.approx(
            2 * np.pi ** 2, abs=1e-10)
        for frac, target in ((1e-3, lim.small_A), ((1 - 1e-3), lim.large_A)):
            res = betas(CentredParams(3, 1, al, frac * A_max, c=1.0))
            rel = np.abs((np.asarray(res.betas) - target) / np.asarray(target))
            assert rel.max() < 0.02

    def test_sum_and_signs_random(self):
        rng = np.random.default_rng(33)
        for _ in range(8):
            params = random_case_d(rng, int(rng.integers(3, 6)))
            res = betas(params)
            assert abs(sum(res.betas)) <= 1e-10
            b = np.asarray(res.betas)
            assert np.all(b[:params.a] < 0) and np.all(b[params.a:] > 0)

    def test_quadrature_matches_ode(self):
        rng = np.random.default_rng(34)
        for _ in range(4):
            params = random_case_d(rng, int(rng.integers(3, 5)))
            q = betas(params)
            o = betas_ode(params)
            assert np.allclose(q.betas, o.betas, atol=1e-6)
            assert q.period_T == pytest.approx(o.period_T, abs=1e-7)

    def test_higher_dimension_sanity(self):
        rng = np.random.default_rng(36)
        params = random_case_d(rng, 6, a=3)
        q = betas(params)
        o = betas_ode(params)
        assert abs(sum(q.betas)) <= 1e-10
        assert np.allclose(q.betas, o.betas, atol=1e-6)

    def test_scaling_invariance(self):
        params = CentredParams(3, 1, (1.0, 2.0, 2.0), 1.0, c=1.0)
        base = betas(params)
        for kappa in (0.5, 2.0):
            scaled = CentredParams(
                3, 1, tuple(kappa ** 2 * a for a in params.alphas),
                kappa ** params.m * params.A, c=1.0)
            res = betas(scaled)
            assert np.allclose(res.betas, base.betas, atol=1e-8)
            want_T = kappa ** (2 - params.m) * base.period_T
            assert res.period_T == pytest.approx(want_T, rel=1e-8)

    def test_case_d_required(self):
        with pytest.raises(ValidationError):
            betas(CentredParams(3, 3, (1.0, 1.0, 1.0), 0.5, c=1.0))

    def test_serialization(self):
        res = betas(CentredParams(3, 1, (1.0, 2.0, 2.0), 1.0, c=1.0))
        d = res.to_dict()
        assert abs(d["sum_betas"]) <= 1e-10
        assert d["period_T"] == res.period_T


class TestBetaLimitsGeneral:
    def test_distinct_second_group(self):
        # group-2 minimum has multiplicity 1: the limit mass sits there
        al = (1.0, 2.0, 4.0, 4.0)
        lim = beta_limits(al, 1)
        assert (lim.k, lim.l) == (1, 1)
        assert np.allclose(lim.small_A, [-np.pi, np.pi, 0.0, 0.0])
        res = betas(CentredParams(4, 1, al, 1e-4 * np.sqrt(np.prod(al)), c=1.0))
        rel = np.abs(np.asarray(res.betas) - np.asarray(lim.small_A))
        assert rel.max() < 0.02

    def test_requires_normalization(self):
        with pytest.raises(ValidationError):
            beta_limits((1.0, 1.5, 2.0), 1)

    @pytest.mark.parametrize("alphas", [(1.0, np.nan, 1.0),
                                        (1.0, np.inf, 1.0),
                                        (np.nan, 2.0, 2.0)])
    def test_non_finite_alphas_rejected(self, alphas):
        # NaN passed the positivity check and ended in a ZeroDivisionError
        with pytest.raises(ValidationError, match="finite and positive"):
            beta_limits(alphas, 1)


class TestCaseClassification:
    def test_labels(self):
        al = (1.0, 2.0, 2.0)
        A_max = float(np.sqrt(np.prod(al)))
        assert classify_case(CentredParams(3, 1, al, 0.0, c=1.0)) == "a"
        assert classify_case(CentredParams(3, 3, (1, 1, 1), 0.5, c=1.0)) == "b"
        assert classify_case(CentredParams(3, 1, al, A_max, c=1.0)) == "c"
        assert classify_case(CentredParams(3, 1, al, 0.7 * A_max, c=1.0)) == "d"

    def test_case_c_closed_form_vs_ode(self):
        from slevolve.meshverify import CaseCWPath
        al = (1.0, 2.0, 2.0)
        params = CentredParams(3, 1, al, float(np.sqrt(np.prod(al))), c=1.0)
        closed = CaseCWPath(params)
        path = integrate_w(closed.w(0.0), 1, 10.0)
        grid = np.linspace(0.0, 10.0, 400)
        assert np.abs(path.w(grid) - closed.w(grid)).max() <= 1e-9

    def test_case_b_escape(self):
        # the ellipsoid family leaves every bounded set in finite time
        params = CentredParams(3, 3, (1.0, 1.2, 0.9), 0.0, c=1.0)
        w0 = np.sqrt(np.asarray(params.alphas)).astype(complex)
        from scipy.integrate import solve_ivp

        def rhs(t, y):
            w = y[:3] + 1j * y[3:]
            dw = rhs_w(w, 3)
            return np.concatenate([dw.real, dw.imag])

        def guard(t, y):
            return np.linalg.norm(y) - 1e6

        guard.terminal = True
        guard.direction = 1.0
        y0 = np.concatenate([w0.real, w0.imag])
        sol = solve_ivp(rhs, (0, 100.0), y0, method="DOP853", rtol=1e-10,
                        atol=1e-12, events=guard, dense_output=True)
        assert sol.status == 1  # escaped before t = 100
        t_esc = sol.t_events[0][0]
        # u is monotone near the escape time
        ts = np.linspace(0.8 * t_esc, 0.999 * t_esc, 50)
        W = sol.sol(ts)
        u = W[0] ** 2 + W[3] ** 2  # |w_1|^2 grows without bound
        assert np.all(np.diff(u) > 0)


class TestTopologyLabels:
    def _sol(self, a_vec, b, c):
        params = CentredParams(3, 1, (1.0, 2.0, 2.0), 1.0, c=c)
        return PeriodicSolution(params, a_vec, b)

    def test_m3_labels(self):
        assert classify_topology(self._sol((-8, 4, 4), 7, 0.0), 0.0) \
            == "two T²-cones, N_− = −N_+"
        assert classify_topology(self._sol((-7, 4, 3), 6, -1.0), -1.0) \
            == "Klein-bottle line bundle, one end T²×(0,∞)"

    def test_general_label(self):
        params = CentredParams(4, 2, symmetric_alphas(4, 2), 0.5, c=1.0)
        sol = PeriodicSolution(params, (-2, -2, 2, 2), 3)
        assert classify_topology(sol, 1.0) == "S^1×R^2×S^1 (possibly /Z₂)"
        assert classify_topology(sol, -1.0) == "R^2×S^1×S^1 (possibly /Z₂)"
        assert classify_topology(sol, 0.0) \
            == "cone on S^1×S^1×S^1 (possibly /Z₂)"

    def test_integer_data_invariants(self):
        with pytest.raises(ValidationError):
            self._sol((-8, 4, 5), 7, 0.0)  # does not sum to zero
        with pytest.raises(ValidationError):
            self._sol((-8, 4, 4), 8, 0.0)  # common factor with b


class TestPeriodicSearch:
    def test_symmetric_family_m3(self):
        sols = periodic_search(symmetric_alphas(3, 1), 1, b_max=8, tol=1e-8)
        keys = {(s.int_angles, s.denom) for s in sols}
        assert ((-8, 4, 4), 7) in keys
        sol = next(s for s in sols if s.denom == 7)
        assert sol.residual <= 1e-8
        assert sol.topology  # label filled by parity
        res = betas(sol.params)
        target = np.pi * np.asarray(sol.int_angles) / sol.denom
        assert np.allclose(res.betas, target, atol=1e-8)

    def test_reverification_by_ode(self):
        sols = periodic_search(symmetric_alphas(3, 1), 1, b_max=8, tol=1e-8)
        sol = next(s for s in sols if s.denom == 7)
        check = verify_periodic(sol)
        assert check["max_defect"] <= 1e-6

    def test_m2_everything_periodic(self):
        sols = periodic_search((1.3, 1.3), 1, b_max=4, tol=1e-8, n_grid=12)
        assert any(s.int_angles == (-1, 1) and s.denom == 1 for s in sols)

    def test_family_scan_list(self):
        # one alpha tuple per call: a list of tuples, once searched tuple
        # by tuple, is refused
        fams = [symmetric_alphas(3, 1)]
        with pytest.raises(ValidationError, match="one tuple"):
            periodic_search(fams, 1, b_max=7, tol=1e-8, n_grid=48)

    def test_empty_alphas_rejected(self):
        # this was a bare StopIteration
        with pytest.raises(ValidationError):
            periodic_search((), 1, 7)

    @pytest.mark.parametrize("b_max", [0, -2])
    def test_b_max_below_one_rejected(self, b_max):
        # no denominator to try: this was an argmin of an empty sequence
        with pytest.raises(ValidationError, match="b_max"):
            periodic_search(symmetric_alphas(3, 1), 1, b_max)

    @pytest.mark.parametrize("n_grid", [1, 0, -3])
    def test_n_grid_below_two_rejected(self, n_grid):
        # no interval to bracket: 0 and 1 searched nothing and returned [],
        # -3 was a numpy ValueError
        with pytest.raises(ValidationError, match="n_grid"):
            periodic_search(symmetric_alphas(3, 1), 1, 8, n_grid=n_grid)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_bad_tol_rejected(self, tol):
        # NaN and -1 met no residual and returned [] silently, inf met all
        with pytest.raises(ValidationError, match="tol"):
            periodic_search(symmetric_alphas(3, 1), 1, 8, tol=tol)

    @pytest.mark.parametrize("quad_tol", [np.nan, np.inf, -1.0])
    def test_bad_quad_tol_rejected(self, quad_tol):
        with pytest.raises(ValidationError, match="tolerance"):
            periodic_search(symmetric_alphas(3, 1), 1, 8, quad_tol=quad_tol)

    def test_solution_round_trip(self):
        params = CentredParams(3, 1, (1.0, 2.0, 2.0), 1.1, c=0.0)
        sol = PeriodicSolution(params, (-8, 4, 4), 7, topology="x",
                               residual=1e-9)
        d = sol.to_dict()
        back = PeriodicSolution.from_dict(d)
        assert back.int_angles == sol.int_angles
        assert back.denom == sol.denom
        assert back.params.alphas == sol.params.alphas
        assert d["parities"] == [0, 0, 0]


class TestParamsValidation:
    def test_a_m_needs_positive_c(self):
        with pytest.raises(ValidationError):
            CentredParams(3, 3, (1.0, 1.0, 1.0), 0.5, c=0.0)

    def test_unnormalized_case_d_rejected(self):
        with pytest.raises(ValidationError):
            CentredParams(3, 1, (1.0, 1.5, 2.0), 0.5, c=1.0).require_case_d()

    def test_w_initial_matches_params(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            params = random_case_d(rng, 4)
            w0 = w_initial(params)
            state, A = reduce_state(w0, params)
            assert A == pytest.approx(params.A, rel=1e-12)
            assert state.u == pytest.approx(0.0, abs=1e-12)


class TestBatchedQuadrature:
    """One row-batched, vector-valued quadrature, ``adaptive_gauss``,
    serves betas_grid, and betas is its one-row case."""

    @pytest.mark.parametrize("m,a,seed", [(3, 1, None), (6, 2, None),
                                          (5, 2, 7), (4, 3, 8)])
    def test_grid_rows_equal_scalar_calls_bitwise(self, m, a, seed):
        # periodic_search brackets on the grid and brentq re-evaluates the
        # grid endpoints one at a time: any difference could flip a sign
        if seed is None:
            al = symmetric_alphas(m, a)
        else:
            rng = np.random.default_rng(seed)
            al = normalize_lambda(rng.uniform(0.5, 3.0, size=m), a)[0]
        params = CentredParams(m, a, al, 0.5 * float(np.sqrt(np.prod(al))),
                               c=0.0)
        A_grid = np.linspace(0.02, 0.98, 96) * params.A_max
        rows = centred.betas_grid(params, A_grid)
        for A, row in zip(A_grid, rows):
            one = betas(CentredParams(m, a, al, float(A), c=0.0))
            assert row == one

    @staticmethod
    def _spy_calls(monkeypatch):
        """The rows of every integrand call, and its node count as the
        bench tracer counts it (``np.size``), in call order."""
        calls = []
        real = centred.adaptive_gauss

        def spy(f, a, b, **kw):
            def g(nodes):
                calls.append((nodes.rows.tolist(), np.size(nodes)))
                return f(nodes)
            return real(g, a, b, **kw)

        monkeypatch.setattr(centred, "adaptive_gauss", spy)
        return calls

    def _nodes_alone(self, calls, params, A, tol=3e-12):
        """Integrand nodes of ``betas`` run alone at every A of ``A``."""
        total = 0
        for A_r in A:
            calls.clear()
            betas(CentredParams(params.m, params.a, params.alphas, float(A_r),
                                c=params.c), tol=tol)
            total += sum(n for _, n in calls)
        return total

    def test_rows_of_different_depth(self, monkeypatch):
        # one panel at A/A_max = 1 - 1e-10, a few at 0.5, thousands at 1e-3:
        # each call takes the top panels of one flat stack, one line per
        # panel, whatever their rows; the shallow rows finish first, the
        # deep row then fills whole calls, and every row still equals its
        # scalar call bit for bit
        al = symmetric_alphas(4, 2)
        params = CentredParams(4, 2, al, 0.5, c=0.0)
        A = np.array([0.5, 1 - 1e-10, 1e-3]) * params.A_max
        calls = self._spy_calls(monkeypatch)
        rows = centred.betas_grid(params, A)
        grid_calls = list(calls)
        for A_r, row in zip(A, rows):
            assert row == betas(CentredParams(4, 2, al, float(A_r), c=0.0))
        assert set(grid_calls[0][0]) == {0, 1, 2}
        assert all(set(r) == {2} for r, _ in grid_calls[3:])
        assert all(n == 48 * len(r) for r, n in grid_calls)
        assert max(len(r) for r, _ in grid_calls) > 64
        # nothing is padded: the nodes are 48 per panel, exactly the
        # panels each row takes when run alone
        assert (sum(n for _, n in grid_calls)
                == self._nodes_alone(calls, params, A))

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_bad_tol_rejected(self, tol):
        # NaN exhausted the panel budget and -1 "did not converge", both
        # numerical failures (exit 3) for what is bad input
        def f(nodes):
            return np.cos(nodes.x)[:, None, :]

        with pytest.raises(ValidationError, match="tolerance"):
            centred.adaptive_gauss(f, 0.0, 1.0, tol=tol)
        with pytest.raises(ValidationError, match="betas quadrature"):
            betas(CentredParams(3, 1, (1.0, 2.0, 2.0), 1.0, c=0.0), tol=tol)

    def test_zero_tol_converges_at_the_rounding_floor(self):
        params = CentredParams(3, 1, (1.0, 2.0, 2.0), 1.0, c=0.0)
        exact, floor = betas(params), betas(params, tol=0.0)
        assert np.allclose(floor.betas, exact.betas, rtol=0, atol=1e-12)
        value, _ = centred.adaptive_gauss(
            lambda nodes: np.cos(nodes.x)[:, None, :], 0.0, 1.0, tol=0.0)
        assert abs(value[0, 0] - np.sin(1.0)) <= 4e-16

    def test_search_grid_nodes_equal_rows_alone(self, monkeypatch):
        # the 96-row grid of periodic_search, whose rows finish at many
        # different depths: a layout padded to the widest row costs more
        al = symmetric_alphas(5, 2)
        params = CentredParams(5, 2, al, 0.5, c=0.0)
        A = np.linspace(0.02 * params.A_max, 0.98 * params.A_max, 96)
        calls = self._spy_calls(monkeypatch)
        centred.betas_grid(params, A, tol=1e-12)
        grid_nodes = sum(n for _, n in calls)
        assert len(calls[0][0]) == 96
        assert grid_nodes == self._nodes_alone(calls, params, A, tol=1e-12)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_betas_match_ode(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(2):
            params = random_case_d(rng, m)
            q = betas(params)
            o = betas_ode(params)
            assert np.max(np.abs(np.subtract(q.betas, o.betas))) <= 1e-8
            assert q.period_T == pytest.approx(o.period_T, abs=1e-8)

    def test_turning_points_as_accurate_as_brentq(self):
        # brentq(xtol=1e-13, rtol=8.9e-16) on Q - A^2 was the previous
        # solver; compare both with 40-digit roots of the same polynomial
        mpmath = pytest.importorskip("mpmath")
        from scipy.optimize import brentq
        mpmath.mp.dps = 40
        rng = np.random.default_rng(37)
        for _ in range(40):
            m = int(rng.integers(2, 8))
            params = random_case_d(rng, m, A_frac=10 ** rng.uniform(-3, -0.01))
            al, a, A = params.alphas, params.a, params.A
            lo, hi = params.u_interval()

            def F(u):
                out = mpmath.mpf(1)
                for j, x in enumerate(al):
                    out *= mpmath.mpf(x) + (u if j < a else -u)
                return out - mpmath.mpf(A) ** 2

            def f(u):
                return params.Q(u) - A ** 2

            got = [x[0] for x in turning_points(params, np.array([A]))]
            old = (brentq(f, lo, 0.0, xtol=1e-13, rtol=8.9e-16),
                   brentq(f, 0.0, hi, xtol=1e-13, rtol=8.9e-16))
            for x, x_old in zip(got, old):
                exact = mpmath.findroot(F, mpmath.mpf(x_old))
                bound = max(1e-13 + 8.9e-16 * abs(x_old),
                            2 * float(abs(exact - x_old)))
                assert float(abs(exact - x)) <= bound

    def test_quadrature_solution_matches_quad(self):
        # the integrands of betas over a sub-arc, against scipy in u
        from scipy.integrate import quad
        rng = np.random.default_rng(38)
        for m in (3, 5):
            params = random_case_d(rng, m)
            arc = centred._ArcGeometry(params, np.array([params.A]))
            g, d = float(arc.gamma[0]), float(arc.delta[0])
            u0, u1 = g + 0.2 * (d - g), g + 0.7 * (d - g)
            vals, _ = centred.adaptive_gauss(arc, _psi(arc, u0),
                                             _psi(arc, u1))
            dthetas = -params.signs * params.A * vals[0, :m]

            def Q_minus(u):
                return params.Q(u) - params.A ** 2

            # dtheta_j = -s_j A int du / (2 (alpha_j +- u) sqrt(Q - A^2))
            for j, (al, s) in enumerate(zip(params.alphas, params.signs)):
                want, _ = quad(lambda u: 1.0 / (2 * (al + s * u)
                                                * np.sqrt(Q_minus(u))),
                               u0, u1, epsabs=1e-14, epsrel=1e-13)
                assert dthetas[j] == pytest.approx(-s * params.A * want,
                                                   abs=1e-11)
            want_t, _ = quad(lambda u: 0.5 / np.sqrt(Q_minus(u)), u0, u1,
                             epsabs=1e-14, epsrel=1e-13)
            assert vals[0, m] == pytest.approx(want_t, abs=1e-11)

    def test_budget_error_names_stage_and_parameters(self, monkeypatch):
        monkeypatch.setattr(centred, "_PANEL_BUDGET", 2)
        al = symmetric_alphas(3, 1)
        A_max = float(np.sqrt(np.prod(al)))
        with pytest.raises(NumericalError) as exc:
            betas(CentredParams(3, 1, al, 0.25 * A_max, c=0.0))
        msg = str(exc.value)
        for part in ("betas quadrature", "m=3", "a=1", "A/A_max=0.25",
                     "budget of 2 panels"):
            assert part in msg

    def test_one_quadrature_routine(self, monkeypatch):
        # betas sends its m+1 integrands through one adaptive_gauss call:
        # K = m+1 values per node
        seen = []                   # per adaptive_gauss call, its K values
        real = centred.adaptive_gauss

        def spy(f, a, b, **kw):
            def g(nodes):
                vals = f(nodes)
                # one line of 48 nodes per panel, all of the one row
                assert nodes.x.shape == (nodes.rows.size, 48)
                assert not nodes.rows.any()
                assert vals.shape[::2] == nodes.x.shape
                seen[-1].add(vals.shape[1])
                return vals
            seen.append(set())
            return real(g, a, b, **kw)

        monkeypatch.setattr(centred, "adaptive_gauss", spy)
        params = CentredParams(4, 2, symmetric_alphas(4, 2), 0.5, c=1.0)
        betas(params)
        assert seen == [{5}]


# periodic_search output recorded before the lockstep root finder: A and the
# residual as float.hex, so any change to the search shows up bit for bit
GOLDEN_SEARCH = {
    "sym(3,1)": [
        ((-8, 4, 4), 7, "0x1.a957a66a24680p+0", "0x1.0000000000000p-50",
         "two T²-cones, N_− = −N_+")],
    "sym(6,3)": [
        ((-1, -1, -1, 1, 1, 1), 2, "0x1.b27b802ce9a3bp-2",
         "0x1.8000000000000p-50", "cone on S^2×S^2×S^1 (possibly /Z₂)"),
        ((-2, -2, -2, 2, 2, 2), 5, "0x1.4fa0dc084abe9p-4",
         "0x1.8800000000000p-47", "cone on S^2×S^2×S^1 (possibly /Z₂)"),
        ((-4, -4, -4, 4, 4, 4), 7, "0x1.e15c4f9264859p-1",
         "0x1.8000000000000p-51", "cone on S^2×S^2×S^1 (possibly /Z₂)"),
        ((-3, -3, -3, 3, 3, 3), 7, "0x1.32a8fbf60aa45p-3",
         "0x1.6000000000000p-49", "cone on S^2×S^2×S^1 (possibly /Z₂)"),
        ((-3, -3, -3, 3, 3, 3), 8, "0x1.3a317ecbc00a9p-5",
         "0x1.5000000000000p-47", "cone on S^2×S^2×S^1 (possibly /Z₂)")],
    # untied alphas have no closed family; tol = 1e-2 keeps the nearest
    # rational point, which exercises the candidate choice all the same
    "seed 11, m=3, a=1": [
        ((-9, 5, 4), 8, "0x1.1655363d86344p+0", "0x1.38d784da44800p-11",
         "T²-cone, N = −N")],
    "seed 27, m=3, a=2": [
        ((-3, -6, 9), 8, "0x1.358be1bbd8affp+0", "0x1.3ec6784a37400p-8",
         "cone on S^1×S^0×S^1 (possibly /Z₂)")],
}


def _golden_case(name):
    if name.startswith("sym"):
        m, a = (int(x) for x in name[4:-1].split(","))
        return symmetric_alphas(m, a), a, 1e-8
    seed, m, a = (int(part.split("=")[-1].split()[-1])
                  for part in name.split(","))
    rng = np.random.default_rng(seed)
    return normalize_lambda(rng.uniform(0.5, 3.0, size=m), a)[0], a, 1e-2


@pytest.mark.parametrize("name", sorted(GOLDEN_SEARCH))
def test_search_golden(name):
    alphas, a, tol = _golden_case(name)
    got = [(s.int_angles, s.denom, float(s.params.A).hex(),
            float(s.residual).hex(), s.topology)
           for s in periodic_search(alphas, a, 8, tol=tol)]
    assert got == GOLDEN_SEARCH[name]


def _rational_candidate_loop(beta_vals, b_max):
    """The scalar reference: best (a_vec, b, residual), first b wins ties."""
    best = None
    r = np.asarray(beta_vals) / np.pi
    for b in range(1, b_max + 1):
        a_vec = np.round(b * r).astype(int)
        if a_vec.sum() != 0:
            continue
        residual = float(np.max(np.abs(beta_vals - np.pi * a_vec / b)))
        if best is None or residual < best[2]:
            best = (tuple(int(x) for x in a_vec), b, residual)
    return best


def test_rational_candidates_equal_scalar_loop():
    rng = np.random.default_rng(41)
    beta = np.empty((600, 4))
    # exact rationals (ties between b and its multiples), near rationals
    # and generic angles, all summing to zero
    num = rng.integers(-9, 10, size=(600, 3))
    den = rng.integers(1, 9, size=(600, 1))
    beta[:, :3] = np.pi * num / den
    beta[200:400, :3] += rng.normal(scale=1e-3, size=(200, 3))
    beta[400:, :3] = rng.uniform(-3, 3, size=(200, 3))
    beta[:, 3] = -beta[:, :3].sum(axis=1)
    none = 0
    for b_max in (2, 8):
        a_vec, b, residual = centred._rational_candidates(beta, b_max)
        for row, av, bb, res in zip(beta, a_vec, b, residual):
            want = _rational_candidate_loop(row, b_max)
            if want is None:
                none += 1
                assert res == np.inf
            else:
                assert (tuple(int(x) for x in av), int(bb), float(res)) == want
    assert none > 0


def test_search_batches_its_quadrature(monkeypatch):
    # one betas_grid call for the grid plus one per root-finding round, and
    # no one-row betas call
    sizes = []
    real = centred.betas_grid

    def spy(params, A, tol=3e-12):
        sizes.append(np.size(A))
        return real(params, A, tol=tol)

    monkeypatch.setattr(centred, "betas_grid", spy)
    monkeypatch.setattr(centred, "betas", None)
    sols = periodic_search(symmetric_alphas(6, 3), 3, 8)
    assert len(sols) == 5
    assert sizes[0] == 96 and len(sizes) < 20
    assert max(sizes[1:]) > 1
