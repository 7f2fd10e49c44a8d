"""The general engine: specialization to the diagonal closed forms, map
admissibility diagnostics, and the adaptive integrator with its guards."""

import numpy as np
import pytest

from oracles import Affine3ClosedForm, eval_omega
from slevolve import NumericalError, ValidationError, centred, ode
from slevolve.affine import (AffineParams, affine_initial, integrate_affine,
                             rhs_affine)
from slevolve.evodata import (QuadricSpec, curve_data, example_paraboloid,
                              example_quadric, extend_product, quadric_data)
from slevolve.evolver import EvolMap, integrate, membership_cp, rhs_general
from slevolve.multilinear import complex_to_real, k_subsets


def random_map(rng, m, n):
    A = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    t0 = rng.normal(size=m) + 1j * rng.normal(size=m)
    return EvolMap(n, m, A, t0)


def rhs_by_determinants(phi, data):
    """The right-hand side from its definition: over every (m-1)-subset I,
    the cofactor c_j of U = A[:, I] is det[e_j | U], so that
    det[v | U] = sum_j v_j c_j; chi's coefficient rows weight the subsets."""
    m = data.m
    eye = np.eye(m)
    C = np.array([[np.linalg.det(np.column_stack([eye[j], phi.A[:, list(I)]]))
                   for I in k_subsets(data.n, m - 1)] for j in range(m)])
    return (0.5 * np.conj(C) @ data.chi[:, :-1],
            0.5 * np.conj(C) @ data.chi[:, -1])


class TestSpecialization:
    @pytest.mark.parametrize("m,a", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)])
    def test_diagonal_matches_closed_form(self, m, a):
        data = example_quadric(m, a, 1.0)
        rng = np.random.default_rng(51)
        for _ in range(100):
            w = rng.normal(size=m) + 1j * rng.normal(size=m)
            der = rhs_general(EvolMap.diagonal(w), data)
            want = centred.rhs_w(w, a)
            assert np.abs(np.diag(der.A) - want).max() <= 1e-12
            off = der.A - np.diag(np.diag(der.A))
            assert np.abs(off).max() <= 1e-12
            assert np.abs(der.t0).max() <= 1e-12

    @pytest.mark.parametrize("m,a", [(3, 1), (3, 2), (4, 2), (5, 3)])
    def test_paraboloid_matches_closed_form(self, m, a):
        data = example_paraboloid(m, a)
        rng = np.random.default_rng(52)
        for _ in range(100):
            w = rng.normal(size=m - 1) + 1j * rng.normal(size=m - 1)
            beta = complex(rng.normal(), rng.normal())
            A = np.zeros((m, m), complex)
            A[:m - 1, :m - 1] = np.diag(w)
            A[m - 1, m - 1] = 1.0
            t0 = np.zeros(m, complex)
            t0[m - 1] = beta
            der = rhs_general(EvolMap(m, m, A, t0), data)
            dw_want, dbeta_want = rhs_affine(w, a)
            assert np.abs(np.diag(der.A)[:m - 1] - dw_want).max() <= 1e-12
            assert abs(der.t0[m - 1] - dbeta_want) <= 1e-12
            off = der.A - np.diag(np.diag(der.A))
            assert np.abs(off).max() <= 1e-12
            assert abs(der.A[m - 1, m - 1]) <= 1e-12

    @pytest.mark.parametrize("variant,a", [("a2", 2), ("a1", 1)])
    def test_paraboloid_follows_the_explicit_m3_solution(self, variant, a):
        # the engine itself, not its right-hand side, against the explicit
        # translated solution: A(t) = diag(w_1, w_2, 1), t0(t) = beta(t) e_3;
        # without chi's constant column t0 is off by more than 1
        form = Affine3ClosedForm(variant, 1.2 - 0.3j, 0.4 + 0.9j, 0.1)
        w1, w2 = form.w(0.0)
        phi0 = EvolMap(3, 3, np.diag([w1, w2, 1.0]),
                       [0.0, 0.0, form.beta(0.0)])
        traj = integrate(phi0, example_paraboloid(3, a), 1.0, checkpoints=33)
        assert not traj.escaped and traj.times[-1] == 1.0
        w = form.w(traj.times)
        want_A = np.zeros((33, 3, 3), complex)
        want_A[:, [0, 1, 2], [0, 1, 2]] = np.column_stack([w, np.ones(33)])
        want_t0 = np.zeros((33, 3), complex)
        want_t0[:, 2] = form.beta(traj.times)
        assert np.abs([p.A for p in traj.maps] - want_A).max() <= 1e-8
        assert np.abs([p.t0 for p in traj.maps] - want_t0).max() <= 1e-8

    def test_real_maps_stay_real(self):
        data = example_quadric(3, 1, 1.0)
        rng = np.random.default_rng(53)
        for _ in range(20):
            phi = EvolMap.linear(rng.normal(size=(3, 3)).astype(complex))
            der = rhs_general(phi, data)
            assert np.abs(der.A.imag).max() <= 1e-12

    def test_homogeneity_degree(self):
        rng = np.random.default_rng(54)
        for m, a in ((3, 1), (4, 2)):
            data = example_quadric(m, a, 1.0)
            phi = EvolMap.linear(rng.normal(size=(m, m))
                                 + 1j * rng.normal(size=(m, m)))
            base = rhs_general(phi, data)
            for kappa in (0.5, 1.7, 3.0):
                scaled = rhs_general(EvolMap.linear(kappa * phi.A), data)
                want = kappa ** (m - 1) * base.A
                assert np.abs(scaled.A - want).max() <= 1e-10 * (
                    1 + np.abs(want).max())

    def test_dimension_mismatch_rejected(self):
        data = example_quadric(3, 1, 1.0)
        with pytest.raises(ValidationError):
            rhs_general(EvolMap.diagonal(np.ones(4)), data)
        with pytest.raises(ValidationError):
            integrate(EvolMap.diagonal(np.ones(4)), data, 1.0)


class TestCofactorIdentity:
    @staticmethod
    def check(data, rng):
        for _ in range(5):
            phi = random_map(rng, data.m, data.n)
            der = rhs_general(phi, data)
            dA, dt0 = rhs_by_determinants(phi, data)
            scale = 1.0 + np.abs(dA).max()
            assert np.abs(der.A - dA).max() <= 1e-13 * scale
            assert np.abs(der.t0 - dt0).max() <= 1e-13 * scale

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_general_quadric(self, m):
        # a non-diagonal affine quadric: every subset and the constant
        # term of chi are active
        rng = np.random.default_rng(60 + m)
        S = rng.normal(size=(m, m))
        self.check(quadric_data(QuadricSpec(m, S + S.T, rng.normal(size=m)),
                                1.0), rng)

    @pytest.mark.parametrize("data", [
        extend_product(example_quadric(2, 1, 1.0), 1),
        extend_product(example_paraboloid(3, 1), 2),
        curve_data(np.array([[0.3, 1.0], [-2.0, 0.1]]), np.array([0.5, -1.0]),
                   2),
    ], ids=["product-linear", "product-affine", "curve-m2"])
    def test_constructed_data(self, data):
        self.check(data, np.random.default_rng(61))


class TestMembership:
    def test_real_matrix_lagrangian(self):
        data = example_quadric(3, 1, 1.0)
        rng = np.random.default_rng(55)
        phi = EvolMap.linear(rng.normal(size=(3, 3)).astype(complex))
        diag = membership_cp(phi, data, n_samples=60)
        assert diag.max_omega_residual <= 1e-14
        assert diag.min_singular_ratio > 1e-8

    def test_unit_scaled_axes(self):
        data = example_quadric(2, 1, 1.0)
        phi = EvolMap.diagonal(np.array([1.0, 1j]))
        diag = membership_cp(phi, data, n_samples=60)
        assert diag.max_omega_residual <= 1e-14

    def test_rank_deficiency_flagged(self):
        data = example_quadric(3, 1, 1.0)
        A = np.zeros((3, 3), complex)
        A[0, 0] = 1.0
        A[0, 1] = 2.0  # columns on one real line: rank 1, never injective
        diag = membership_cp(EvolMap.linear(A), data, n_samples=40)
        assert diag.min_singular_ratio <= 1e-8
        assert not diag.passes()

    def test_no_samples_rejected(self):
        # the zero map fails on 5 samples; on none it must not pass
        data = example_quadric(3, 1, 1.0)
        zero = EvolMap.linear(np.zeros((3, 3), complex))
        assert not membership_cp(zero, data, n_samples=5).passes()
        with pytest.raises(ValidationError, match="n_samples"):
            membership_cp(zero, data, n_samples=0)


    @pytest.mark.parametrize("m,a", [(2, 1), (3, 1), (4, 2), (5, 5)])
    def test_matches_pairwise_omega(self, m, a):
        # a random complex map is not Lagrangian: residuals are O(1)
        data = example_quadric(m, a, 1.0)
        phi = random_map(np.random.default_rng(62), m, m)
        worst, min_sv, min_ratio = 0.0, np.inf, np.inf
        for p in data.sample(30, 4):
            pushed = np.array([complex_to_real(phi.A @ tau)
                               for tau in data.tangent_basis(p)])
            norms = np.linalg.norm(pushed, axis=1)
            for i in range(m - 1):
                for j in range(i + 1, m - 1):
                    worst = max(worst, abs(eval_omega(pushed[i], pushed[j], m))
                                / (norms[i] * norms[j]))
            svals = np.linalg.svd(pushed.T, compute_uv=False)
            min_sv = min(min_sv, svals[-1])
            min_ratio = min(min_ratio, svals[-1] / svals[0])
        diag = membership_cp(phi, data, n_samples=30, seed=4)
        assert diag.samples == 30
        assert abs(diag.max_omega_residual - worst) <= 1e-15
        if m > 2:
            assert worst > 1e-3
        assert diag.min_singular_value == pytest.approx(min_sv, rel=1e-13)
        assert diag.min_singular_ratio == pytest.approx(min_ratio, rel=1e-13)


class TestIntegrate:
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_blow_up_time_of_equal_diagonal(self, m):
        # equal real entries stay equal, w' = c w^(m-1) with w(0) = 1, so
        # w^-(m-2) = 1 - (m-2) c t blows up at T = 1 / ((m-2) c)
        data = example_quadric(m, m, 1.0)
        c = centred.rhs_w(np.ones(m), m)[0].real
        T = 1.0 / ((m - 2) * c)
        traj = integrate(EvolMap.diagonal(np.ones(m)), data, 50.0,
                         checkpoints=5, membership_samples=8)
        assert traj.escaped
        assert abs(traj.escape_time - T) <= 1e-6 * T

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_w_path_escapes_where_the_engine_does(self, m):
        # centred case (b) on the ellipsoid: integrate_w and the engine
        # stop at the one blow-up event, the w system's m being the
        # engine's
        params = centred.CentredParams(m, m, (1.0,) * m, 0.2, c=1.0)
        w0 = centred.w_initial(params)
        path = centred.integrate_w(w0, m, 5.0)
        traj = integrate(EvolMap.diagonal(w0), example_quadric(m, m, 1.0),
                         5.0, checkpoints=2, membership_samples=1)
        assert path.escaped and traj.escaped
        assert path.t_span == (0.0, path.escape_time)
        assert abs(path.escape_time - traj.escape_time) <= (
            1e-7 * traj.escape_time)

    @pytest.mark.parametrize("m", [4, 5, 6, 7])
    def test_affine_path_escapes_where_the_engine_does(self, m):
        # a = m-1 on the paraboloid: the translated w path counts beta's
        # slot in m, as the engine's map diag(w, 1) does, and leaves beta
        # out of the norm, as the engine leaves out t0
        params = AffineParams(m, m - 1, (1.0,) * (m - 1), 0.4)
        w0, beta0 = affine_initial(params)
        path = integrate_affine(w0, beta0, m - 1, 8.0)
        t0 = np.zeros(m, complex)
        t0[m - 1] = beta0
        traj = integrate(EvolMap(m, m, np.diag(np.append(w0, 1.0)), t0),
                         example_paraboloid(m, m - 1), 8.0, checkpoints=2,
                         membership_samples=1)
        assert path.escaped and traj.escaped
        assert abs(path.escape_time - traj.escape_time) <= (
            1e-7 * traj.escape_time)

    @pytest.mark.parametrize("m,a", [(6, 3), (7, 4)])
    def test_translating_family_does_not_escape(self, m, a):
        # a case-d start on the paraboloid: w stays bounded while beta
        # drifts linearly past 100, so the guard on A must never fire
        params = AffineParams(m, a, (1.0,) * (m - 1), 0.5)
        w0, beta0 = affine_initial(params)
        A = np.zeros((m, m), complex)
        A[:m - 1, :m - 1] = np.diag(w0)
        A[m - 1, m - 1] = 1.0
        t0 = np.zeros(m, complex)
        t0[m - 1] = beta0
        traj = integrate(EvolMap(m, m, A, t0), example_paraboloid(m, a),
                         250.0, checkpoints=3, membership_samples=4)
        assert not traj.escaped
        assert traj.times[-1] == 250.0
        assert abs(traj.maps[-1].t0[m - 1]) > 100.0
        assert np.abs(traj.maps[-1].A).max() <= 10.0

    @pytest.mark.parametrize("counts", [{"checkpoints": 1},
                                        {"checkpoints": 0},
                                        {"membership_samples": 0}])
    def test_bad_counts_rejected(self, counts):
        # one checkpoint would make final() the start map, and no sample
        # would make every residual 0
        phi0 = EvolMap.diagonal(np.ones(3, complex))
        (name,) = counts
        with pytest.raises(ValidationError, match=name):
            integrate(phi0, example_quadric(3, 1, 1.0), 0.5, **counts)

    def test_checkpoint_maps_are_read_only(self):
        data = example_quadric(3, 1, 1.0)
        traj = integrate(EvolMap.diagonal(np.ones(3, complex)), data, 0.2,
                         checkpoints=3, membership_samples=4)
        for mp in traj.maps:
            assert isinstance(mp, EvolMap) and (mp.n, mp.m) == (3, 3)
            assert mp.A.shape == (3, 3) and mp.t0.shape == (3,)
            assert not (mp.A.flags.writeable or mp.t0.flags.writeable)

    def test_checkpoint_residuals_match_membership(self):
        data = example_quadric(3, 1, 1.0)
        phi0 = random_map(np.random.default_rng(63), 3, 3)
        traj = integrate(phi0, data, 0.2, checkpoints=5,
                         membership_samples=12, seed=7)
        assert np.max(traj.omega_residuals) > 1e-3
        for k, mp in enumerate(traj.maps):
            diag = membership_cp(mp, data, 12, 7)
            assert traj.omega_residuals[k] == diag.max_omega_residual

    def test_failure_names_stage_and_budget(self, monkeypatch):
        # with no guard the ellipsoid's blow-up at t = 1 drives the step
        # below the spacing of doubles; the error says where and why
        monkeypatch.setattr(ode, "BLOWUP_GUARD", np.inf)
        data = example_quadric(3, 3, 1.0)
        phi0 = EvolMap.diagonal(np.array([1.0, 1.0, 1.0], complex))
        with pytest.raises(NumericalError) as exc:
            integrate(phi0, data, 2.0)
        msg = str(exc.value)
        for part in ("evolver.integrate", "m=3", "n=3", "reached t = 1.0",
                     "of t_end = 2.0", "last step size", "rtol = 1e-10",
                     "atol = 1e-12"):
            assert part in msg, (part, msg)

    def test_ellipsoid_escapes(self, monkeypatch):
        monkeypatch.setattr(ode, "BLOWUP_GUARD", 1e6)
        data = example_quadric(3, 3, 1.0)
        phi0 = EvolMap.diagonal(np.array([1.0, 1.0, 1.0], complex))
        traj = integrate(phi0, data, 50.0)
        assert traj.escaped
        assert traj.escape_time is not None and traj.escape_time < 50.0

    def test_m2_oscillator_against_matrix_exponential(self):
        # the m = 2 right-hand side is real-linear: build its 8 x 8 matrix
        # from the engine itself and use the exponential as the oracle.
        # The boost field sweeps the indefinite conic, whose evolution is
        # the closed-orbit harmonic system.
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        data = curve_data(M, np.zeros(2), 2)

        def pack(phi):
            return np.concatenate([phi.A.real.ravel(), phi.A.imag.ravel()])

        def unpack(y):
            return EvolMap.linear(y[:4].reshape(2, 2)
                                  + 1j * y[4:].reshape(2, 2))

        expm = pytest.importorskip("scipy.linalg").expm
        L = np.zeros((8, 8))
        for i in range(8):
            e = np.zeros(8)
            e[i] = 1.0
            L[:, i] = pack(rhs_general(unpack(e), data))

        rng = np.random.default_rng(56)
        phi0 = EvolMap.linear(rng.normal(size=(2, 2))
                              + 1j * rng.normal(size=(2, 2)))
        y0 = pack(phi0)
        traj = integrate(phi0, data, 6.0, checkpoints=13,
                         membership_samples=20)
        for t, mp in zip(traj.times, traj.maps):
            want = unpack(expm(t * L) @ y0)
            assert np.abs(mp.A - want.A).max() <= 1e-8

        # purely imaginary spectrum: closed orbits with a common period
        eigs = np.linalg.eigvals(L)
        assert np.abs(eigs.real).max() <= 1e-12
        freqs = np.abs(eigs.imag)
        base = freqs[freqs > 1e-9].min()
        ratios = freqs[freqs > 1e-9] / base
        assert np.allclose(ratios, np.round(ratios), atol=1e-9)
        T = 2 * np.pi / base
        end = integrate(phi0, data, T, checkpoints=3,
                        membership_samples=10).maps[-1]
        assert np.abs(end.A - phi0.A).max() <= 1e-8

    def test_checkpoint_pullback_residual(self):
        data = example_quadric(3, 1, 1.0)
        params = centred.CentredParams(3, 1, (1.0, 2.0, 2.0), 1.0, c=1.0)
        phi0 = EvolMap.diagonal(centred.w_initial(params))
        traj = integrate(phi0, data, 4.0, checkpoints=21)
        assert not traj.escaped
        assert np.max(traj.omega_residuals) <= 1e-8
        assert traj.flagged == []

    def test_tolerance_controls_endpoint_error(self):
        data = example_quadric(3, 1, 1.0)
        params = centred.CentredParams(3, 1, (1.0, 2.0, 2.0), 1.0, c=1.0)
        phi0 = EvolMap.diagonal(centred.w_initial(params))
        ref = integrate(phi0, data, 2.0, rtol=1e-12, atol=1e-14,
                        checkpoints=3, membership_samples=8).maps[-1]
        errs = []
        for rtol in (1e-6, 1e-9):
            end = integrate(phi0, data, 2.0, rtol=rtol, atol=rtol * 1e-2,
                            checkpoints=3, membership_samples=8).maps[-1]
            errs.append(np.abs(end.A - ref.A).max())
        assert errs[1] < errs[0]
        assert errs[1] <= 1e-8


class TestEvolMapValidation:
    def test_shapes(self):
        with pytest.raises(ValidationError):
            EvolMap(2, 2, np.zeros((2, 3), complex), np.zeros(2, complex))
        with pytest.raises(ValidationError):
            EvolMap(2, 2, np.full((2, 2), np.nan, complex),
                    np.zeros(2, complex))
