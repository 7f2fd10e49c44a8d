"""Jacobi elliptic layer against its defining identities and an independent
high-accuracy ODE integration of the first-order system."""

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from slevolve import ValidationError
from slevolve.elliptic import (JacobiTriple, complete_K, jacobi,
                               jacobi_derivatives, jacobi_grid)


def jacobi_ode_oracle(t, k, rtol=1e-12, atol=1e-14):
    """Integrate (sn, cn, dn)' = (cn dn, -sn dn, -k^2 sn cn) from the
    standard initial conditions; fully independent of the AGM scheme."""

    def rhs(_, y):
        sn, cn, dn = y
        return [cn * dn, -sn * dn, -k * k * sn * cn]

    sol = solve_ivp(rhs, (0.0, t), [0.0, 1.0, 1.0], method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True)
    return sol.y[:, -1]


class TestJacobi:
    def test_initial_conditions(self):
        for k in (0.0, 0.3, 0.8, 1.0):
            j = jacobi(0.0, k)
            assert (j.sn, j.cn, j.dn) == (0.0, 1.0, 1.0)

    def test_circular_reduction(self):
        ts = np.linspace(-5, 5, 41)
        for t in ts:
            j = jacobi(t, 0.0)
            assert j.sn == pytest.approx(np.sin(t), abs=1e-12)
            assert j.cn == pytest.approx(np.cos(t), abs=1e-12)
            assert j.dn == pytest.approx(1.0, abs=1e-12)

    def test_identities_random(self):
        rng = np.random.default_rng(21)
        t = rng.uniform(-6, 6, size=10_000)
        k = rng.uniform(0, 1, size=10_000)
        for ti, ki in zip(t, k):
            j = jacobi(ti, ki)
            assert abs(j.sn ** 2 + j.cn ** 2 - 1) <= 1e-12
            assert abs((ki * j.sn) ** 2 + j.dn ** 2 - 1) <= 1e-12

    def test_against_ode_oracle_spot(self):
        j = jacobi(1.3, 0.7)
        want = jacobi_ode_oracle(1.3, 0.7)
        assert np.allclose([j.sn, j.cn, j.dn], want, atol=1e-10)

    def test_against_ode_oracle_grid(self):
        for k in (0.1, 0.5, 0.9, 0.99):
            for t in (-2.5, -0.7, 0.4, 1.9, 3.1):
                j = jacobi(t, k)
                want = jacobi_ode_oracle(t, k)
                assert np.allclose([j.sn, j.cn, j.dn], want, atol=1e-10), (t, k)

    def test_derivative_relations_fd(self):
        rng = np.random.default_rng(22)
        h = 1e-6
        for _ in range(60):
            t = rng.uniform(-4, 4)
            k = rng.uniform(0, 0.98)
            jp = jacobi(t + h, k)
            jm = jacobi(t - h, k)
            want = jacobi_derivatives(jacobi(t, k))
            fd = ((jp.sn - jm.sn) / (2 * h), (jp.cn - jm.cn) / (2 * h),
                  (jp.dn - jm.dn) / (2 * h))
            assert np.allclose(fd, want, atol=1e-8)

    def test_modulus_validation(self):
        with pytest.raises(ValidationError):
            jacobi(1.0, -0.1)
        with pytest.raises(ValidationError):
            jacobi(1.0, 1.1)

    def test_grid_shape(self):
        out = jacobi_grid(np.linspace(0, 1, 7), 0.4)
        assert out.shape == (7, 3)


class TestAgainstMpmath:
    """mpmath's ellipfun takes the parameter k^2, this layer the modulus k.
    The float k is passed to mpmath exactly, so any gap is ours; k -> 1
    used to lose up to 3e-10 to cancellation in k' and dn."""

    def test_grid_matches_ellipfun(self):
        mpmath = pytest.importorskip("mpmath")
        ts = np.concatenate([np.linspace(-60.0, 60.0, 13), [48.0, -250.0,
                                                             1000.0]])
        for k in (0.0, 0.3, 0.9, 0.999, 1 - 1e-6, 1 - 1e-10, 1 - 4e-11,
                  1 - 1e-13, 1 - 1e-15, 1.0):
            got = jacobi_grid(ts, k)
            with mpmath.workdps(40):
                param = mpmath.mpf(k) ** 2
                want = np.array([[float(mpmath.ellipfun(f, mpmath.mpf(t),
                                                        m=param))
                                  for f in ("sn", "cn", "dn")] for t in ts])
            assert np.abs(got - want).max() <= 2e-13, k


class TestCompleteK:
    def test_circular_value(self):
        assert complete_K(0.0) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_quadrature_oracle(self):
        k = 0.5
        want, _ = quad(lambda p: 1.0 / np.sqrt(1 - (k * np.sin(p)) ** 2),
                       0.0, np.pi / 2, epsabs=1e-13, epsrel=1e-13)
        assert complete_K(k) == pytest.approx(want, abs=1e-12)

    def test_periodicity(self):
        k = 0.9
        K = complete_K(k)
        for t in np.linspace(-2, 2, 17):
            assert jacobi(t + 4 * K, k).sn == pytest.approx(
                jacobi(t, k).sn, abs=1e-9)

    def test_k_one_rejected(self):
        with pytest.raises(ValidationError):
            complete_K(1.0)


def test_triple_invariants_dataclass():
    j = jacobi(0.77, 0.6)
    assert isinstance(j, JacobiTriple)
    assert j.t == 0.77 and j.k == 0.6
