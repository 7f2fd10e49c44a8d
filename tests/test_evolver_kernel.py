"""The generated stage kernel of ``evolver.integrate`` against the numpy
right-hand side ``_rhs_arrays``, against the numpy adapter's stage byte for
byte, and against exact rational arithmetic.  This module imports no scipy.
"""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from conftest import assert_fused_stage
from slevolve import evodata, evolver, ode
from slevolve.multilinear import k_subsets


def kernel(data):
    return evolver._stage_kernel(data.n, data.m, data.chi.tobytes())


def numpy_rhs(data, y):
    """``_rhs_arrays`` on the packed state y, packed."""
    n, m = data.n, data.m
    half = m * n + m
    A = (y[:m * n] + 1j * y[half:half + m * n]).reshape(m, n)
    return evolver._pack(*evolver._rhs_arrays(A, evolver._rhs_plan(data)))


def general_quadric(m, seed):
    """An affine quadric with off-diagonal S and b != 0, so chi is dense and
    has a constant column."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    S = Q @ np.diag(rng.uniform(0.5, 2.0, m) * (-1.0) ** np.arange(m)) @ Q.T
    return evodata.quadric_data(evodata.QuadricSpec(m, S, rng.normal(size=m)),
                                0.8)


def curve(m):
    return evodata.curve_data(np.array([[0.2, -1.0], [1.0, 0.1]]),
                              np.array([0.3, 0.0]), m)


EXAMPLES = [evodata.example_quadric(m, a, c) for m, a, c in
            ((2, 1, 1.0), (3, 1, 0.0), (4, 2, -1.0), (5, 3, 1.0))]
QUADRICS = [general_quadric(m, 70 + m) for m in range(2, 6)] + EXAMPLES
PARABOLOIDS = [evodata.example_paraboloid(m, 1) for m in (2, 3, 4)]
PRODUCTS = [evodata.extend_product(evodata.example_quadric(2, 1, 1.0), 1),
            evodata.extend_product(evodata.example_quadric(2, 1, 1.0), 2),
            evodata.extend_product(evodata.example_quadric(3, 1, 1.0), 1)]
CASES = QUADRICS + PARABOLOIDS + PRODUCTS + [curve(m) for m in (2, 3, 4)]


@pytest.mark.parametrize("data", CASES, ids=[d.label for d in CASES])
def test_rhs_matches_numpy_path(data):
    # random non-diagonal maps, translations included
    rng = np.random.default_rng(5)
    size = 2 * (data.m * data.n + data.m)
    for _ in range(50):
        y = rng.normal(size=size)
        want = numpy_rhs(data, y)
        got = kernel(data)(0.0, y)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_cases_exercise_inactive_subsets_and_constant_column():
    for data in PRODUCTS:
        assert not np.all(np.any(data.chi != 0.0, axis=1))
    for data in PARABOLOIDS:
        y = np.random.default_rng(6).normal(size=2 * (data.m ** 2 + data.m))
        dt0 = kernel(data)(0.0, y).reshape(2, -1)[:, data.m ** 2:]
        assert np.all(dt0[:, -1] != 0.0)


@pytest.mark.parametrize("data", CASES, ids=[d.label for d in CASES])
def test_fused_stage_matches_numpy_stage(data):
    assert_fused_stage(kernel(data), 2 * (data.m * data.n + data.m),
                       np.random.default_rng(7))


@pytest.mark.parametrize("data", EXAMPLES + PARABOLOIDS,
                         ids=[d.label for d in EXAMPLES + PARABOLOIDS])
def test_diagonal_start_stays_diagonal(data):
    # on diagonal quadrics the minors that meet an off-diagonal zero are
    # exact zeros, so the rhs and every stage keep those entries exactly 0
    m = data.m
    rng = np.random.default_rng(8)
    w = rng.uniform(0.8, 1.25, m) * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
    A = np.diag(w)
    off = ~np.eye(m, dtype=bool)
    y = np.concatenate([A.real.ravel(), np.zeros(m), A.imag.ravel(),
                        np.zeros(m)])
    out = kernel(data)(0.0, y).reshape(2, -1)[:, :m * m].reshape(2, m, m)
    assert np.all(out[:, off] == 0.0)
    traj = evolver.integrate(evolver.EvolMap.diagonal(w), data, 0.3,
                             checkpoints=5, membership_samples=4)
    for mp in traj.maps:
        assert np.all(mp.A[off] == 0.0)


def _exact_rhs(A, chi):
    """(dA, dt0) of A for chi in exact rational arithmetic, complex numbers
    as (re, im) pairs of Fractions, minors by permutation expansion."""
    m, n = A.shape
    F = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in A]

    def mul(u, v):
        return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    def minor(rows, cols):
        total = (Fraction(0), Fraction(0))
        for perm in permutations(range(len(rows))):
            sign = 1
            for i in range(len(perm)):
                for j in range(i + 1, len(perm)):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = (Fraction(sign), Fraction(0))
            for r, p in zip(rows, perm):
                term = mul(term, F[r][cols[p]])
            total = (total[0] + term[0], total[1] + term[1])
        return total

    subsets = k_subsets(n, m - 1)
    coeffs = [[Fraction(v) for v in row] for row in chi]
    out = np.empty((m, n + 1), dtype=object)
    for j in range(m):
        rows = [r for r in range(m) if r != j]
        C = [minor(rows, K) for K in subsets]
        for q in range(n + 1):
            re = sum(((-1) ** j * c[0] * row[q] for c, row in zip(C, coeffs)),
                     Fraction(0)) / 2
            im = sum((-(-1) ** j * c[1] * row[q] for c, row in zip(C, coeffs)),
                     Fraction(0)) / 2
            out[j, q] = (re, im)
    return out


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_exact_arithmetic_accuracy(m):
    # the kernel's largest error is within 1e-15 of the largest output;
    # the stacked np.linalg.det of _rhs_arrays, a product of LU pivots,
    # reaches 7e-16 at m = 5 on such maps
    data = general_quadric(m, 90 + m)
    rng = np.random.default_rng(9)
    half = m * m + m
    for _ in range(6):
        A = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        y = np.concatenate([A.real.ravel(), rng.normal(size=m),
                            A.imag.ravel(), rng.normal(size=m)])
        got = kernel(data)(0.0, y)
        exact = _exact_rhs(A, data.chi)
        # the packed layout: Re dA, Re dt0, Im dA, Im dt0
        order = [(j, q) for j in range(m) for q in range(m)] + [
            (j, m) for j in range(m)]
        want = [exact[j, q][0] for j, q in order] + [
            exact[j, q][1] for j, q in order]
        err = max(abs(Fraction(g) - w) for g, w in zip(got.tolist(), want))
        assert got.size == 2 * half
        assert float(err) <= 1e-15 * float(max(abs(w) for w in want))


@pytest.mark.parametrize("m,generated", [(2, True), (5, True), (6, False)])
def test_integrate_runs_the_kernel_for_n_equal_m_up_to_5(monkeypatch, m,
                                                          generated):
    seen = []
    real = ode.solve

    def spy(rhs, *args, **kw):
        seen.append(rhs)
        return real(rhs, *args, **kw)

    monkeypatch.setattr(ode, "solve", spy)
    data = evodata.example_quadric(m, 1, 1.0)
    evolver.integrate(evolver.EvolMap.diagonal(np.ones(m)), data, 0.01,
                      checkpoints=2, membership_samples=2)
    assert isinstance(seen[0], ode.System) == generated
