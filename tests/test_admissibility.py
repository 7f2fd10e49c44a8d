"""The stacked admissibility pass of ``evolver.integrate`` and its parts.

``data/admissibility_reference.json`` holds values recorded from the
per-point implementation this pass replaced (one ``scipy.linalg.null_space``
per sample point, one ``np.roots`` per sampler attempt, one membership
evaluation with its SVD per checkpoint), as ``float.hex`` strings and as
SHA-256 digests of little-endian bytes where the arrays are long.  They
were recorded with numpy 2.4 on x86-64 and must be met bit for bit:

- ``evolver.integrate`` maps and omega residuals on the ten seed-1 ``evolve``
  benchmark inputs, rebuilt here from the same seeded recipe (this section
  was recorded again when ``integrate`` moved to the generated stage kernel,
  whose minors round differently from ``np.linalg.det``; the step counts
  stayed);
- ``membership_cp`` diagnostics on quadric, paraboloid and product data
  (the omega residuals here and in the evolve section were recorded again
  when ``frame_forms`` moved from one Hermitian matrix product per frame
  to elementwise pair products; 40-digit ``mpmath`` evaluations of the
  same forms check both the old and the new values to 1e-15);
- ``EvolutionData.sample`` points on the same data and on a hyperplane,
  where every sampler line meets P through the linear branch (a2 = 0),
  and on curve data, whose sampler integrates the planar flow.

The stacked quadric sampler is also checked against the one-line-at-a-time
loop of ``oracles.quadric_sampler_loop`` on every example quadric.  scipy
is a test-only oracle: the batched frames are checked against
``scipy.linalg.null_space`` point by point.
"""

import json
import os
import warnings

import numpy as np
import pytest

from conftest import digest_le
from oracles import frame_forms_hermitian, line_roots, quadric_sampler_loop
from slevolve import ConstructionError, ValidationError, evodata, evolver
from slevolve.multilinear import frame_forms

REFERENCE = os.path.join(os.path.dirname(__file__), "data",
                         "admissibility_reference.json")


def _hex(values) -> list:
    values = np.asarray(values)
    if np.iscomplexobj(values):
        values = np.stack([values.real, values.imag], axis=-1)
    return [float(v).hex() for v in values.ravel()]


def evolve_inputs(seed: int = 1) -> list:
    """The benchmark's ``evolve`` op list: diagonal starts on every
    signature-(a, m-a) quadric with 3 <= m <= 5 and 1 <= a <= m-1 (the
    level c cycling through 1, 0, -1), then one on quadric(2,1,1) x R."""
    rng = np.random.default_rng(seed)

    def start(k):
        return (rng.uniform(0.8, 1.25, size=k)
                * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=k)))

    ops = []
    pairs = [(m, a) for m in range(3, 6) for a in range(1, m)]
    for i, (m, a) in enumerate(pairs):
        c = (1.0, 0.0, -1.0)[(i + seed) % 3]
        ops.append((f"quadric({m},{a},{c:g})",
                    evodata.example_quadric(m, a, c), start(m)))
    w0 = np.append(start(2), 1.0)
    ops.append(("product(quadric(2,1,1),R)",
                evodata.extend_product(evodata.example_quadric(2, 1, 1.0), 1),
                w0))
    return ops


def sample_data() -> dict:
    hyperplane = evodata.quadric_data(
        evodata.QuadricSpec(3, np.zeros((3, 3)), np.array([1.0, -2.0, 0.5])),
        0.7)
    return {
        "quadric(3,1,1)": evodata.example_quadric(3, 1, 1.0),
        "quadric(4,2,-1)": evodata.example_quadric(4, 2, -1.0),
        "cone(3,1)": evodata.example_quadric(3, 1, 0.0),
        "paraboloid(3,1)": evodata.example_paraboloid(3, 1),
        "paraboloid(4,2)": evodata.example_paraboloid(4, 2),
        "product(quadric(2,1,1),R)": evodata.extend_product(
            evodata.example_quadric(2, 1, 1.0), 1),
        "hyperplane(3)": hyperplane,
    }


def curve_sample_cases() -> dict:
    """``evodata.curve_data`` on a spiral, a field with M = 0 and a sink,
    each with the (count, seed) pairs it is sampled at: one and seven
    points as well as 40 and 200."""
    spiral = np.array([[0.2, -1.0], [1.0, 0.1]]), np.array([0.3, 0.0])
    constant = np.zeros((2, 2)), np.array([0.5, -1.0])
    sink = np.array([[-1.0, -2.0], [-0.5, 0.0]]), np.array([-1.0, 0.0])
    return {
        "curve(spiral,3)": (evodata.curve_data(*spiral, 3),
                            ((1, 0), (40, 2), (200, 7))),
        "curve(M=0,2)": (evodata.curve_data(*constant, 2), ((7, 1), (40, 4))),
        "curve(sink,4)": (evodata.curve_data(*sink, 4), ((7, 3), (200, 5))),
    }


MEMBERSHIP_CASES = ("quadric(3,1,1)", "quadric(4,2,-1)", "cone(3,1)",
                    "paraboloid(3,1)", "paraboloid(4,2)",
                    "product(quadric(2,1,1),R)")


def snapshot() -> dict:
    """Every recorded value, computed by the code under test."""
    out = {"evolve": {}, "membership": {}, "sample": {}}
    for label, data, w0 in evolve_inputs(1):
        traj = evolver.integrate(evolver.EvolMap.diagonal(w0), data, 1.0)
        maps = np.array([mp.A for mp in traj.maps])
        out["evolve"][label] = {
            "maps_sha256": digest_le(maps),
            "final_map": _hex(maps[-1]),
            "omega_residuals": _hex(traj.omega_residuals),
            "nfev": traj.nfev, "accepted_steps": traj.accepted_steps}
    datas = sample_data()
    for label in MEMBERSHIP_CASES:
        data = datas[label]
        rng = np.random.default_rng(17)
        w0 = rng.normal(size=data.m) + 1j * rng.normal(size=data.m)
        for seed in (0, 3):
            diag = evolver.membership_cp(evolver.EvolMap.diagonal(w0), data,
                                         seed=seed)
            out["membership"][f"{label}/seed={seed}"] = {
                "max_omega_residual": diag.max_omega_residual.hex(),
                "min_singular_value": diag.min_singular_value.hex(),
                "min_singular_ratio": diag.min_singular_ratio.hex(),
                "samples": diag.samples}
    for label, data in datas.items():
        out["sample"][f"{label}/12/seed=5"] = _hex(data.sample(12, 5))
        out["sample"][f"{label}/200/seed=0"] = digest_le(data.sample(200, 0))
    for label, (data, draws) in curve_sample_cases().items():
        for count, seed in draws:
            out["sample"][f"{label}/{count}/seed={seed}"] = digest_le(
                data.sample(count, seed))
    return out


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current():
    return snapshot()


@pytest.mark.parametrize("label", [op[0] for op in evolve_inputs(1)])
def test_integrate_bitwise(reference, current, label):
    assert current["evolve"][label] == reference["evolve"][label]


def test_membership_cp_bitwise(reference, current):
    assert current["membership"] == reference["membership"]


def test_sample_points_bitwise(reference, current):
    assert current["sample"] == reference["sample"]


def test_hyperplane_sampler_takes_linear_branch():
    # d'Sd = 0 on every line: each attempt yields the one root -a0/a1
    data = sample_data()["hyperplane(3)"]
    pts = data.sample(50, 2)
    assert np.allclose(pts @ np.array([1.0, -2.0, 0.5]), 0.7, atol=1e-12)


def _sampler_cases(m):
    """Every example quadric of dimension m whose level set can be sampled
    (the cones among them), the paraboloids and the hyperplane of
    ``sample_data`` at m = 3 and 4, and a quadric with off-diagonal S and
    b != 0."""
    cases = []
    for a in range(1, m + 1):
        for c in (-1.0, 0.0, 1.0):
            try:
                cases.append(evodata.example_quadric(m, a, c))
            except ConstructionError:       # empty, or the cone's vertex
                pass
    cases += [data for data in sample_data().values()
              if data.recipe["recipe"] == "quadric" and data.m == m]
    rng = np.random.default_rng(40 + m)
    Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    S = Q @ np.diag(rng.uniform(0.5, 2.0, size=m) * (-1.0) ** np.arange(m)) @ Q.T
    cases.append(evodata.quadric_data(
        evodata.QuadricSpec(m, S, rng.normal(size=m)), 0.8))
    return cases


@pytest.mark.parametrize("m", range(2, 7))
def test_stacked_sampler_equals_loop(m):
    # the same points byte for byte: the rng draws, the coefficients (by
    # gemv and ddot), the roots, the hits and the accepted gradient norms
    for data in _sampler_cases(m):
        r = data.recipe
        loop = quadric_sampler_loop(
            evodata.QuadricSpec(m, np.array(r["S"]), np.array(r["b"])), r["c"])
        for seed in range(20):
            got = data.sample(40, seed)
            assert got.shape == (40, m)
            assert got.tobytes() == loop(40, seed).tobytes(), (data.label,
                                                               seed)


def test_quadric_value_and_gradient_per_point():
    # Q is one running sum of (x_i S_ij) x_j from 0.0 in row-major order
    # plus b'x and c0, and dQ one gemv, at every point of a stack as alone
    rng = np.random.default_rng(13)
    for n in range(2, 7):
        S = rng.normal(size=(n, n))
        spec = evodata.QuadricSpec(n, S + S.T, rng.normal(size=n), 0.3)
        X = rng.normal(size=(25, n)) * 10.0 ** rng.uniform(-3, 3, (25, 1))
        values, grads = spec.value(X), spec.gradient(X)
        for x, v, g in zip(X, values, grads):
            quad = 0.0
            for i in range(n):
                for j in range(n):
                    quad += x[i] * spec.S[i, j] * x[j]
            want = quad + 0.0 + x @ spec.b + 0.3
            assert v.hex() == want.hex() == spec.value(x).hex()
            assert g.tobytes() == (2.0 * x @ spec.S + spec.b).tobytes()
            assert g.tobytes() == spec.gradient(x).tobytes()


def test_line_roots_equal_np_roots():
    rng = np.random.default_rng(12)
    coeffs = rng.normal(size=(2000, 3)) * rng.uniform(1e-3, 1e3, (2000, 1))
    coeffs[:50, 0] *= 1e-15                          # linear branch
    coeffs[50:60, :2] = 0.0                          # no root
    coeffs[60:70, 2] = 0.0                           # np.roots strips a0 = 0
    coeffs[70:75, 1:] = 0.0                          # double root 0
    table = evodata._root_table(coeffs)
    assert table.shape == (len(coeffs), 2)
    for row, got in zip(coeffs, table):
        want = line_roots(*row)
        # the padding is NaN + NaN i, never a real root
        assert np.isnan(got[len(want):].imag).all()
        assert np.array_equal(got[:len(want)].real, np.real(want))
        assert np.array_equal(got[:len(want)].imag, np.imag(want))


def test_root_table_zero_constant_and_out_of_reach_rows():
    # an a0 = 0 row takes (-a1/a2, 0), np.roots's roots bit for bit; a
    # non-finite or overflowing companion row made the whole block raise
    # LinAlgError (np.roots on the row, eigvals on the stack)
    coeffs = np.array([[1.5, -2.0, 0.0], [-0.3, 0.7, -0.0],   # a0 = 0
                       [0.4, 0.0, 0.0], [-0.4, -0.0, 0.0],
                       [2.0, 1.0, -3.0], [1.0, 0.5, 2.0],     # companion
                       [1e-3, 0.0, -1e306],       # -a0/a2 overflows
                       [1.0, 0.0, np.inf], [1.0, np.nan, 1.0],
                       [1e-15, 1e-13, 1e306]])    # -a0/a1 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = evodata._root_table(coeffs)
    for row in range(6):
        want = np.roots(coeffs[row]).astype(complex)
        assert table[row].tobytes() == want.tobytes(), row
    assert np.isnan(table[6:].real).all() and np.isnan(table[6:].imag).all()


def _curve():
    return evodata.curve_data(np.array([[0.2, -1.0], [1.0, 0.1]]),
                              np.array([0.3, 0.0]), 4)


@pytest.mark.parametrize("label", list(sample_data()) + ["curve x R^2"])
def test_tangent_bases_match_null_space(label):
    null_space = pytest.importorskip("scipy.linalg").null_space
    data = _curve() if label == "curve x R^2" else sample_data()[label]
    pts = data.sample(40, 9)
    bases = data.tangent_bases(pts)
    assert bases.shape == (40, data.m - 1, data.n)
    for p, got in zip(pts, bases):
        want = null_space(np.atleast_2d(data.normals(p))).T
        assert np.array_equal(got, want)
        assert np.array_equal(data.tangent_basis(p), want)


def test_checkpoint_residuals_equal_membership_residuals():
    rng = np.random.default_rng(8)
    data = evodata.example_quadric(4, 2, 1.0)
    bases = data.tangent_bases(data.sample(25, 1))
    As = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    got = np.max(frame_forms(bases @ np.swapaxes(As, 1, 2)[:, None])[0],
                 axis=1, initial=0.0)
    want = []
    for A in As:                      # one map at a time, pairs in a loop
        Z = bases @ A.T
        worst = 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                om = np.imag(np.sum(np.conj(Z[:, i]) * Z[:, j], axis=-1))
                den = (np.linalg.norm(Z[:, i], axis=-1)
                       * np.linalg.norm(Z[:, j], axis=-1))
                worst = max(worst, float(np.max(np.abs(om) / den)))
        want.append(worst)
    assert got.shape == (6,)
    np.testing.assert_allclose(got, want, rtol=1e-13)
    assert got.tolist() == [evolver.membership_cp(
        evolver.EvolMap.linear(A), data, 25, 1).max_omega_residual
        for A in As]


def _omega_mp(bases, A) -> np.ndarray:
    """omega of each frame of ``bases`` (N, k, n) pushed through the map
    A (m, n), from the float entries in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        Am = [[mpmath.mpc(complex(a)) for a in row] for row in A]
        out = []
        for B in bases:
            Z = [[mpmath.fsum(mpmath.mpf(float(b)) * Am_l[q]
                              for q, b in enumerate(row)) for Am_l in Am]
                 for row in B]
            norms = [mpmath.sqrt(mpmath.fsum(abs(z) ** 2 for z in zi))
                     for zi in Z]
            out.append(max(
                (abs(mpmath.fsum(mpmath.conj(a) * b
                                 for a, b in zip(Z[i], Z[j])).imag)
                 / (norms[i] * norms[j])
                 for i in range(len(Z)) for j in range(i + 1, len(Z))),
                default=mpmath.mpf(0)))
        return np.array([float(x) for x in out])


@pytest.mark.parametrize("label", ["quadric(3,2,-1)", "quadric(5,3,-1)"])
def test_checkpoint_residuals_against_mpmath(label):
    # the recorded residuals, and those of the Hermitian product they
    # replaced, against omega on the same pushed frames in 40 digits
    _, data, w0 = next(op for op in evolve_inputs(1) if op[0] == label)
    traj = evolver.integrate(evolver.EvolMap.diagonal(w0), data, 1.0)
    bases = data.tangent_bases(data.sample(traj.membership_samples, 0))
    As = np.array([mp.A for mp in traj.maps])
    exact = np.array([_omega_mp(bases, A).max() for A in As])
    before = np.max(frame_forms_hermitian(
        bases @ np.swapaxes(As, 1, 2)[:, None])[0], axis=1)
    assert np.max(np.abs(traj.omega_residuals - exact)) <= 1e-15
    assert np.max(np.abs(before - exact)) <= 1e-15


def test_membership_residuals_against_mpmath():
    data = sample_data()["quadric(4,2,-1)"]
    rng = np.random.default_rng(17)
    w0 = rng.normal(size=data.m) + 1j * rng.normal(size=data.m)
    bases = data.tangent_bases(data.sample(200, 3))
    # the recorded diagonal case, whose frames are Lagrangian, and a
    # general map, whose omega is of order one on every frame
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for phi in (evolver.EvolMap.diagonal(w0), evolver.EvolMap.linear(A)):
        exact = _omega_mp(bases, phi.A)
        got = evolver.membership_cp(phi, data, seed=3).max_omega_residual
        before = frame_forms_hermitian(bases @ phi.A.T)[0]
        assert abs(got - exact.max()) <= 1e-15
        assert np.max(np.abs(before - exact)) <= 1e-15
        assert np.max(np.abs(
            evolver._pushed_frames(bases, phi.A[None])[1][0] - exact)) <= 1e-15


def test_integrate_residuals_equal_membership_cp():
    # a checkpoint's residual is membership_cp of its map on the same
    # samples, whatever the other maps of the stack
    _, data, w0 = evolve_inputs(1)[4]
    traj = evolver.integrate(evolver.EvolMap.diagonal(w0), data, 1.0,
                             seed=2)
    assert traj.omega_residuals.tolist() == [
        evolver.membership_cp(mp, data, traj.membership_samples,
                              2).max_omega_residual for mp in traj.maps]


def test_tangent_dimension_error_names_data_sample_and_point():
    data = evodata.example_quadric(3, 1, 0.0)
    with pytest.raises(ValidationError) as exc:
        data.tangent_basis(np.zeros(3))
    msg = str(exc.value)
    assert data.label in msg
    assert "sample 0" in msg
    assert "[0.0, 0.0, 0.0]" in msg
    assert "dimension 3, expected 2" in msg


def test_tangent_dimension_error_in_a_stack():
    data = evodata.example_quadric(3, 1, 0.0)
    pts = data.sample(5, 0)
    pts[3] = 0.0
    with pytest.raises(ValidationError, match="sample 3"):
        data.tangent_bases(pts)


if __name__ == "__main__":
    # re-record (only when a recorded value is meant to change) with
    # PYTHONPATH=src python tests/test_admissibility.py; the membership and
    # sample sections were first written with their keys sorted
    doc = snapshot()
    for section in ("membership", "sample"):
        doc[section] = json.loads(json.dumps(doc[section], sort_keys=True))
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
