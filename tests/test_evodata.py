"""Evolution-data constructions: quadrics, products, planar curves, the
symmetry algebra, and the square-case classification."""

from math import comb

import numpy as np
import pytest

from oracles import basis, lie_derivative_residual, perm_expand_contract
from slevolve import ConstructionError, ValidationError, evodata
from slevolve.evodata import (QuadricSpec, classify_square, curve_data,
                              example_paraboloid, example_quadric,
                              extend_product, quadric_data, symmetry_algebra)


def hatted(n, j, coeff):
    """coeff * e_0 ^ ... e_j-hat ... ^ e_{n-1} with the signed expansion."""
    rest = tuple(i for i in range(n) if i != j)
    return (-1.0) ** j * coeff * basis(n, rest)


def top_contraction_oracle(X):
    """chi of xi . (e_0 ^ ... ^ e_{n-1}) for the 1-form with coefficient
    rows X (n, n+1), summed term by term from the permutation expansion."""
    n = X.shape[0]
    chi = np.zeros((n, n + 1))
    for i in range(n):
        chi += np.outer(perm_expand_contract(tuple(range(n)), (i,), n), X[i])
    return chi


def curve_form(M, v, m):
    """Rows of the 1-form xi = V_2 dx_1 - V_1 dx_2 of the field V = M x + v:
    V ^ e_3 ^ ... ^ e_m = xi . (e_1 ^ ... ^ e_m)."""
    X = np.zeros((m, m + 1))
    X[0, :2], X[0, m] = M[1], v[1]
    X[1, :2], X[1, m] = -M[0], -v[0]
    return X


def padded(X, k):
    """The form rows of X over k more coordinates, on which it vanishes."""
    n = X.shape[0]
    out = np.zeros((n + k, n + k + 1))
    out[:n, :n], out[:n, -1] = X[:, :n], X[:, n]
    return out


class TestQuadricData:
    def test_signature_chi_coefficients(self):
        # chi = 2 sum_{j<=a} (-1)^(j-1) x_j e_...j-hat... - 2 sum_{j>a} ...
        for m, a in ((3, 1), (4, 2), (5, 3)):
            data = example_quadric(m, a, 1.0)
            rng = np.random.default_rng(41)
            x = rng.normal(size=m)
            got = data.chi_at(x)
            want = np.zeros(m)
            for j in range(m):
                sgn = 2.0 if j < a else -2.0
                want += hatted(m, j, sgn * x[j])
            assert np.allclose(got, want, atol=1e-14)

    def test_paraboloid_constant_term(self):
        for m, a in ((3, 2), (4, 2), (5, 3)):
            data = example_paraboloid(m, a)
            want = 2.0 * (-1.0) ** (m - 1) * basis(m, tuple(range(m - 1)))
            assert np.allclose(data.chi[:, -1], want, atol=1e-14)
            assert data.kind == "affine"

    def test_tangency_residual(self):
        for data in (example_quadric(3, 1, 1.0), example_quadric(4, 2, -1.0),
                     example_paraboloid(3, 2), example_paraboloid(4, 2)):
            diag = data.validate(200, seed=1)
            assert diag["max_tangency_residual"] <= 1e-10
            assert diag["min_chi_norm"] > 0
            assert diag["spans_ambient"]

    def test_cone_excludes_vertex(self):
        data = example_quadric(3, 2, 0.0)
        pts = data.sample(200, seed=2)
        grads = np.array([np.linalg.norm(data.normals(p)[0]) for p in pts])
        assert grads.min() >= 1e-8
        assert data.validate(100, seed=3)["max_tangency_residual"] <= 1e-10

    def test_empty_level_set_rejected(self):
        spec = QuadricSpec(3, np.eye(3), np.zeros(3))
        with pytest.raises(ConstructionError):
            quadric_data(spec, -1.0)

    def test_point_level_set_rejected(self):
        spec = QuadricSpec(2, np.eye(2), np.zeros(2))
        with pytest.raises(ConstructionError):
            quadric_data(spec, 0.0)

    def test_zero_quadric_rejected(self):
        with pytest.raises(ValidationError):
            QuadricSpec(3, np.zeros((3, 3)), np.zeros(3))

    def test_linear_iff_homogeneous(self):
        assert example_quadric(3, 1, 1.0).kind == "linear"
        assert example_paraboloid(3, 1).kind == "affine"


class TestExtendProduct:
    def test_product_dimensions_and_tangency(self):
        base = example_quadric(2, 1, 1.0)
        data = extend_product(base, 1)
        assert (data.n, data.m) == (3, 3)
        assert data.validate(150, seed=4)["max_tangency_residual"] <= 1e-10

    def test_k_zero_identity(self):
        base = example_quadric(2, 1, 1.0)
        assert extend_product(base, 0) is base

    def test_wedge_degree(self):
        base = example_quadric(2, 1, 1.0)
        data = extend_product(base, 2)
        p = data.sample(5, seed=5)[0]
        assert data.m - 1 == 3
        assert data.chi_at(p).shape == (comb(data.n, 3),)


class TestCurveData:
    def test_rotation_circle(self):
        M = np.array([[0.0, -1.0], [1.0, 0.0]])
        data = curve_data(M, np.zeros(2), 2)
        diag = data.validate(150, seed=6)
        assert diag["max_tangency_residual"] <= 1e-10
        pts = data.sample(100, seed=7)
        radii = np.linalg.norm(pts, axis=1)
        assert radii.max() - radii.min() <= 1e-9  # integral curves are circles

    @pytest.mark.parametrize("M,v", [
        ([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0]),     # rotation
        ([[0.2, -1.0], [1.0, 0.1]], [0.3, 0.0]),     # spiral, affine
        ([[1.0, 0.0], [0.0, -2.0]], [0.5, 1.0]),     # saddle
        ([[3.0, 1.0], [0.0, 3.0]], [0.0, 0.0]),      # Jordan block
        ([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0]),      # nilpotent shear
        ([[0.0, 0.0], [0.0, 0.0]], [1.0, -2.0]),     # constant field
    ])
    def test_sampler_matches_matrix_exponential(self, M, v):
        # scipy's expm of the augmented matrix, at the sampler's own draw
        # times, is the oracle for the integrated flow
        expm = pytest.importorskip("scipy.linalg").expm
        M, v = np.array(M), np.array(v)
        data = curve_data(M, v, 3)
        pts = data.sample(40, seed=3)
        radius = max(np.abs(np.linalg.eigvals(M)).max(), 0.2)
        t_max = min(3.0, 4.0 / radius)
        ts = np.random.default_rng(3 + 104729).uniform(-t_max, t_max, 40)
        p0 = next(np.array(c) for c in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
                  if np.linalg.norm(M @ c + v) > 1e-10)
        aug = np.zeros((3, 3))
        aug[:2, :2], aug[:2, 2] = M, v
        want = np.array([(expm(t * aug) @ [p0[0], p0[1], 1.0])[:2]
                         for t in ts])
        err = np.linalg.norm(pts[:, :2] - want, axis=1)
        assert np.all(err <= 1e-11 * np.linalg.norm(want, axis=1))
        # a point depends on its draw time alone: repeat draws repeat bits
        assert np.array_equal(data.sample(40, seed=3), pts)

    def test_identity_field_formula(self):
        data = curve_data(np.eye(2), np.zeros(2), 3)
        x = np.array([0.7, -1.1, 0.4])
        got = data.chi_at(x)
        want = x[0] * basis(3, (0, 2)) + x[1] * basis(3, (1, 2))
        assert np.allclose(got, want, atol=1e-15)

    def test_affine_kind(self):
        data = curve_data(np.eye(2), np.array([0.5, 0.0]), 2)
        assert data.kind == "affine"

    def test_zero_field_rejected(self):
        with pytest.raises(ConstructionError):
            curve_data(np.zeros((2, 2)), np.zeros(2), 2)


def plane_data():
    """Hand-built data: the plane x_3 = x_4 = 0 of R^4 with chi = x_1
    e_1 ^ e_2, cut out by two constant normals; its ``normals`` takes
    stacked points as the protocol asks."""
    chi = np.zeros((comb(4, 2), 5))
    chi[0, 0] = 1.0

    def sampler(count, seed=0):
        pts = np.zeros((count, 4))
        pts[:, :2] = np.random.default_rng(seed).normal(size=(count, 2))
        return pts

    def normals(P):
        P = np.asarray(P, dtype=float)
        return np.broadcast_to(np.eye(4)[2:], P.shape[:-1] + (2, 4)).copy()

    return evodata.EvolutionData(4, 3, chi, sampler, normals, label="plane")


class TestNormalsProtocol:
    CASES = {
        "quadric(3,1,1)": lambda: example_quadric(3, 1, 1.0),
        "quadric(5,2,-1)": lambda: example_quadric(5, 2, -1.0),
        "cone(4,2)": lambda: example_quadric(4, 2, 0.0),
        "paraboloid(4,2)": lambda: example_paraboloid(4, 2),
        "product(quadric(2,1,1),R)": lambda: extend_product(
            example_quadric(2, 1, 1.0), 1),
        "product(paraboloid(3,1),R^2)": lambda: extend_product(
            example_paraboloid(3, 1), 2),
        "curve x R^2": lambda: curve_data(np.array([[0.2, -1.0], [1.0, 0.1]]),
                                          np.array([0.3, 0.0]), 4),
        "plane": plane_data,
    }

    @pytest.mark.parametrize("label", list(CASES))
    def test_stack_equals_points(self, label):
        # normals(P) maps (..., n) to (..., r, n), every point's covectors
        # byte for byte those of the point alone
        data = self.CASES[label]()
        rng = np.random.default_rng(60)
        pts = np.concatenate([data.sample(24, 4),
                              rng.normal(size=(6, data.n)) * 1e3])
        alone = np.array([data.normals(p) for p in pts])
        r = alone.shape[1]
        assert alone.shape == (30, r, data.n)
        assert data.normals(pts).tobytes() == alone.tobytes()
        grid = data.normals(pts.reshape(5, 6, data.n))
        assert grid.shape == (5, 6, r, data.n)
        assert grid.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("label", list(CASES))
    def test_frames_and_tangency_per_point(self, label):
        # tangent_bases and tangency_residual call normals once per stack;
        # a point's frame, chi and tangency residual are the ones it has
        # alone
        data = self.CASES[label]()
        pts = data.sample(12, 5)
        bases = data.tangent_bases(pts)
        chis = data.chi_at(pts)
        tangency = data.tangency_residual(pts)
        assert tangency.shape == (12,) and tangency.max() <= 1e-10
        for p, basis_p, chi_p, tangency_p in zip(pts, bases, chis, tangency):
            assert basis_p.tobytes() == data.tangent_basis(p).tobytes()
            assert chi_p.tobytes() == data.chi_at(p).tobytes()
            assert (tangency_p.tobytes()
                    == data.tangency_residual(p[None]).tobytes())


class TestSymmetryAlgebra:
    @pytest.mark.parametrize("m,a", [(3, 1), (4, 2), (4, 3)])
    def test_dimension_and_form_preservation(self, m, a):
        data = example_quadric(m, a, 1.0)
        g = symmetry_algebra(data)
        assert g.dim == m * (m - 1) // 2
        assert not g.grew_in_closure  # the image is already closed
        assert g.bracket_residual() <= 1e-10
        eta = np.diag([1.0] * a + [-1.0] * (m - a))
        for X in g.basis:
            resid = np.abs(X.T @ eta + eta @ X).max()
            assert resid <= 1e-10 * max(1.0, np.abs(X).max())

    def test_fields_tangent_to_p(self):
        data = example_quadric(3, 1, 1.0)
        g = symmetry_algebra(data)
        pts = data.sample(200, seed=8)
        for X in g.basis:
            for p in pts:
                v = X @ p
                nu = data.normals(p)[0]
                denom = max(np.linalg.norm(v) * np.linalg.norm(nu), 1e-30)
                assert abs(v @ nu) / denom <= 1e-10

    def test_lie_derivative_invariance(self):
        data = example_quadric(3, 1, 1.0)
        g = symmetry_algebra(data)
        rng = np.random.default_rng(44)
        coeffs = rng.normal(size=len(g.image_generators))
        v = sum(c * L for c, L in zip(coeffs, g.image_generators))
        assert lie_derivative_residual(data, v, step=1e-5) <= 1e-6

    def test_affine_data_homogenized(self):
        data = example_paraboloid(3, 2)
        g = symmetry_algebra(data)
        assert g.n == 4  # linearized over one extra dimension
        assert g.bracket_residual() <= 1e-10

    def test_kernel_dimension_m3(self):
        # for a centred quadric in R^3 the generator map is injective
        g = symmetry_algebra(example_quadric(3, 1, 1.0))
        assert g.ker_dim == 0


class TestClassifySquare:
    def test_quadric_recovery(self):
        data = example_quadric(3, 1, 1.0)
        out = classify_square(data)
        assert out.label == "quadric"
        S = out.S / np.abs(out.S).max()
        assert np.allclose(np.abs(S), np.eye(3), atol=1e-10)
        assert np.allclose(np.diag(S) / S[0, 0], [1.0, -1.0, -1.0], atol=1e-10)
        # the recovered level constant is consistent on samples
        assert out.c / (out.S[0, 0] * 2) == pytest.approx(0.5, rel=1e-8)

    def test_trace_free_planar_field_is_quadric(self):
        # Hamiltonian planar fields sweep conics: classified as quadric
        M = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert classify_square(curve_data(M, np.zeros(2), 2)).label == "quadric"

    def test_curve_times_plane(self):
        M = np.array([[1.0, -1.0], [1.0, 1.0]])  # spiral: nonzero trace
        out = classify_square(curve_data(M, np.zeros(2), 3))
        assert out.label == "curve_times_plane"

    def test_scale_invariance(self):
        data = example_quadric(3, 1, 1.0)
        scaled = evodata.EvolutionData(data.n, data.m, 3.0 * data.chi,
                                       data.sampler, data.normals)
        assert classify_square(scaled).label == "quadric"

    def test_random_specs_round_trip(self):
        rng = np.random.default_rng(45)
        hits = 0
        for _ in range(50):
            n = int(rng.integers(2, 5))
            A = rng.normal(size=(n, n))
            S = 0.5 * (A + A.T) + n * np.eye(n)  # positive definite
            spec = QuadricSpec(n, S, np.zeros(n))
            data = quadric_data(spec, 1.0)
            out = classify_square(data, n_samples=20)
            assert out.label == "quadric"
            # recovered S proportional to the generating one
            ratio = out.S / S
            assert np.nanmax(np.abs(ratio - ratio[0, 0])) <= 1e-8
            hits += 1
        assert hits == 50

    def test_non_square_rejected(self):
        data = extend_product(example_quadric(2, 1, 1.0), 1)
        # n = m = 3 here, so build a genuinely rectangular case instead
        base = example_quadric(3, 1, 1.0)
        rect = evodata.EvolutionData(3, 2, np.zeros((3, 4)), base.sampler,
                                     base.normals)
        with pytest.raises(ValidationError):
            classify_square(rect)
        assert classify_square(data).label in ("quadric", "curve_times_plane",
                                               "indeterminate")

    def test_json_surface(self):
        d = example_quadric(3, 1, 1.0).to_json_dict()
        assert d["schema"] == "sl-evodata-1"
        assert d["kind"] == "linear"
        assert len(d["chi_linear"]) == 3

    def test_json_round_trip(self):
        rng = np.random.default_rng(47)
        for data in (example_quadric(3, 1, 1.0), example_paraboloid(3, 2),
                     curve_data(np.eye(2), np.zeros(2), 3),
                     extend_product(example_quadric(2, 1, 1.0), 1)):
            back = evodata.evolution_data_from_dict(data.to_json_dict())
            x = rng.normal(size=data.n)
            assert np.allclose(back.chi_at(x), data.chi_at(x), atol=1e-14)
            assert back.validate(40, 0)["max_tangency_residual"] <= 1e-10

    def test_bad_document_rejected(self):
        with pytest.raises(ValidationError):
            evodata.evolution_data_from_dict({"schema": "nope"})


def quadric_form(diag, b=None):
    """Rows of dQ for Q = x' diag(diag) x + b'x."""
    diag = np.asarray(diag, dtype=float)
    b = np.zeros(diag.size) if b is None else np.asarray(b, dtype=float)
    return np.column_stack([2.0 * np.diag(diag), b])


SPIRAL = np.array([[0.2, -1.0], [1.0, 0.1]]), np.array([0.3, 0.0])
# two negative coefficients in a column, so 0.0 times either is -0.0
NEGATIVE = np.array([[-1.0, -2.0], [-0.5, 0.0]]), np.array([-1.0, 0.0])

# each recipe with the rows of its 1-form xi, chi = xi . (e_1 ^ ... ^ e_n)
CHI_CASES = {
    "quadric(2,1,1)": (lambda: example_quadric(2, 1, 1.0),
                       quadric_form([1, -1])),
    "quadric(3,1,-1)": (lambda: example_quadric(3, 1, -1.0),
                        quadric_form([1, -1, -1])),
    "quadric(4,2,0)": (lambda: example_quadric(4, 2, 0.0),
                       quadric_form([1, 1, -1, -1])),
    "quadric(5,5,1)": (lambda: example_quadric(5, 5, 1.0),
                       quadric_form([1] * 5)),
    # -1 times a zero entry plus 0 times a negative one is -0.0
    "quadric(-1,-1)": (
        lambda: quadric_data(QuadricSpec(2, -np.eye(2), np.zeros(2)), -1.0),
        quadric_form([-1, -1])),
    "paraboloid(3,2)": (lambda: example_paraboloid(3, 2),
                        quadric_form([1, 1, 0], [0, 0, 2])),
    "paraboloid(5,3)": (lambda: example_paraboloid(5, 3),
                        quadric_form([1, 1, 1, -1, 0], [0, 0, 0, 0, 2])),
    "curve(rotation,2)": (
        lambda: curve_data(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros(2), 2),
        curve_form(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros(2), 2)),
    "curve(spiral,3)": (lambda: curve_data(*SPIRAL, 3), curve_form(*SPIRAL, 3)),
    "curve(negative,4)": (lambda: curve_data(*NEGATIVE, 4),
                          curve_form(*NEGATIVE, 4)),
    "product(quadric(2,1,1),1)": (
        lambda: extend_product(example_quadric(2, 1, 1.0), 1),
        padded(quadric_form([1, -1]), 1)),
    "product(paraboloid(3,1),2)": (
        lambda: extend_product(example_paraboloid(3, 1), 2),
        padded(quadric_form([1, -1, 0], [0, 0, 2]), 2)),
}


class TestChiArray:
    @pytest.mark.parametrize("label", list(CHI_CASES))
    def test_recipes_match_permutation_oracle(self, label):
        # the bytes, so the sign of every zero too
        make, X = CHI_CASES[label]
        assert make().chi.tobytes() == top_contraction_oracle(X).tobytes()

    def test_bad_chi_rejected(self):
        base = example_quadric(3, 1, 1.0)
        good = base.chi.copy()
        for chi in (good[:, :3], good[:2], good.ravel(), good[None]):
            with pytest.raises(ValidationError, match="chi needs shape"):
                evodata.EvolutionData(3, 3, chi, base.sampler, base.normals)
        for bad in (np.nan, np.inf, -np.inf):
            chi = good.copy()
            chi[1, 2] = bad
            with pytest.raises(ValidationError, match="non-finite"):
                evodata.EvolutionData(3, 3, chi, base.sampler, base.normals)

    def test_chi_is_read_only(self):
        data = example_quadric(3, 1, 1.0)
        with pytest.raises(ValueError):
            data.chi[0, 0] = 1.0

    def test_kind_follows_constant_column(self):
        base = example_quadric(3, 1, 1.0)
        chi = base.chi.copy()
        assert evodata.EvolutionData(3, 3, chi, None, None).kind == "linear"
        for r in range(3):
            chi[:, -1] = 0.0
            chi[r, -1] = -1e-300
            data = evodata.EvolutionData(3, 3, chi, None, None)
            assert data.kind == "affine"
            assert data.to_json_dict()["kind"] == "affine"
        assert extend_product(example_paraboloid(3, 1), 1).kind == "affine"
        assert curve_data(np.eye(2), np.zeros(2), 3).kind == "linear"
