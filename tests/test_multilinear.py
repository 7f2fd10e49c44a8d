"""Forms, frames and contraction primitives, checked against independent
brute-force oracles (matrix form of omega, cofactor determinants, and
permutation expansion of the interior product)."""

from math import comb

import numpy as np
import pytest

from oracles import (ComplexPoint, Frame, basis, eval_omega,
                     eval_omega_complex, frame_forms_hermitian, gram_volume,
                     perm_expand_contract, pushforward, real_to_complex,
                     symmetry_algebra)
from slevolve import ValidationError
from slevolve.evodata import EvolutionData
from slevolve.multilinear import (complex_to_real, frame_forms,
                                  insertion_table, k_subsets)


def omega_matrix(m):
    """Independent oracle: omega as an antisymmetric 2m x 2m matrix built
    from its coordinate-pair definition."""
    W = np.zeros((2 * m, 2 * m))
    for j in range(m):
        W[2 * j, 2 * j + 1] = 1.0
        W[2 * j + 1, 2 * j] = -1.0
    return W


def laplace_det(M):
    """Cofactor-expansion determinant, independent of numpy.linalg."""
    n = M.shape[0]
    if n == 1:
        return M[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total += ((-1) ** j) * M[0, j] * laplace_det(minor)
    return total


class TestOmega:
    def test_unit_axis_pair(self):
        e1 = np.array([1.0, 0, 0, 0])
        ie1 = np.array([0.0, 1, 0, 0])
        assert eval_omega(e1, ie1, 2) == pytest.approx(1.0, abs=0)

    def test_real_plane_is_lagrangian(self):
        e1 = np.array([1.0, 0, 0, 0])
        e2 = np.array([0.0, 0, 1, 0])
        assert eval_omega(e1, e2, 2) == 0.0

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(7)
        for m in (2, 3, 5):
            W = omega_matrix(m)
            for _ in range(25):
                v1 = rng.normal(size=2 * m)
                v2 = rng.normal(size=2 * m)
                assert eval_omega(v1, v2, m) == pytest.approx(
                    v1 @ W @ v2, abs=1e-14 * (1 + abs(v1 @ W @ v2)))

    def test_antisymmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            v = rng.normal(size=6)
            assert eval_omega(v, v, 3) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            eval_omega(np.zeros(4), np.zeros(6), 3)


class TestOmegaComplex:
    def test_real_basis_frame(self):
        m = 3
        vecs = np.zeros((m, 2 * m))
        for j in range(m):
            vecs[j, 2 * j] = 1.0
        assert eval_omega_complex(Frame(m, vecs)) == pytest.approx(1.0 + 0.0j)

    def test_one_imaginary_axis(self):
        m = 3
        vecs = np.zeros((m, 2 * m))
        for j in range(m - 1):
            vecs[j, 2 * j] = 1.0
        vecs[m - 1, 2 * (m - 1) + 1] = 1.0
        assert eval_omega_complex(Frame(m, vecs)) == pytest.approx(0.0 + 1.0j)

    def test_cofactor_oracle(self):
        rng = np.random.default_rng(9)
        for m in (2, 3, 4):
            for _ in range(10):
                vecs = rng.normal(size=(m, 2 * m))
                got = eval_omega_complex(Frame(m, vecs))
                Z = real_to_complex(vecs).T
                assert got == pytest.approx(laplace_det(Z), abs=1e-12)

    def test_hadamard_bound(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            m = int(rng.integers(2, 5))
            vecs = rng.normal(size=(m, 2 * m))
            val = abs(eval_omega_complex(Frame(m, vecs)))
            bound = np.prod(np.linalg.norm(vecs, axis=1))
            assert val <= bound * (1 + 1e-12)

    def test_calibration_equality_on_rotated_planes(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = int(rng.integers(2, 5))
            thetas = rng.uniform(-np.pi, np.pi, size=m)
            real_vecs = rng.normal(size=(m, m))
            vecs = np.array([
                complex_to_real(np.exp(1j * thetas) * row)
                for row in real_vecs])
            frame = Frame(m, vecs)
            vol = gram_volume(vecs)
            Om = eval_omega_complex(frame)
            assert abs(Om) == pytest.approx(vol, abs=1e-10 * (1 + vol))
            # phase: Re Omega = cos(sum theta) times the signed volume
            signed = np.linalg.det(real_vecs)
            assert Om.real == pytest.approx(
                np.cos(thetas.sum()) * signed, abs=1e-10 * (1 + abs(signed)))


def scalar_forms(Z):
    """omega, Gram determinant and |Im Omega| of one complex frame (k, m)
    from the scalar forms, on its unit rows."""
    k, m = Z.shape
    V = complex_to_real(Z)
    U = V / np.linalg.norm(V, axis=1)[:, None]
    omega = max(abs(eval_omega(u, w, m)) for u in U for w in U)
    if k < m:
        return omega, None, None
    return (omega, gram_volume(U) ** 2,
            abs(eval_omega_complex(Frame(m, U)).imag))


class TestFrameForms:
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_square_frames_match_scalar_forms(self, m):
        rng = np.random.default_rng(20 + m)
        Z = rng.normal(size=(60, m, m)) + 1j * rng.normal(size=(60, m, m))
        Z[20:40] = (rng.normal(size=(20, m, m))
                    * np.exp(1j * rng.uniform(-1, 1, size=(20, 1, m))))
        got = np.column_stack(frame_forms(Z))
        want = np.array([scalar_forms(z) for z in Z])
        assert np.max(np.abs(got - want)) <= 1e-14
        # rotated real frames are Lagrangian
        assert got[20:40, 0].max() <= 1e-15

    @pytest.mark.parametrize("k,m", [(1, 2), (2, 3), (3, 4), (4, 6)])
    def test_tangent_frames_omega_only(self, k, m):
        rng = np.random.default_rng(30 + m)
        shape = (7, 40, k, m)
        Z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        omega, gram, im = frame_forms(Z)
        assert omega.shape == (7, 40) and gram is None and im is None
        want = [scalar_forms(z)[0] for z in Z.reshape(-1, k, m)]
        assert np.max(np.abs(omega.ravel() - want)) <= 1e-14

    def test_scale_free(self):
        rng = np.random.default_rng(41)
        Z = rng.normal(size=(50, 3, 3)) + 1j * rng.normal(size=(50, 3, 3))
        ref = np.column_stack(frame_forms(Z))
        # powers of two scale exactly, so each row may carry its own
        scales = 2.0 ** rng.integers(-400, 400, size=(50, 3, 1))
        assert np.array_equal(np.column_stack(frame_forms(Z * scales)), ref)
        for s in (1e-100, 1e100):
            got = np.column_stack(frame_forms(Z * s))
            assert np.max(np.abs(got - ref)) <= 1e-14, s

    def test_zero_row(self):
        Z = np.eye(3, dtype=complex)
        Z[1] = 0.0
        omega, gram, im = frame_forms(Z)
        assert (omega, gram, im) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("k,m", [(2, 3), (4, 5), (3, 3), (6, 6), (7, 8)])
    def test_frame_alone_equals_its_row(self, k, m):
        # every frame sums its components in one order whatever the stack,
        # one frame alone included
        rng = np.random.default_rng(46 + m)
        Z = rng.normal(size=(40, k, m)) + 1j * rng.normal(size=(40, k, m))
        stacked = [f for f in frame_forms(Z) if f is not None]
        for i in range(40):
            alone = [f for f in frame_forms(Z[i]) if f is not None]
            assert [f[i] for f in stacked] == alone

    def test_strided_views(self):
        rng = np.random.default_rng(45)
        W = rng.normal(size=(10, 3, 6)) + 1j * rng.normal(size=(10, 3, 6))
        for Z in (W[..., ::2], W[:, :, :3].transpose(0, 2, 1), W[::2, :2]):
            got = frame_forms(Z)
            for g, w in zip(got, frame_forms(np.array(Z))):
                assert (g is None and w is None) or g.tobytes() == w.tobytes()

    def test_empty_stack(self):
        for shape in ((0, 3, 3), (4, 0, 2, 3)):
            got = frame_forms(np.zeros(shape, dtype=complex))
            assert got[0].shape == shape[:-2]
            assert all(g is None or g.shape == shape[:-2] for g in got)

    def test_nan_entry_gives_nan(self):
        rng = np.random.default_rng(43)
        Z = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        Z[2, 1, 0] = np.nan
        with np.errstate(invalid="ignore"):
            got = np.column_stack(frame_forms(Z))
            tangent = frame_forms(Z[:, :2])[0]
        assert np.isnan(got[2]).all() and np.isnan(tangent[2])
        assert not np.isnan(got[[0, 1, 3]]).any()

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_hermitian_oracle(self, m):
        # the elementwise pair products against one Hermitian product per
        # frame, on stacks of every row count k <= m
        rng = np.random.default_rng(50 + m)
        for k in range(1, m + 1):
            shape = (3, 17, k, m)
            Z = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
                * 10.0 ** rng.uniform(-3, 3, size=shape[:-1] + (1,))
            got, want = frame_forms(Z), frame_forms_hermitian(Z)
            assert [g is None for g in got] == [w is None for w in want]
            for g, w in zip(got, want):
                if w is not None:
                    assert g.shape == shape[:-2]
                    assert np.max(np.abs(g - w)) <= 1e-15, (k, m)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    def test_any_finite_scale(self, scale):
        # each row is prescaled by a power of two, so frames far beyond
        # where their squared entries under- or overflow give the values
        # of the frame at scale 1 (the Hermitian product gave 0 or NaN)
        rng = np.random.default_rng(44)
        Z = rng.normal(size=(30, 3, 3)) + 1j * rng.normal(size=(30, 3, 3))
        ref = np.column_stack(frame_forms(Z))
        assert np.max(np.abs(np.column_stack(frame_forms(Z * scale))
                             - ref)) <= 1e-15
        # rows of one frame at opposite extremes
        mixed = Z * np.array([scale, 1.0, 1.0 / scale])[:, None]
        assert np.max(np.abs(np.column_stack(frame_forms(mixed))
                             - ref)) <= 1e-15
        tangent = frame_forms(Z[:, :2])[0]
        assert np.max(np.abs(frame_forms(Z[:, :2] * scale)[0]
                             - tangent)) <= 1e-15


def contract(chi, n, k):
    """Every contraction chi . dx_J of a k-vector with a basis (k-1)-form,
    one row per J in k_subsets(n, k-1): the image generators L(dx_J) of
    evolution data whose chi holds these coefficients in its x_1 column."""
    cols = np.zeros((comb(n, k), n + 1))
    cols[:, 0] = chi
    data = EvolutionData(n, k + 1, cols, None, None)
    return np.array(symmetry_algebra(data).image_generators)[:, :, 0]


class TestContract:
    def test_sign_convention_single_entry(self):
        out = contract(basis(3, (0, 1)), 3, 2)[0]
        oracle = perm_expand_contract((0, 1), (0,), 3)
        assert np.array_equal(out, oracle)
        assert np.count_nonzero(out) == 1

    def test_disjoint_indices_vanish(self):
        out = contract(basis(3, (0, 1)), 3, 2)[k_subsets(3, 1).index((2,))]
        assert np.all(out == 0.0)

    def test_oracle_random_bases(self):
        # the bytes, so the sign of every zero too
        for n, k in ((3, 2), (4, 2), (4, 3), (5, 3)):
            for I in k_subsets(n, k):
                got = contract(basis(n, I), n, k)
                for J, row in zip(k_subsets(n, k - 1), got):
                    want = perm_expand_contract(I, J, n)
                    assert row.tobytes() == want.tobytes(), (I, J)

    def test_bilinearity(self):
        rng = np.random.default_rng(13)
        n, k = 4, 3
        for _ in range(20):
            c1 = rng.normal(size=comb(n, k))
            c2 = rng.normal(size=comb(n, k))
            L1 = contract(c1, n, k)
            assert np.allclose(contract(2.0 * c1, n, k), 2.0 * L1, atol=1e-14)
            assert np.allclose(contract(c1 + c2, n, k),
                               L1 + contract(c2, n, k), atol=1e-14)

    def test_degree_mismatch_rejected(self):
        # a 3-vector where data with m = 3 needs 2-vectors
        with pytest.raises(ValidationError):
            EvolutionData(4, 3, np.zeros((comb(4, 3), 5)), None, None)

    def test_insertion_table_matches_oracle(self):
        # (dx_i . e_I)_K = sign[K, i] e_I[rank[K, i]], bit for bit
        for n in range(1, 7):
            for k in range(n):
                rank, sign = insertion_table(n, k)
                for I in k_subsets(n, k + 1):
                    e_I = basis(n, I)
                    for i in I:
                        got = 0.0 + sign[:, i] * e_I[rank[:, i]]
                        want = perm_expand_contract(I, (i,), n)
                        assert got.tobytes() == want.tobytes(), (n, I, i)


class TestBasics:
    def test_wedge_anticommutes(self):
        # e_a ^ e_b = -e_b ^ e_a, and e_a ^ e_a = 0
        rank, sign = insertion_table(4, 1)
        for a in range(4):
            assert sign[a, a] == 0.0
            for b in range(4):
                if a != b:
                    assert rank[b, a] == rank[a, b]
                    assert sign[b, a] == -sign[a, b]

    def test_wedge_against_quadric_expansion(self):
        # a 1-form contracted into the top element gives the signed hatted
        # expansion; every insertion lands on the top
        n = 4
        rank, sign = insertion_table(n, n - 1)
        xi = np.array([0.3, -1.2, 0.8, 2.0])
        expected = np.zeros(n)
        for j in range(n):
            rest = tuple(i for i in range(n) if i != j)
            expected += (-1.0) ** j * xi[j] * basis(n, rest)
        assert np.all(rank == 0)
        assert np.allclose(sign @ xi, expected, atol=1e-15)

    def test_pushforward_matches_minor_oracle(self):
        rng = np.random.default_rng(14)
        n, N, k = 3, 4, 2
        B = rng.normal(size=(N, n))
        coeffs = rng.normal(size=comb(n, k))
        pushed = pushforward(coeffs, B, k)
        for t_idx, T in enumerate(k_subsets(N, k)):
            acc = 0.0
            for s_idx, S in enumerate(k_subsets(n, k)):
                acc += coeffs[s_idx] * np.linalg.det(
                    B[np.ix_(list(T), list(S))])
            assert pushed[t_idx] == pytest.approx(acc, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ComplexPoint(2, np.array([1.0, 2.0, np.inf, 0.0]))
        with pytest.raises(ValidationError):
            Frame(2, np.zeros((3, 4)))

    def test_complex_real_round_trip(self):
        rng = np.random.default_rng(15)
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert np.allclose(real_to_complex(complex_to_real(z)), z)
        p = ComplexPoint.from_complex(z)
        assert np.allclose(p.to_complex(), z)
