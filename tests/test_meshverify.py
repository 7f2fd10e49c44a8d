"""Mesh generation, residual verification and exporters."""

import filecmp
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oracles import (Affine3ClosedFamily, Affine3ClosedForm, Frame,
                     RotatedPlaneFamily, eval_omega, eval_omega_complex,
                     gram_volume)
from slevolve import ValidationError, affine, centred, meshverify
from slevolve.multilinear import complex_to_real
from slevolve.meshverify import (AffineFamily, CentredFamily,
                                 ConeOverLinkFamily, Mesh, QuadricChart,
                                 _report, _residuals, export, import_json,
                                 mesh_affine, mesh_centred, mesh_link,
                                 mesh_residual_report, rebuild_family,
                                 sl_residuals)

P122 = centred.CentredParams(3, 1, (1.0, 2.0, 2.0), 1.0, c=1.0)


class TestChart:
    @pytest.mark.parametrize("m,a,c", [
        (3, 1, 1.0), (3, 1, -1.0), (3, 1, 0.0), (3, 2, 1.0),
        (4, 2, 1.0), (4, 2, -1.0), (4, 2, 0.0), (2, 1, 1.0), (4, 4, 1.0),
        (5, 2, 0.0)])
    def test_points_on_quadric_with_tangent_jacobian(self, m, a, c):
        chart = QuadricChart(m, a, c)
        qs = chart.sample_coords(40, seed=71)
        signs = np.ones(m)
        signs[a:] = -1.0
        for q in qs:
            x, jac = chart.point_and_jacobian(q)
            assert signs @ (x ** 2) == pytest.approx(c, abs=1e-12)
            # rows are tangent: d/dq of the constraint vanishes
            assert np.abs(jac @ (signs * x) * 2).max() <= 1e-10
            # and independent
            sv = np.linalg.svd(jac, compute_uv=False)
            assert sv[-1] > 1e-8

    def test_jacobian_rows_are_coordinate_derivatives(self):
        # every chart row, zeta rows included, against central differences
        h = 1e-7
        for m, a, c in [(3, 1, 1.0), (3, 2, -1.0), (4, 4, 1.0), (5, 2, 0.0),
                        (5, 1, -1.0), (2, 1, -1.0), (6, 3, 1.0)]:
            chart = QuadricChart(m, a, c)
            qs = chart.sample_coords(20, seed=72)
            _, jac = chart.point_and_jacobian(qs)
            for j in range(m - 1):
                up, dn = qs.copy(), qs.copy()
                up[:, j] += h
                dn[:, j] -= h
                fd = (chart.point_and_jacobian(up)[0]
                      - chart.point_and_jacobian(dn)[0]) / (2 * h)
                assert np.abs(fd - jac[:, j]).max() <= 1e-7


def reference_residuals(frame):
    """One frame's residuals from the scalar multilinear forms: the largest
    |omega| over pairs of unit vectors and |Im Omega| per Gram volume; NaN
    for a degenerate frame."""
    m = len(frame)
    V = complex_to_real(frame)
    norms = np.linalg.norm(V, axis=1)
    if np.any(norms < 1e-300):
        return np.nan, np.nan
    U = V / norms[:, None]
    vol = gram_volume(U)
    if vol ** 2 < 1e-14:
        return np.nan, np.nan
    omega = max(abs(eval_omega(u, v, m)) for u in U for v in U)
    return omega, abs(eval_omega_complex(Frame(m, U)).imag) / vol


class TestFrameKernel:
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_matches_scalar_references(self, m):
        rng = np.random.default_rng(80 + m)
        F = rng.normal(size=(300, m, m)) + 1j * rng.normal(size=(300, m, m))
        F[0, 1] = 0.0                          # a vanishing vector
        F[1, 1] = 3.0 * F[1, 0]                # parallel vectors
        F[2, 1] = F[2, 0] + 1e-9 * F[2, 1]     # Gram volume ~1e-9
        F[3] *= 1e-100                         # tiny but regular
        # special Lagrangian: a rotated real plane, phases summing to pi
        thetas = rng.uniform(0.0, 1.0, size=m)
        thetas[-1] = np.pi - thetas[:-1].sum()
        F[4:100] = rng.normal(size=(96, m, m)) * np.exp(1j * thetas)
        got = np.column_stack(meshverify._residuals(F))
        want = np.array([reference_residuals(f) for f in F])
        assert np.isnan(got[:3]).all()
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmax(np.abs(got - want)) <= 1e-14
        assert got[4:100].max() <= 1e-13


class TestResiduals:
    def test_sl_plane(self):
        rep = sl_residuals(RotatedPlaneFamily(np.zeros(4)), 300, 1)
        assert rep.max_residual() <= 1e-12

    def test_rotated_plane_detector(self):
        thetas = np.array([0.05, 0.1, np.pi / 4 - 0.15])
        rep = sl_residuals(RotatedPlaneFamily(thetas), 300, 2)
        assert rep.max_omega_residual <= 1e-12
        assert rep.max_imOmega_residual == pytest.approx(
            np.sin(np.pi / 4), abs=1e-10)

    def test_centred_case_d(self):
        rep = sl_residuals(CentredFamily(P122), 1000, 3)
        assert rep.max_residual() <= 1e-6
        assert rep.skipped == 0

    def test_case_c_closed_form(self):
        params = centred.CentredParams(3, 1, (1.0, 2.0, 2.0), 2.0, c=1.0)
        rep = sl_residuals(CentredFamily(params), 500, 4)
        assert rep.max_residual() <= 1e-6

    def test_affine_family(self):
        params = affine.AffineParams(4, 2, centred.symmetric_alphas(3, 2),
                                     0.4)
        rep = sl_residuals(AffineFamily(params, t_span=4.0), 500, 5)
        assert rep.max_residual() <= 1e-6

    def test_affine_family_backward(self):
        # a path integrated backward escapes at t = -1.77: the family kept
        # min(-50, -1.77) = -50, and sampling a negative span died in
        # rng.uniform; now it keeps the end it reached and samples [t, 0]
        fam = AffineFamily(affine.AffineParams(4, 3, (1, 2, 3), 0.4),
                           t_span=-50.0)
        assert fam.path.escaped
        assert fam.t_span == fam.path.t_span[1]
        assert -2.0 < fam.t_span < -1.5
        t = fam.sample_params(500, 5)[:, 0]
        assert np.all((fam.t_span <= t) & (t <= 0.0))
        assert sl_residuals(fam, 500, 5).max_residual() <= 1e-12

    def test_cone_family_and_ray_invariance(self):
        fam = ConeOverLinkFamily((1.2, 2.0, 3.0), 0.4)
        rep = sl_residuals(fam, 500, 6)
        assert rep.max_residual() <= 1e-6
        # per-sample residuals are invariant under scaling the ray coordinate
        pvs = fam.sample_params(50, 7)
        f1 = meshverify._residuals(fam.frames(pvs))
        pvs2 = pvs.copy()
        pvs2[:, 2] *= 2.0
        f2 = meshverify._residuals(fam.frames(pvs2))
        assert np.abs(f1[0] - f2[0]).max() <= 1e-10
        assert np.abs(f1[1] - f2[1]).max() <= 1e-10

    def test_closed_affine_forms(self):
        for variant in ("a1", "a2"):
            form = Affine3ClosedForm(variant, 1.0, 0.4 + 0.2j, 0.0)
            rep = sl_residuals(Affine3ClosedFamily(form), 500, 8)
            assert rep.max_residual() <= 1e-8

    def test_every_case_in_scope(self):
        al = (1.0, 2.0, 2.0)
        al3 = centred.symmetric_alphas(3, 2)
        A3 = float(np.sqrt(np.prod(al3)))
        families = [
            CentredFamily(centred.CentredParams(3, 1, al, 0.0, c=1.0),
                          t_span=1.0),                             # case a
            CentredFamily(centred.CentredParams(3, 3, (1.0, 1.0, 1.0),
                                                0.3, c=1.0),
                          t_span=0.6),                             # case b
            CentredFamily(centred.CentredParams(3, 1, al, 2.0,
                                                c=-1.0)),          # case c
            CentredFamily(centred.CentredParams(3, 1, al, 1.0,
                                                c=0.0)),           # case d cone
            AffineFamily(affine.AffineParams(4, 2, al3, 0.0),
                         t_span=1.0),                              # affine a
            AffineFamily(affine.AffineParams(4, 3, (1.0, 1.0, 1.0), 0.4),
                         t_span=1.0),                              # affine b
            AffineFamily(affine.AffineParams(4, 2, al3, A3),
                         t_span=2.0),                              # affine c
            AffineFamily(affine.AffineParams(4, 2, al3, 0.4),
                         t_span=3.0),                              # affine d
        ]
        for fam in families:
            rep = sl_residuals(fam, 1000, seed=10)
            assert rep.max_residual() <= 1e-6

    def test_fd_tangents_second_order(self):
        form = Affine3ClosedForm("a1", 1.0, 0.4 + 0.2j, 0.0)
        fam = Affine3ClosedFamily(form)
        P = fam.sample_params(60, 9)
        r1, r2 = (_report(*_residuals(fam.fd_frames(P, probe)))
                  for probe in (2e-4, 1e-4))
        ratio = r1.max_imOmega_residual / r2.max_imOmega_residual
        assert 3.0 < ratio < 5.0

    def test_degenerate_frames_skipped(self):
        class Degenerate:
            m = 2

            def sample_params(self, count, seed):
                return np.zeros((count, 2))

            def frames(self, P):
                return np.zeros((len(P), 2, 2), complex)

        with pytest.raises(ValidationError):
            sl_residuals(Degenerate(), 10, 0)


class TestMeshCentred:
    def test_planar_case_a(self):
        thetas = np.array([0.8, 1.2, np.pi - 2.0])
        w0 = np.sqrt([1.2, 1.8, 1.8]) * np.exp(1j * thetas)
        params = centred.CentredParams(3, 1, (1.0, 2.0, 2.0), 0.0, c=1.0)
        mesh = mesh_centred(params, 1.0, (0.0, 0.4), resolution=(7, 12),
                            w0=w0)
        Z = mesh.vertices[:, 0::2] + 1j * mesh.vertices[:, 1::2]
        # all vertices in the rotated real plane
        assert np.abs((Z * np.exp(-1j * thetas)).imag).max() <= 1e-10

    def test_cone_ray_scaling(self):
        params = centred.CentredParams(3, 1, (1.0, 2.0, 2.0), 1.0, c=0.0)
        mesh = mesh_centred(params, 0.0, (0.0, 1.0), resolution=(5, 8))
        half = len(mesh.vertices) // 2
        assert np.abs(2 * mesh.vertices[:half]
                      - mesh.vertices[half:]).max() <= 1e-12

    def test_periodic_solution_mesh_closes(self):
        sols = centred.periodic_search(centred.symmetric_alphas(3, 1), 1,
                                       b_max=8, tol=1e-9)
        sol = next(s for s in sols if s.denom == 7)
        T = centred.betas(sol.params).period_T
        span = sol.denom * T
        mesh = mesh_centred(sol.params, 0.0, (0.0, span), resolution=(9, 12))
        first = mesh.vertices[np.isclose(mesh.params[:, 0], 0.0)]
        last = mesh.vertices[np.isclose(mesh.params[:, 0], span)]
        assert np.abs(first - last).max() <= 1e-6

    def test_mesh_residuals_attached(self):
        mesh = mesh_centred(P122, 1.0, (0.0, 2.0), resolution=(9, 16))
        rep = mesh_residual_report(mesh)
        assert rep.max_residual() <= 1e-6
        assert rep.skipped == 0

    @pytest.mark.parametrize("m,a,c", [(3, 2, 1.0), (4, 2, -1.0), (2, 1, 1.0),
                                       (3, 3, 1.0), (3, 1, 0.0)])
    def test_other_signatures(self, m, a, c):
        # analytic profile tangents: rounding level, not a difference step
        if a == m:
            params = centred.CentredParams(m, a, (1.0,) * m, 0.2, c=c)
            span = 0.4
        else:
            alphas, _ = centred.normalize_lambda([1.0 + 0.1 * j
                                                  for j in range(m)], a)
            params = centred.CentredParams(m, a, alphas, 0.3, c=c)
            span = 1.0
        mesh = mesh_centred(params, c, (0.0, span), resolution=(5, 9))
        rep = mesh_residual_report(mesh)
        assert rep.max_residual() <= 1e-14
        assert rep.skipped == 0

    def test_cone_vertex_skipped_without_warning(self):
        # the m = 2 cone x = +-y: the odd profile grid puts one row of each
        # sheet on the vertex, where the frame's t row w'(t) x = 0 is
        # degenerate; the chart must not divide 0 by 0 on the way there
        params = centred.CentredParams(2, 1, (1.0, 1.0), 0.5, c=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mesh = mesh_centred(params, 0.0, (0.0, 2.0), resolution=(5, 9))
            rep = mesh_residual_report(mesh)
        assert rep.max_residual() <= 1e-14
        assert (rep.sample_count, rep.skipped) == (80, 10)

    @pytest.mark.parametrize("m,a,c", [(3, 1, 1.0), (3, 2, 1.0), (4, 2, -1.0),
                                       (2, 1, 1.0), (2, 1, -1.0), (3, 3, 1.0),
                                       (4, 2, 0.0)])
    def test_mesh_frames_differentiate_points(self, m, a, c):
        # rows 0 and 1 of a mesh frame are d/dt and d/dq of its vertices
        if a == m:
            params = centred.CentredParams(m, a, (1.0,) * m, 0.2, c=c)
        else:
            alphas, _ = centred.normalize_lambda([1.0 + 0.1 * j
                                                  for j in range(m)], a)
            params = centred.CentredParams(m, a, alphas, 0.3, c=c)
        mesh = mesh_centred(params, c, (0.0, 0.5), resolution=(4, 7))
        F = mesh.family.frames(mesh.params, mesh.chart)
        h = 1e-6
        for col in (0, 1):
            up, dn = mesh.params.copy(), mesh.params.copy()
            up[:, col] += h
            dn[:, col] -= h
            fd = (mesh.family.points(up, mesh.chart)
                  - mesh.family.points(dn, mesh.chart)) / (2 * h)
            assert np.abs(fd - F[:, col]).max() <= 1e-8

    def test_undeclared_attribute_rejected(self):
        mesh = mesh_centred(P122, 1.0, (0.0, 1.0), resolution=(3, 6))
        with pytest.raises(AttributeError):
            mesh.frame_fn = None

    def test_c_other_than_the_parameters_refused(self):
        # the family is the level params.c; a different c silently won
        with pytest.raises(ValidationError, match="differs"):
            mesh_centred(P122, 0.0, (0.0, 1.0), resolution=(3, 6))


class TestMeshAffine:
    def test_matches_explicit_point_set(self):
        # build the closed form from the mesh's own initial data
        params = affine.AffineParams(3, 2, (1.0, 1.3), 0.5)
        w0, b0 = affine.affine_initial(params)
        C = 0.5 * (w0[0] + np.conj(w0[1]))
        D = 0.5 * (w0[0] - np.conj(w0[1]))
        E = b0 - 0.5 * abs(C) ** 2 - 0.5 * abs(D) ** 2
        form = Affine3ClosedForm("a2", C, D, E)
        mesh = mesh_affine(params, (0.0, 1.2), resolution=(6, 10),
                           profile_radii=(0.75,))
        Z = mesh.vertices[:, 0::2] + 1j * mesh.vertices[:, 1::2]
        for i in range(len(Z)):
            t, q, _ = mesh.params[i]
            x1, x2 = 0.75 * np.cos(q), 0.75 * np.sin(q)
            want = form.point(x1, x2, t)
            assert np.abs(Z[i] - want).max() <= 1e-8

    def test_planar_when_A_zero(self):
        params = affine.AffineParams(3, 2, (1.0, 1.3), 0.0)
        mesh = mesh_affine(params, (0.0, 1.0), resolution=(5, 8))
        Z = mesh.vertices[:, 0::2] + 1j * mesh.vertices[:, 1::2]
        assert np.abs(Z.imag).max() <= 1e-10

    def test_translation_between_periods(self):
        params = affine.AffineParams(4, 2, centred.symmetric_alphas(3, 2),
                                     0.4)
        res = centred.betas(params.reduced())
        T = res.period_T
        mesh = mesh_affine(params, (0.0, T), resolution=(7, 10))
        first = mesh.vertices[np.isclose(mesh.params[:, 0], 0.0)]
        last = mesh.vertices[np.isclose(mesh.params[:, 0], T)]
        Zf = first[:, 0::2] + 1j * first[:, 1::2]
        Zl = last[:, 0::2] + 1j * last[:, 1::2]
        rot = np.exp(1j * np.asarray(res.betas))
        pred = np.empty_like(Zl)
        pred[:, :-1] = Zf[:, :-1] * rot[None, :]
        pred[:, -1] = Zf[:, -1] - 1j * params.A * T
        assert np.abs(Zl - pred).max() <= 1e-8

    def test_mesh_residuals(self):
        params = affine.AffineParams(4, 2, centred.symmetric_alphas(3, 2),
                                     0.4)
        mesh = mesh_affine(params, (0.0, 2.0), resolution=(6, 9))
        assert mesh_residual_report(mesh).max_residual() <= 1e-6

    def test_family_samples_as_a_bare_family(self):
        # a mesh's family is the family itself: sl_residuals draws the same
        # samples from both, over the one chart radius
        params = affine.AffineParams(4, 2, (0.8, 1.1, 1.3), 0.5)
        mesh = mesh_affine(params, (0.0, 2.0), resolution=(6, 9))
        bare = AffineFamily(params, t_span=2.0)
        assert mesh.family.chart.radius == bare.chart.radius
        got = sl_residuals(mesh.family, 1000)
        assert got.to_dict() == sl_residuals(bare, 1000).to_dict()
        assert got.max_residual() <= 1e-12


def edge_consistency(faces):
    """Every shared edge must be traversed in opposite directions."""
    seen = {}
    for f in faces:
        for k in range(4):
            e = (int(f[k]), int(f[(k + 1) % 4]))
            seen[e] = seen.get(e, 0) + 1
    for (u, v), cnt in seen.items():
        if cnt > 1:
            return False
        if seen.get((v, u), 0) > 1:
            return False
    return True


def signed_volume(vertices, faces):
    total = 0.0
    for f in faces:
        pts = vertices[list(f)]
        centroid = pts.mean(axis=0)
        for k in range(4):
            a, b = pts[k], pts[(k + 1) % 4]
            total += np.dot(centroid, np.cross(a, b)) / 6.0
    return total


class TestExport:
    def test_unit_cube_round_trip(self, tmp_path):
        # toy closed quad mesh in R^4 (m = 2)
        corners = np.array([[x, y, z] for x in (0, 1) for y in (0, 1)
                            for z in (0, 1)], float)
        verts = np.column_stack([corners, np.zeros(8)])
        faces = np.array([
            [0, 1, 3, 2], [4, 6, 7, 5], [0, 4, 5, 1],
            [2, 3, 7, 6], [0, 2, 6, 4], [1, 5, 7, 3]])
        mesh = Mesh(2, verts, faces, np.zeros((8, 1)), ("t",))
        p1 = tmp_path / "cube.json"
        p2 = tmp_path / "cube2.json"
        export(mesh, "json", p1)
        back = import_json(p1)
        export(back, "json", p2)
        assert filecmp.cmp(p1, p2, shallow=False)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.faces, mesh.faces)

    def test_obj_orientation_of_link(self, tmp_path):
        mesh = mesh_link((1.2, 2.0, 3.0), 0.4, resolution=(28, 28))
        export(mesh, "obj", tmp_path / "link.obj", projection="pca")
        text = (tmp_path / "link.obj").read_text()
        assert text.startswith("v ")
        assert edge_consistency(mesh.faces)
        P = meshverify._project_vertices(mesh, "pca")
        assert abs(signed_volume(P, mesh.faces)) > 1e-3

    def test_csv_header_contract(self, tmp_path):
        mesh = mesh_centred(P122, 1.0, (0.0, 1.0), resolution=(3, 6))
        mesh = meshverify.attach_residuals(mesh)
        path = tmp_path / "m.csv"
        export(mesh, "csv", path)
        header = path.read_text().splitlines()[0]
        assert header == ("t,param1,param2,x1,y1,x2,y2,x3,y3,"
                          "res_omega,res_imomega")

    def test_ply_structure(self, tmp_path):
        mesh = mesh_link((1.2, 2.0, 3.0), 0.4, resolution=(6, 6))
        path = tmp_path / "m.ply"
        export(mesh, "ply", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "ply" and lines[1] == "format ascii 1.0"
        assert f"element vertex {len(mesh.vertices)}" in lines

    def test_projection_required_for_high_m(self, tmp_path):
        params = affine.AffineParams(4, 2, centred.symmetric_alphas(3, 2),
                                     0.4)
        mesh = mesh_affine(params, (0.0, 1.0), resolution=(3, 6))
        with pytest.raises(ValidationError):
            export(mesh, "obj", tmp_path / "m.obj")
        export(mesh, "obj", tmp_path / "m.obj", projection="pca")
        export(mesh, "obj", tmp_path / "m2.obj", projection=(0, 1, 6))

    def test_byte_identical_exports(self, tmp_path):
        mesh = mesh_centred(P122, 1.0, (0.0, 1.0), resolution=(4, 6))
        for fmt in ("json", "csv"):
            a = tmp_path / f"a.{fmt}"
            b = tmp_path / f"b.{fmt}"
            export(mesh, fmt, a)
            export(mesh, fmt, b)
            assert filecmp.cmp(a, b, shallow=False)

    def test_rebuild_from_recipe(self, tmp_path):
        mesh = mesh_centred(P122, 1.0, (0.0, 1.0), resolution=(4, 6))
        export(mesh, "json", tmp_path / "m.json")
        back = import_json(tmp_path / "m.json")
        rebuild_family(back)
        assert mesh_residual_report(back).max_residual() <= 1e-6

    def test_rebuild_keeps_custom_initial_state(self, tmp_path):
        # a mesh from a non-default start must verify against its own
        # trajectory, not the canonical one
        thetas = np.array([0.4, 0.3, 0.8])
        w0 = np.sqrt([1.3, 1.7, 1.9]) * np.exp(1j * thetas)
        params = centred.CentredParams(3, 1, (1.0, 2.0, 2.0), 0.0, c=1.0)
        mesh = mesh_centred(params, 1.0, (0.0, 1.2), resolution=(5, 8),
                            w0=w0)
        export(mesh, "json", tmp_path / "m.json")
        back = import_json(tmp_path / "m.json")
        rebuild_family(back)
        assert mesh_residual_report(back).max_residual() <= 1e-6
        r = back.recipe
        again = mesh_centred(params, 1.0, (0.0, r["t_end"]),
                             resolution=tuple(r["resolution"]),
                             w0=np.asarray(r["w0_re"])
                             + 1j * np.asarray(r["w0_im"]))
        assert np.allclose(again.vertices, mesh.vertices, atol=1e-12)

    def test_unknown_format_rejected(self, tmp_path):
        mesh = mesh_centred(P122, 1.0, (0.0, 1.0), resolution=(3, 6))
        with pytest.raises(ValidationError):
            export(mesh, "stl", tmp_path / "m.stl")

    @pytest.mark.parametrize("key", ["res_omega", "res_imomega"])
    def test_stored_residuals_match_vertices(self, tmp_path, key):
        # 3 residuals for 16 vertices, or a (16, 2) array, were imported and
        # verified, and the csv export then failed inside numpy
        mesh = meshverify.attach_residuals(
            mesh_centred(P122, 1.0, (0.0, 1.0), resolution=(4, 4)))
        export(mesh, "json", tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        res = doc[key]
        for bad in (res[:3], [[r, r] for r in res]):
            doc[key] = bad
            (tmp_path / "bad.json").write_text(json.dumps(doc))
            with pytest.raises(ValidationError, match=key):
                import_json(tmp_path / "bad.json")
        # NaN, the mark of a degenerate frame, still imports
        doc[key] = [float("nan")] + res[1:]
        (tmp_path / "nan.json").write_text(json.dumps(doc))
        assert np.isnan(getattr(import_json(tmp_path / "nan.json"), key)[0])


T_LINK = centred.betas(centred.CentredParams(3, 1, (1.2, 2.0, 3.0), 0.4,
                                             c=0.0)).period_T
AFF4 = affine.AffineParams(4, 2, centred.symmetric_alphas(3, 2), 0.4)


def parent_recipe(mesh):
    """The recipe keys an earlier writer stored: always the path's start,
    the affine t_end cut at an escape, and only (alphas, A) for a link."""
    r, path = mesh.recipe, mesh.family.path
    if r["kind"] == "link":
        return {"kind": "link", "alphas": r["alphas"], "A": r["A"]}
    old = {k: r[k] for k in ("kind", "m", "a", "alphas", "A", "resolution")}
    start = np.asarray(path.w(0.0), complex)
    old |= {"t_end": mesh.family.t_span, "w0_re": start.real.tolist(),
            "w0_im": start.imag.tolist()}
    if r["kind"] == "centred":
        old |= {"c": r["c"], "radius": 2.0, "n_sheets": mesh.chart.n_sheets}
    else:
        b = complex(path.beta(0.0))
        old |= {"profile_radii": r["profile_radii"], "beta0": [b.real, b.imag]}
    return old


class TestRecipe:
    @pytest.mark.parametrize("build", [
        # case c, A = A_max: the closed-form path, not an integration
        lambda: mesh_centred(centred.CentredParams(3, 1, (1.0, 2.0, 2.0), 2.0,
                                                   c=1.0), 1.0, (0.0, 2.0),
                             resolution=(9, 16)),
        lambda: mesh_link((1.2, 2.0, 3.0), 0.4, resolution=(9, 12),
                          t_span=0.5 * T_LINK),
        lambda: mesh_link((1.2, 2.0, 3.0), 0.4, resolution=(9, 12),
                          t_span=2.0 * T_LINK),
        # escapes before t = 50: meshed to 0.98 of the escape time
        lambda: mesh_affine(affine.AffineParams(4, 3, (1.0, 2.0, 3.0), 0.4),
                            (0.0, 50.0), resolution=(9, 16)),
        lambda: mesh_affine(affine.AffineParams(4, 2, AFF4.alphas, 0.4,
                                                Cconst=0.3 - 0.2j),
                            (0.0, 1.0), resolution=(5, 8)),
    ], ids=["centred-case-c", "link-half-period", "link-two-periods",
            "affine-escaping", "affine-Cconst"])
    def test_rebuilt_mesh_is_the_built_mesh(self, tmp_path, build):
        mesh = build()
        export(mesh, "json", tmp_path / "m.json")
        back = import_json(tmp_path / "m.json")
        rebuild_family(back)
        assert mesh_residual_report(back).max_vertex_offset == 0.0
        if back.recipe["kind"] == "affine" and back.family.path.escaped:
            # the recipe keeps the requested horizon, not the cut one
            assert back.recipe["t_end"] == 50.0
            escape = back.family.path.t_span[1]
            assert back.params[:, 0].max() == 0.98 * escape < 50.0

    @pytest.mark.parametrize("build", [
        lambda: mesh_centred(P122, 1.0, (0.0, 1.0), resolution=(5, 8)),
        lambda: mesh_centred(centred.CentredParams(3, 1, (1.0, 2.0, 2.0), 1.0,
                                                   c=0.0), 0.0, (0.0, 1.0),
                             resolution=(5, 8)),
        lambda: mesh_affine(AFF4, (0.0, 2.0), resolution=(5, 8)),
        lambda: mesh_link((1.2, 2.0, 3.0), 0.4, resolution=(8, 8)),
    ], ids=["centred", "cone", "affine", "link"])
    def test_earlier_recipes_still_verify(self, build):
        mesh = build()
        old = replace(mesh, recipe=json.loads(json.dumps(parent_recipe(mesh))),
                      family=None, chart=None)
        rebuild_family(old)
        report = mesh_residual_report(old)
        assert report.max_vertex_offset <= 1e-12
        assert report.max_residual() <= 1e-6

    @pytest.mark.parametrize("resolution", [
        (33,), (-3, 16), (0, 16), (9, 0), (9, 16, 4), (9.5, 16), ("9", "a")])
    def test_malformed_resolution_rejected(self, resolution):
        for build in (
                lambda: mesh_centred(P122, 1.0, (0.0, 1.0), resolution),
                lambda: mesh_affine(AFF4, (0.0, 1.0), resolution),
                lambda: mesh_link((1.2, 2.0, 3.0), 0.4, resolution)):
            with pytest.raises(ValidationError, match="resolution"):
                build()

    def test_report_dict_names_offset_for_meshes_only(self):
        mesh = mesh_centred(P122, 1.0, (0.0, 1.0), resolution=(3, 6))
        keys = ["max_omega_residual", "mean_omega_residual",
                "max_imOmega_residual", "mean_imOmega_residual",
                "normalization", "sample_count", "skipped"]
        assert list(sl_residuals(mesh.family, 20).to_dict()) == keys
        report = mesh_residual_report(mesh).to_dict()
        assert list(report) == keys + ["max_vertex_offset"]
