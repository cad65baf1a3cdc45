import warnings
from dataclasses import astuple

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spheriq.conics import CylinderConic, locate, sample_loop
from spheriq.errors import AtPole, DegenerateProjection, IOFailure, MissingParams
from spheriq.momentum import QuadricMomentum
from spheriq.projection import (
    CyclideCoeffs,
    Mesh,
    cyclide_coeffs,
    cyclide_residual,
    euler_characteristic,
    mesh_from_surface,
    spiric_coeffs,
    spiric_residual,
    stereographic,
    write_obj,
)
from spheriq.sphere import WRITE_CHUNK_ROWS
from spheriq.surfaces import (
    SurfaceFamily,
    make_degenerate,
    make_fake_paraboloid,
    make_quadric,
    make_quadric_surface,
)

from helpers import obj_reference, read_obj, traced_peak


def wedge_areas(mesh: Mesh) -> np.ndarray:
    """Triangle areas |a ^ b| / 2 from the pairwise products of the edge
    vectors a, b, for 3- and 4-vector vertices alike."""
    v, f = mesh.vertices, mesh.faces
    a, b = v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]]
    i, j = np.triu_indices(v.shape[1], 1)
    return 0.5 * np.linalg.norm(a[:, i] * b[:, j] - a[:, j] * b[:, i], axis=1)


class TestStereo:
    def test_s2_south_pole(self):
        assert_allclose(stereographic(np.array([0.0, 0.0, -1.0])), [0.0, 0.0], atol=0)

    def test_s2_equator_fixed(self):
        assert_allclose(stereographic(np.array([1.0, 0.0, 0.0])), [1.0, 0.0], atol=0)

    def test_s2_at_pole(self):
        with pytest.raises(AtPole):
            stereographic(np.array([0.0, 0.0, 1.0]))

    def test_s3_points(self):
        assert_allclose(stereographic(np.array([0.0, 0, 0, -1.0])), [0, 0, 0], atol=0)
        assert_allclose(stereographic(np.array([1.0, 0, 0, 0.0])), [1, 0, 0], atol=0)
        with pytest.raises(AtPole):
            stereographic(np.array([0.0, 0, 0, 1.0]))

    def test_s3_equatorial_norm_preserved(self, rng):
        v = rng.normal(size=(20, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        q = np.concatenate([v, np.zeros((20, 1))], axis=1)
        assert_allclose(np.linalg.norm(stereographic(q), axis=1), 1.0, atol=1e-15)

    def test_conformality(self):
        # two great circles crossing at (1, 0, 0): the projected crossing
        # angle equals the spherical angle
        th1, th2 = np.pi / 3, 1.9
        h = 1e-5
        angles = []
        for sign in (1, -1):
            tans = []
            for th in (th1, th2):
                s = np.array([-h, h])
                pts = np.stack(
                    [np.cos(s), np.cos(th) * np.sin(s), np.sin(th) * np.sin(s)], axis=1
                )
                uv = stereographic(pts)
                tans.append((uv[1] - uv[0]) / (2 * h))
            cosang = np.dot(tans[0], tans[1]) / (
                np.linalg.norm(tans[0]) * np.linalg.norm(tans[1])
            )
            angles.append(np.arccos(np.clip(cosang, -1, 1)))
        spherical = abs(th1 - th2)
        assert abs(angles[0] - spherical) < 1e-6


class TestSpiric:
    def test_spot_coefficients(self):
        s = spiric_coeffs(CylinderConic.horizontal(2.0, 0.5))
        assert_allclose(s.a, 1.5, rtol=1e-15)
        assert_allclose(s.b, 5.0 / 3.0, rtol=1e-15)

    def test_projected_conic_residual(self):
        conic = CylinderConic.horizontal(2.0, 0.5)
        coeffs = spiric_coeffs(conic)
        for branch in (1, -1):
            uv = stereographic(sample_loop(conic, n=1000, branch=branch))
            assert np.max(np.abs(spiric_residual(coeffs, uv))) < 1e-9

    def test_type_iii_residual(self):
        conic = CylinderConic.horizontal(0.8, 1.3)
        coeffs = spiric_coeffs(conic)
        assert np.isfinite(coeffs.a) and np.isfinite(coeffs.b)
        uv = stereographic(sample_loop(conic, n=1000))
        assert np.max(np.abs(spiric_residual(coeffs, uv))) < 1e-9

    def test_requires_horizontal(self):
        with pytest.raises(MissingParams):
            spiric_coeffs(CylinderConic.vertical(0.8, 0.5))

    def test_degenerate_projection(self):
        with pytest.raises(DegenerateProjection):
            spiric_coeffs(CylinderConic.horizontal(0.5, 1.0))

    def test_residual_sweep_all_types(self, rng):
        for _ in range(30):
            kind = rng.integers(3)
            if kind == 0:
                conic = CylinderConic.horizontal(rng.uniform(1.1, 3), rng.uniform(0.2, 0.9))
            elif kind == 1:
                d = rng.uniform(0.2, 0.85)
                conic = CylinderConic.horizontal(rng.uniform(d + 0.05, 0.95), d)
            else:
                conic = CylinderConic.horizontal(rng.uniform(0.2, 0.9), rng.uniform(1.1, 3))
            coeffs = spiric_coeffs(conic)
            uv = stereographic(sample_loop(conic, n=333))
            assert np.max(np.abs(spiric_residual(coeffs, uv))) < 1e-9


class TestCyclide:
    def test_spot_coefficients(self):
        spec = make_quadric(locate(-1.0 / 12.0, 5.0 / 3.0))  # C=2, D=0.5
        co = cyclide_coeffs(spec)
        assert_allclose([co.lam, co.L], [-3.0, 10.0], rtol=1e-12)
        assert_allclose([co.q0, co.qx2, co.qz2], [-3.0, -1.0, -16.0], rtol=1e-12)

    def test_projected_mesh_residual(self):
        for mu, c in [(-1 / 12, 5 / 3), (0.7, 1.1), (1.0, -1.0)]:
            spec = make_quadric(locate(mu, c))
            S = make_quadric_surface(QuadricMomentum(mu, c))
            co = cyclide_coeffs(spec)
            mesh = mesh_from_surface(S, ns=100, nt=100, project=True)
            assert len(mesh.vertices) >= 10_000
            assert np.max(np.abs(cyclide_residual(co, mesh.vertices))) < 1e-8

    def test_residual_is_relative_to_its_terms(self):
        # a power-of-two factor scales every term exactly, so the residual
        # must not move by a bit
        S = make_quadric_surface(QuadricMomentum(0.7, 1.1))
        co = cyclide_coeffs(S.quadric)
        pts = mesh_from_surface(S, ns=16, nt=16, project=True).vertices
        res = cyclide_residual(co, pts)
        for factor in (2.0**-60, 2.0**60):
            scaled = CyclideCoeffs(*(factor * v for v in astuple(co)))
            assert np.array_equal(cyclide_residual(scaled, pts), res)

    def test_l_positive(self, rng):
        for _ in range(50):
            if rng.random() < 0.5:
                mu = -rng.uniform(0.05, 2.0)
                c = (1 + np.sqrt(-mu)) ** 2 + rng.uniform(0.01, 4)
            else:
                mu, c = rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0)
            spec = make_quadric(locate(mu, c))
            assert cyclide_coeffs(spec).L > 0

    def test_prolate_lacks_horizontal_params(self):
        spec = make_quadric(locate(0.7, 1.1), prolate=True)
        with pytest.raises(MissingParams):
            cyclide_coeffs(spec)


class TestMesh:
    def test_torus_projects_to_closed_torus(self):
        S = make_degenerate(SurfaceFamily.STANDARD_TORUS, np.pi / 4)
        mesh = mesh_from_surface(S, ns=24, nt=24, project=True)
        assert euler_characteristic(mesh) == 0

    def test_umbilical_unprojected_plane(self):
        S = make_degenerate(SurfaceFamily.UMBILICAL, 1.0)
        mesh = mesh_from_surface(S, ns=16, nt=16, project=False)
        assert np.max(np.abs(mesh.vertices[:, 1] - np.tanh(1.0))) < 1e-10

    def test_fake_paraboloid_implicit_on_vertices(self):
        S = make_fake_paraboloid(1.0)
        mesh = mesh_from_surface(S, ns=32, nt=32, project=False)
        v = mesh.vertices
        res = v[:, 2] ** 2 + v[:, 3] ** 2 - 2.0 * v[:, 1]
        assert np.max(np.abs(res)) < 1e-8

    def test_faces_reference_existing_vertices(self):
        S = make_quadric_surface(QuadricMomentum(0.5, 0.5))
        mesh = mesh_from_surface(S, ns=20, nt=20, project=True)
        assert mesh.faces.min() >= 0 and mesh.faces.max() < len(mesh.vertices)
        assert np.all(np.isfinite(mesh.vertices))

    def test_moon_axis_faces_dropped(self):
        S = make_degenerate(SurfaceFamily.SPHERICAL_MOON, np.pi / 3)
        mesh = mesh_from_surface(S, ns=24, nt=24, project=False)
        assert np.min(wedge_areas(mesh)) >= 1e-14

    def test_tiny_profile_keeps_every_face(self):
        # a type-III profile 6.5e-5 long: some faces have areas ~3.8e-15, yet
        # no row lies on the rotation axis, so all 2 * 95 * 96 are kept
        S = make_quadric_surface(QuadricMomentum(5.475523692373472e-9, -22.09385359034698))
        assert S.profile.length < 1e-4
        mesh = mesh_from_surface(S, ns=96, nt=96, project=True)
        assert len(mesh.faces) == 2 * 95 * 96
        assert np.min(wedge_areas(mesh)) < 1e-14

    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_degenerate(SurfaceFamily.UMBILICAL, 3.0),
            lambda: make_degenerate(SurfaceFamily.SPHERICAL_MOON, 2.0),
            lambda: make_fake_paraboloid(1.0),
        ],
        ids=["umbilical", "moon", "fake-paraboloid"],
    )
    def test_no_face_on_a_collapsed_row(self, make):
        # each of these profiles meets the rotation axis, where a mesh row
        # collapses to one point; no face keeps two of that row's vertices
        mesh = mesh_from_surface(make(), ns=16, nt=16, project=False)
        v = mesh.vertices
        on_axis = np.hypot(v[:, 2], v[:, 3])[mesh.faces] < 1e-14
        assert np.any(on_axis)
        assert np.all(np.sum(on_axis, axis=1) <= 1)

    @pytest.mark.parametrize(
        "make, n",
        [
            (lambda: make_quadric_surface(QuadricMomentum(0.5, 0.5)), 48),
            (lambda: make_degenerate(SurfaceFamily.UMBILICAL, 1.0), 24),
            (lambda: make_degenerate(SurfaceFamily.SPHERICAL_MOON, np.pi / 3), 24),
            (lambda: make_fake_paraboloid(-2.0), 16),
        ],
        ids=["quadric", "umbilical", "moon", "fake-paraboloid"],
    )
    def test_projection_keeps_the_faces(self, make, n):
        # away from the projection pole no vertex is culled, and the face set
        # is decided on the surface, not in the output coordinates
        S = make()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            projected = mesh_from_surface(S, ns=n, nt=n, project=True)
        assert np.array_equal(projected.faces, mesh_from_surface(S, ns=n, nt=n).faces)


class TestObj:
    def test_empty_mesh(self, tmp_path):
        path = tmp_path / "empty.obj"
        write_obj(Mesh(vertices=np.zeros((0, 3)), faces=np.zeros((0, 3), int)), path)
        assert path.read_text() == ""

    def test_single_triangle(self, tmp_path):
        mesh = Mesh(
            vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]),
            faces=np.array([[0, 1, 2]]),
        )
        path = tmp_path / "tri.obj"
        write_obj(mesh, path)
        lines = path.read_text().splitlines()
        assert sum(l.startswith("v ") for l in lines) == 3
        assert sum(l.startswith("f ") for l in lines) == 1
        assert lines[-1] == "f 1 2 3"

    def test_roundtrip_bit_exact(self, tmp_path):
        S = make_degenerate(SurfaceFamily.STANDARD_TORUS, 0.5)
        mesh = mesh_from_surface(S, ns=8, nt=8, project=True)
        path = tmp_path / "torus.obj"
        write_obj(mesh, path)
        back = read_obj(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.faces, mesh.faces)

    def test_bytes_match_row_by_row_reference(self, tmp_path):
        # vertex and face counts cross the writer's chunk boundary
        S = make_quadric_surface(QuadricMomentum(0.5, 0.5))
        mesh = mesh_from_surface(S, ns=48, nt=48, project=True)
        assert len(mesh.vertices) > WRITE_CHUNK_ROWS and len(mesh.faces) > 2 * WRITE_CHUNK_ROWS
        path = tmp_path / "mesh.obj"
        write_obj(mesh, path)
        assert path.read_bytes() == obj_reference(mesh)

    @pytest.mark.parametrize("at_chunk_edge", [False, True], ids=["in-chunk", "chunk-edge"])
    @pytest.mark.parametrize("first_wide", [10, 100, 1_000, 10_000, 100_000])
    def test_index_digit_widths_match_reference(self, tmp_path, first_wide, at_chunk_edge):
        # 1-based indices first_wide - 1 and first_wide differ in digit count;
        # they meet inside one face block or on either side of a block edge
        narrow, wide = first_wide - 2, first_wide - 1
        if at_chunk_edge:
            faces = [[narrow, 0, narrow]] * WRITE_CHUNK_ROWS + [[wide, narrow, wide], [0, 0, 0]]
        else:
            faces = [[narrow, wide, narrow], [wide, wide, 0], [0, narrow, wide], [narrow] * 3]
        mesh = Mesh(vertices=np.zeros((first_wide, 3)), faces=faces)
        path = tmp_path / "widths.obj"
        write_obj(mesh, path)
        assert path.read_bytes() == obj_reference(mesh)

    @pytest.mark.parametrize("at_chunk_edge", [False, True], ids=["in-chunk", "chunk-edge"])
    def test_short_indices_in_wide_table_match_reference(self, tmp_path, at_chunk_edge):
        # 12,345 vertices make the index table 6 bytes wide, but the faces
        # name only 1- and 2-digit vertex numbers, so every row keeps pad bytes
        short = [[0, 9, 98], [98, 8, 0], [9, 9, 9]]
        faces = short * (WRITE_CHUNK_ROWS // 3 + 1) if at_chunk_edge else short
        mesh = Mesh(vertices=np.zeros((12_345, 3)), faces=faces)
        assert (len(mesh.faces) > WRITE_CHUNK_ROWS) == at_chunk_edge
        path = tmp_path / "short.obj"
        write_obj(mesh, path)
        assert path.read_bytes() == obj_reference(mesh)

    def test_vertices_without_faces(self, tmp_path):
        mesh = Mesh(vertices=np.eye(3), faces=np.empty((0, 3), dtype=int))
        path = tmp_path / "points.obj"
        write_obj(mesh, path)
        assert path.read_bytes() == obj_reference(mesh)

    def test_vertex_values_left_to_repr_match_reference(self, tmp_path):
        # zeros, powers of two and magnitudes outside [1e-4, 1e16) are
        # formatted by repr inside the same block as kernel-decided values
        values = [0.0, -0.0, 0.5, -2.0, 1e-5, -3e-300, 1e16, 2.5e17, 0.1, -1.0 / 3, 1e-4, 7.0]
        mesh = Mesh(vertices=np.resize(values, (WRITE_CHUNK_ROWS + 7, 3)), faces=[[0, 1, 2]])
        path = tmp_path / "values.obj"
        write_obj(mesh, path)
        assert path.read_bytes() == obj_reference(mesh)

    def test_remapped_faces_match_reference(self, tmp_path):
        # the pole vertices are culled, so faces are remapped
        S = make_degenerate(SurfaceFamily.EQUATORIAL)
        with pytest.warns(UserWarning, match="culled"):
            mesh = mesh_from_surface(S, ns=16, nt=16, project=True)
        path = tmp_path / "equatorial.obj"
        write_obj(mesh, path)
        assert path.read_bytes() == obj_reference(mesh)

    def test_scratch_memory(self, tmp_path):
        # WRITE_CHUNK_ROWS sets the peak, the vertex records of one block:
        # 168 KiB on this 96x96 mesh at 512 rows (88 KiB at 256 rows, 330 KiB
        # at 1,024); the bound allows 25 % more than the 180 KiB it was set on
        mesh = mesh_from_surface(make_quadric_surface(QuadricMomentum(0.5, 0.5)), 96, 96, True)
        assert traced_peak(write_obj, mesh, tmp_path / "mesh.obj") < 225 * 1024

    def test_rejects_4d_vertices(self, tmp_path):
        S = make_degenerate(SurfaceFamily.STANDARD_TORUS, 0.5)
        mesh = mesh_from_surface(S, ns=8, nt=8, project=False)
        with pytest.raises(IOFailure):
            write_obj(mesh, tmp_path / "bad.obj")


class TestPoleCulling:
    def test_equatorial_mesh_culls_pole_vertices(self):
        # the equatorial sphere's meridian profile reaches z = +/-1, so the
        # projected mesh hits the projection pole and must cull it
        S = make_degenerate(SurfaceFamily.EQUATORIAL)
        with pytest.warns(UserWarning, match="culled"):
            mesh = mesh_from_surface(S, ns=16, nt=16, project=True)
        assert np.all(np.isfinite(mesh.vertices))
        assert mesh.faces.max() < len(mesh.vertices)
