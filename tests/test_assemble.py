import numpy as np
import pytest

from weldmap.assemble import (
    LAPLACE_RTOL,
    area_distortion,
    assemble_global,
    dirichlet_factor,
    disk_automorphism,
    laplace_dirichlet,
    mobius_area_correct,
    qc_correction,
)
from weldmap.errors import MissingBoundaryValue, SeamMismatch
from weldmap.flatten import (
    beltrami_per_face,
    cotan_laplacian,
    factor_fixed,
    lsqc_flatten,
)
from weldmap.mesh import build_mesh
from weldmap.partition import default_partition, extract_submeshes

from fixtures import complex_uv, disk_mesh, fit_circle, grid_mesh, harmonic_residual


# ---------------------------------------------------------------------------
# laplace_dirichlet


def boundary_values(mesh, fn):
    return np.array([fn(complex(*mesh.vertices[v])) for v in mesh.boundary_vertices()])


def harmonic(mesh, fn):
    return laplace_dirichlet(mesh, boundary_values(mesh, fn), dirichlet_factor(mesh))


def test_laplace_affine_boundary_reproduces_affine():
    mesh = grid_mesh(9, 7)
    fn = lambda z: (1.3 * z.real - 0.4 * z.imag + 0.2) + 1j * (
        0.7 * z.real + 2.1 * z.imag - 1.0
    )
    emb = harmonic(mesh, fn)
    want = np.array([fn(complex(*p)) for p in mesh.vertices])
    assert np.abs(complex_uv(emb) - want).max() < 1e-10


def test_laplace_z_squared_on_disk():
    mesh = disk_mesh(n_rings=12, n_sect=48)
    emb = harmonic(mesh, lambda z: z * z)
    z = mesh.vertices[:, 0] + 1j * mesh.vertices[:, 1]
    h = 1.0 / 12
    assert np.abs(complex_uv(emb) - z * z).max() < 2.0 * h * h


def test_laplace_constant_boundary_is_constant():
    mesh = grid_mesh(6, 6)
    emb = harmonic(mesh, lambda z: 2.5 - 1.5j)
    assert np.abs(complex_uv(emb) - (2.5 - 1.5j)).max() < 1e-12


def test_laplace_missing_boundary_value():
    # One value short: the error names both counts.
    mesh = grid_mesh(5, 5)
    bv = np.delete(boundary_values(mesh, lambda z: z), 3)
    n = len(mesh.boundary_vertices())
    with pytest.raises(MissingBoundaryValue, match=f"{n - 1} boundary values for {n} "):
        laplace_dirichlet(mesh, bv, dirichlet_factor(mesh))


def test_laplace_residual_diagnostic():
    mesh = disk_mesh(n_rings=8, n_sect=32)
    emb = harmonic(mesh, lambda z: z * z * z)
    assert harmonic_residual(mesh, emb) <= 1e-8


def test_laplace_all_boundary_mesh():
    # single triangle: no interior vertices at all
    mesh = build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])
    )
    emb = harmonic(mesh, lambda z: 3 * z + 1j)
    assert np.abs(complex_uv(emb) - (3 * (mesh.vertices[:, 0] + 1j * mesh.vertices[:, 1]) + 1j)).max() < 1e-14
    assert dirichlet_factor(mesh) is None  # nothing to factor


def test_laplace_with_a_prepared_factor_matches_a_fresh_one():
    # The pipeline factors the interior block before the boundary is final
    # and solves with that factor afterwards; one factor serves any number
    # of boundaries, bit for bit as a solve that factors on its own.
    mesh = disk_mesh(n_rings=8, n_sect=32)
    factor = dirichlet_factor(mesh)
    for fn in (lambda z: z * z, lambda z: 2 * z - 1j):
        bv = boundary_values(mesh, fn)
        fresh = factor_fixed(cotan_laplacian(mesh), mesh.boundary_vertices())(
            np.column_stack([bv.real, bv.imag]), LAPLACE_RTOL
        )
        assert np.array_equal(laplace_dirichlet(mesh, bv, factor), fresh)


# ---------------------------------------------------------------------------
# qc_correction


def test_qc_correction_identity_when_on_target():
    mesh = grid_mesh(8, 8)
    image = mesh.vertices.copy()
    fd = beltrami_per_face(mesh.vertices, mesh.faces, image)
    out = qc_correction(mesh.vertices, mesh.faces, image, fd.mu_face)
    # already exactly on target: kept-best rejects any change and hands
    # back its own argument
    assert np.array_equal(out, image)
    assert out is image


def test_qc_correction_removes_constant_drift():
    mesh = grid_mesh(12, 12)
    drift = np.full(mesh.n_faces, 0.05 + 0j)
    image = lsqc_flatten(mesh, drift)
    target = np.zeros(mesh.n_faces, dtype=complex)
    _, e_before = beltrami_error(mesh.vertices, mesh.faces, image, target)
    assert e_before > 0.04
    out = qc_correction(mesh.vertices, mesh.faces, image, target)
    _, e_after = beltrami_error(mesh.vertices, mesh.faces, out, target)
    assert e_after <= 0.01


def test_qc_correction_never_increases_error():
    # high-frequency per-face target a linear solve cannot chase
    mesh = grid_mesh(6, 6)
    rng = np.random.default_rng(7)
    target = 0.4 * np.exp(2j * np.pi * rng.random(mesh.n_faces))
    image = mesh.vertices.copy()
    _, e_before = beltrami_error(mesh.vertices, mesh.faces, image, target)
    out = qc_correction(mesh.vertices, mesh.faces, image, target)
    _, e_after = beltrami_error(mesh.vertices, mesh.faces, out, target)
    assert e_after <= e_before


# ---------------------------------------------------------------------------
# assemble_global


def test_assemble_single_submesh_is_identity():
    mesh = grid_mesh(6, 5)
    labels = default_partition(mesh, 1)
    subs = extract_submeshes(mesh, labels)
    emb = subs[0].mesh.vertices.copy()
    g = assemble_global(subs, [emb], n_vertices=mesh.n_vertices)
    # single part: local order equals parent order up to the index map
    assert np.abs(g.uv[subs[0].to_parent] - emb).max() == 0.0


def test_assemble_two_submeshes_consistent_seam():
    mesh = grid_mesh(8, 8)
    labels = default_partition(mesh, 2)
    subs = extract_submeshes(mesh, labels)
    fn = lambda p: (p[0] + 0.1 * (p[0] ** 2 - p[1] ** 2), p[1] + 0.2 * p[0] * p[1])
    embs = [np.array([fn(p) for p in s.mesh.vertices]) for s in subs]
    g = assemble_global(subs, embs, n_vertices=mesh.n_vertices)
    want = np.array([fn(p) for p in mesh.vertices])
    assert np.abs(g.uv - want).max() < 1e-12
    assert len(g.submesh_uv) == 2


def test_assemble_seam_mismatch_raises():
    mesh = grid_mesh(8, 8)
    labels = default_partition(mesh, 2)
    subs = extract_submeshes(mesh, labels)
    embs = [s.mesh.vertices.copy() for s in subs]
    embs[1] = embs[1] + 1e-3
    with pytest.raises(SeamMismatch):
        assemble_global(subs, embs, n_vertices=mesh.n_vertices)


# ---------------------------------------------------------------------------
# metrics


def beltrami_error(vertices, faces, uv, mu_target):
    """Per-face error e_T = (mu of the map) - (prescribed mu), and the mean
    absolute error e. This is an absolute error, not a relative one."""
    fd = beltrami_per_face(np.asarray(vertices, dtype=float), faces, uv)
    e_face = fd.mu_face - np.asarray(mu_target, dtype=np.complex128)
    return e_face, float(np.abs(e_face).mean())


def test_beltrami_error_identity_map_is_zero():
    mesh = grid_mesh(7, 7)
    target = np.zeros(mesh.n_faces, dtype=complex)
    e_face, e = beltrami_error(mesh.vertices, mesh.faces, mesh.vertices, target)
    assert e <= 1e-14
    assert np.abs(e_face).max() <= 1e-14


def test_beltrami_error_is_absolute_not_relative():
    mesh = grid_mesh(4, 4)
    target = np.full(mesh.n_faces, 0.2 + 0j)
    _, e = beltrami_error(mesh.vertices, mesh.faces, mesh.vertices, target)
    assert abs(e - 0.2) < 1e-12


def test_area_distortion_identity_and_scale_invariance():
    mesh = grid_mesh(5, 6)
    d, summary = area_distortion(mesh.vertices, mesh.faces, mesh.vertices)
    assert np.abs(d).max() < 1e-14
    assert summary["mean_abs"] < 1e-14
    d2, _ = area_distortion(mesh.vertices, mesh.faces, mesh.vertices * 3.7)
    assert np.abs(d2).max() < 1e-13


def test_area_distortion_two_face_split():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    uv = verts.copy()
    uv[3] = (-1.0, 1.0)  # doubles the area of the second face only
    d, _ = area_distortion(verts, faces, uv)
    assert np.isclose(d[0], np.log(2.0 / 3.0))
    assert np.isclose(d[1], np.log(4.0 / 3.0))
    assert d[0] < 0 < d[1]


def test_mobius_symmetric_fixture_keeps_alpha_zero():
    mesh = disk_mesh(n_rings=6, n_sect=24)
    uv, alpha = mobius_area_correct(mesh.vertices, mesh.faces, mesh.vertices)
    assert abs(alpha) <= 1e-3
    assert np.array_equal(uv, mesh.vertices)


def test_mobius_recovers_known_automorphism():
    mesh = disk_mesh(n_rings=8, n_sect=32)
    z = mesh.vertices[:, 0] + 1j * mesh.vertices[:, 1]
    w = disk_automorphism(z, 0.3)
    uv_in = np.column_stack([w.real, w.imag])
    d_in, _ = area_distortion(mesh.vertices, mesh.faces, uv_in)
    obj_in = float((d_in**2).sum())
    uv_out, alpha = mobius_area_correct(mesh.vertices, mesh.faces, uv_in)
    assert abs(alpha - (-0.3)) < 1e-2
    d_out, _ = area_distortion(mesh.vertices, mesh.faces, uv_out)
    obj_out = float((d_out**2).sum())
    # the identity composition restores the original (zero) distortion
    assert obj_out <= 0.01 * obj_in


def test_mobius_preserves_circles():
    th = np.linspace(0, 2 * np.pi, 100, endpoint=False)
    hole = 0.3 + 0.1j + 0.25 * np.exp(1j * th)
    _, _, before = fit_circle(hole)
    _, _, after = fit_circle(disk_automorphism(hole, 0.4 + 0.2j))
    assert abs(after - before) <= 1e-6


def test_fit_circle_uneven_samples():
    # centroid of uneven samples is off-center, the algebraic fit is not
    t = np.linspace(0, 1, 80) ** 2 * 2 * np.pi
    pts = 1.5 - 0.5j + 0.8 * np.exp(1j * t)
    c, r, resid = fit_circle(pts)
    assert abs(c - (1.5 - 0.5j)) < 1e-9
    assert abs(r - 0.8) < 1e-9
    assert resid < 1e-9
