import numpy as np
import pytest

from weldmap.errors import MuOutOfRange
from weldmap.flatten import (
    area_form_boundary,
    area_form_faces,
    beltrami_per_face,
    compose_beltrami,
    cotan_laplacian,
    dncp_flatten,
    generalized_laplacian,
    lsqc_flatten,
    quadratic_form_value,
    wirtinger_derivatives,
)
from weldmap.mesh import build_mesh

from fixtures import annulus_mesh, grid_mesh, hemisphere_cap, single_triangle


def test_cotan_equilateral():
    m = single_triangle([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
    L = cotan_laplacian(m).toarray()
    off = -1.0 / (2 * np.sqrt(3))
    expect = np.full((3, 3), off)
    np.fill_diagonal(expect, 1.0 / np.sqrt(3))
    np.testing.assert_allclose(L, expect, atol=1e-12)


def test_cotan_right_isoceles():
    m = single_triangle([[0, 0], [1, 0], [0, 1]])
    L = cotan_laplacian(m).toarray()
    # cot(90 deg) = 0 opposite the hypotenuse, cot(45 deg) = 1 otherwise.
    assert abs(L[1, 2] - 0.0) < 1e-12
    assert abs(L[0, 1] + 0.5) < 1e-12
    assert abs(L[0, 2] + 0.5) < 1e-12


def test_cotan_rowsums_zero():
    m = grid_mesh(5, 4)
    L = cotan_laplacian(m)
    np.testing.assert_allclose(L @ np.ones(m.n_vertices), 0, atol=1e-12)


def test_area_form_unit_square():
    m = grid_mesh(1, 1)
    Q = area_form_boundary(m)
    u, v = m.vertices[:, 0], m.vertices[:, 1]
    assert abs(quadratic_form_value(Q, u, v) - 1.0) < 1e-14


def test_area_form_annulus_square():
    # Unit square with centered half-size square hole: area 1 - 0.25.
    m = grid_mesh(4, 4, hole_cells={(i, j) for i in (1, 2) for j in (1, 2)})
    Q = area_form_boundary(m)
    u, v = m.vertices[:, 0], m.vertices[:, 1]
    assert abs(quadratic_form_value(Q, u, v) - 0.75) < 1e-14


def test_area_form_degenerate_image():
    m = grid_mesh(3, 3)
    Q = area_form_boundary(m)
    u = m.vertices[:, 0]
    assert abs(quadratic_form_value(Q, u, u)) < 1e-14


def test_face_form_matches_boundary_form():
    m = annulus_mesh(n_rings=4, n_sect=25)
    Qb = area_form_boundary(m)
    Qf = area_form_faces(m)
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = rng.normal(size=m.n_vertices)
        v = rng.normal(size=m.n_vertices)
        a = quadratic_form_value(Qb, u, v)
        b = quadratic_form_value(Qf, u, v)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


def test_face_form_identity_is_area():
    m = grid_mesh(4, 3, width=2.0, height=1.5)
    Qf = area_form_faces(m)
    val = quadratic_form_value(Qf, m.vertices[:, 0], m.vertices[:, 1])
    assert abs(val - 3.0) < 1e-12
    swapped = quadratic_form_value(Qf, m.vertices[:, 1], m.vertices[:, 0])
    assert abs(swapped + 3.0) < 1e-12


def test_dncp_planar_is_conformal():
    m = grid_mesh(8, 6)
    emb = dncp_flatten(m)
    fd = beltrami_per_face(m.vertices, m.faces, emb.uv)
    assert np.abs(fd.mu_face).max() < 1e-8
    assert np.all(fd.jacobian_sign == 1)


def test_dncp_annulus_conformal():
    m = annulus_mesh()
    emb = dncp_flatten(m)
    fd = beltrami_per_face(m.vertices, m.faces, emb.uv)
    assert np.abs(fd.mu_face).mean() < 1e-8


def test_dncp_hemisphere_cap():
    m = hemisphere_cap(n_rings=24, n_sect=72)
    emb = dncp_flatten(m)
    fd = beltrami_per_face(m.vertices, m.faces, emb.uv)
    assert np.abs(fd.mu_face).mean() < 0.02


def test_generalized_laplacian_mu_zero():
    m = grid_mesh(5, 5)
    L = cotan_laplacian(m)
    Lmu = generalized_laplacian(m, np.zeros(m.n_faces, dtype=complex))
    assert abs(L - Lmu).max() < 1e-12


def test_generalized_laplacian_mu_half():
    from weldmap.flatten import beltrami_coefficient_matrix

    A = beltrami_coefficient_matrix(np.array([0.5 + 0j]))
    np.testing.assert_allclose(A[0], np.diag([1 / 3, 3]), atol=1e-14)


def test_generalized_laplacian_rejects_large_mu():
    m = grid_mesh(2, 2)
    with pytest.raises(MuOutOfRange):
        generalized_laplacian(m, np.full(m.n_faces, 0.9995 + 0j))


def test_lsqc_mu_zero_matches_conformal():
    m = grid_mesh(6, 6)
    emb = lsqc_flatten(m, np.zeros(m.n_faces, dtype=complex))
    fd = beltrami_per_face(m.vertices, m.faces, emb.uv)
    assert np.abs(fd.mu_face).max() < 1e-8


def test_lsqc_constant_real_mu_is_affine():
    # mu = 1/3 corresponds to (x, y) -> (2x, y) up to similarity.
    m = grid_mesh(6, 6)
    emb = lsqc_flatten(m, np.full(m.n_faces, 1 / 3 + 0j))
    fd = beltrami_per_face(m.vertices, m.faces, emb.uv)
    np.testing.assert_allclose(fd.mu_face, 1 / 3, atol=1e-8)


def test_lsqc_recovers_smooth_mu():
    m = grid_mesh(40, 40)
    cent = m.vertices[m.faces].mean(axis=1)
    mu = 0.3 * np.sin(np.pi * cent[:, 0]) * np.exp(1j * np.pi * cent[:, 1])
    emb = lsqc_flatten(m, mu)
    fd = beltrami_per_face(m.vertices, m.faces, emb.uv)
    assert np.abs(fd.mu_face - mu).mean() < 0.02


def test_energy_identity():
    # E_A(u) + E_A(v) - E_QC(u, v) = area form, to 1e-10 relative, where the
    # quasi-conformal energy is assembled independently per face.
    from weldmap.mesh import face_areas

    m = annulus_mesh(n_rings=4, n_sect=20)
    rng = np.random.default_rng(3)
    mu = 0.4 * (rng.random(m.n_faces) - 0.5) + 0.3j * (rng.random(m.n_faces) - 0.5)
    Lmu = generalized_laplacian(m, mu)
    Qf = area_form_faces(m)
    areas = face_areas(m.vertices, m.faces)
    for _ in range(5):
        u = rng.normal(size=m.n_vertices)
        v = rng.normal(size=m.n_vertices)
        ea = 0.5 * (u @ (Lmu @ u) + v @ (Lmu @ v))
        aform = quadratic_form_value(Qf, u, v)
        fz, fzb = wirtinger_derivatives(m.vertices, m.faces, np.column_stack([u, v]))
        eqc = np.sum(2 * areas / (1 - np.abs(mu) ** 2) * np.abs(fzb - mu * fz) ** 2)
        assert abs(ea - aform - eqc) <= 1e-10 * max(abs(ea), abs(eqc), 1.0)
        # The inequality: energy dominates the image area for any embedding.
        assert ea - aform >= -1e-12 * max(abs(ea), 1.0)


def test_pin_invariance_up_to_similarity():
    m = grid_mesh(10, 8)
    mu = np.full(m.n_faces, 0.2 + 0.1j)
    loop = m.boundary_loops[0]
    e1 = lsqc_flatten(m, mu, pins=[(int(loop[0]), (0, 0)), (int(loop[len(loop) // 2]), (1, 0))])
    e2 = lsqc_flatten(m, mu, pins=[(int(loop[3]), (0, 0)), (int(loop[len(loop) // 3]), (1, 0))])
    z1, z2 = e1.complex_view, e2.complex_view
    # Optimal similarity z2 ~ a z1 + b (least squares).
    A = np.column_stack([z1, np.ones_like(z1)])
    coef, *_ = np.linalg.lstsq(A, z2, rcond=None)
    resid = np.abs(A @ coef - z2)
    diam = np.abs(z2[:, None] - z2[None, ::7]).max()
    assert resid.max() <= 1e-8 * diam


def test_beltrami_affine_stretch():
    m = grid_mesh(3, 3)
    img = m.vertices * np.array([2.0, 1.0])
    fd = beltrami_per_face(m.vertices, m.faces, img)
    np.testing.assert_allclose(fd.mu_face, 1 / 3, atol=1e-14)
    rot = m.vertices @ np.array([[0.6, 0.8], [-0.8, 0.6]]).T
    fd2 = beltrami_per_face(m.vertices, m.faces, rot)
    np.testing.assert_allclose(np.abs(fd2.mu_face), 0, atol=1e-14)


def test_beltrami_3d_frames():
    m = hemisphere_cap(n_rings=6, n_sect=18)
    # Map each face by its own isometric layout: per-face frames give mu = 0
    # only for a globally isometric flattening, so instead check the identity
    # on a genuinely flat 3D embedding.
    flat3d = build_mesh(
        np.column_stack([m.vertices[:, 0], m.vertices[:, 1], np.zeros(m.n_vertices)]),
        m.faces,
    )
    fd = beltrami_per_face(flat3d.vertices, flat3d.faces, m.vertices[:, :2])
    assert np.abs(fd.mu_face).max() < 1e-12


def compose_beltrami_forward(mu_f, tau, mu_g):
    """Composition rule: Beltrami coefficient of g o f from mu_f, mu_g, tau."""
    t = np.asarray(tau, dtype=np.complex128)
    return (mu_f + mu_g * t) / (1.0 + np.conj(mu_f) * mu_g * t)


def test_compose_beltrami_roundtrip():
    m = grid_mesh(10, 10)
    rng = np.random.default_rng(11)
    mu_f = 0.3 * (rng.random(m.n_faces) - 0.5) + 0.3j * (rng.random(m.n_faces) - 0.5)
    f = lsqc_flatten(m, mu_f)
    target = 0.3 * np.exp(1j * rng.random(m.n_faces))
    nu = compose_beltrami(m.vertices, m.faces, f.uv, target)
    # Forward check via the composition rule.
    fz, fzbar = wirtinger_derivatives(m.vertices, m.faces, f.uv)
    got = compose_beltrami_forward(fzbar / fz, np.conj(fz) / fz, nu)
    np.testing.assert_allclose(got, target, atol=1e-10)
    # Geometric roundtrip with a constant (hence exactly attainable) target:
    # solve for g on the image with coefficient nu, recompute the composite.
    const = np.full(m.n_faces, 0.2 + 0.15j)
    nu_c = compose_beltrami(m.vertices, m.faces, f.uv, const)
    g = lsqc_flatten(build_mesh(f.uv, m.faces), nu_c)
    fd = beltrami_per_face(m.vertices, m.faces, g.uv)
    assert np.abs(fd.mu_face - const).mean() < 1e-6


def test_compose_beltrami_trivial():
    m = grid_mesh(4, 4)
    mu = np.full(m.n_faces, 0.25 + 0.1j)
    f = lsqc_flatten(m, mu)
    nu = compose_beltrami(m.vertices, m.faces, f.uv, mu)
    assert np.abs(nu).max() < 1e-8
