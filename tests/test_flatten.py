from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import weldmap.flatten as flatten
from weldmap.assemble import dirichlet_factor, laplace_dirichlet
from weldmap.errors import DegenerateFace, MuOutOfRange, SingularSystem, WrongTopology
from weldmap.flatten import (
    area_form_boundary,
    beltrami_per_face,
    compose_beltrami,
    cotan_laplacian,
    dncp_flatten,
    factor_fixed,
    generalized_laplacian,
    lsqc_flatten,
    wirtinger_derivatives,
)
from weldmap.mesh import TriangleMesh, build_mesh
from weldmap.partition import default_partition, extract_submeshes

from fixtures import (
    annulus_mesh,
    area_form_faces,
    complex_uv,
    disk_mesh,
    grid_mesh,
    hemisphere_cap,
    lifted,
    many_hole_grid,
    quadratic_form_value,
    single_triangle,
    smooth_beltrami,
    two_hole_grid,
)


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
    fd = beltrami_per_face(m.vertices, m.faces, emb)
    assert np.abs(fd.mu_face).max() < 1e-8
    assert np.all(fd.jacobian_sign == 1)


def test_dncp_annulus_conformal():
    m = annulus_mesh()
    emb = dncp_flatten(m)
    fd = beltrami_per_face(m.vertices, m.faces, emb)
    assert np.abs(fd.mu_face).mean() < 1e-8


def test_dncp_hemisphere_cap():
    m = hemisphere_cap(n_rings=24, n_sect=72)
    emb = dncp_flatten(m)
    fd = beltrami_per_face(m.vertices, m.faces, emb)
    assert np.abs(fd.mu_face).mean() < 0.02


def _jittered_grid():
    m = grid_mesh(24, 20)
    jitter = np.random.default_rng(4).uniform(-0.008, 0.008, m.vertices.shape)
    return build_mesh(m.vertices + jitter, m.faces)


@pytest.mark.parametrize(
    "make, parts",
    [
        (_jittered_grid, 3),
        (lambda: annulus_mesh(10, 60), 3),
        (lambda: two_hole_grid(40), 4),
        (lambda: disk_mesh(16, 64), 4),
        (lambda: many_hole_grid(30, 3), 4),
    ],
    ids=["jittered_grid", "annulus", "two_hole_grid", "disk", "many_hole_grid"],
)
def test_planar_dncp_is_the_pinned_similarity(monkeypatch, make, parts):
    # On a planar submesh the DNCP minimizer is the similarity its two pins
    # fix: no factorization, the pins exact, the free rows of the pinned
    # system solved to SOLVE_RTOL, and the LU minimizer equal to rounding.
    mesh = make()
    for sub in extract_submeshes(mesh, default_partition(mesh, parts)):
        m = sub.mesh
        loop = m.boundary_loops[0]
        p0, p1 = int(loop[0]), int(loop[len(loop) // 2])
        splu = flatten.spla.splu
        monkeypatch.setattr(flatten.spla, "splu", None)
        uv = dncp_flatten(m)
        monkeypatch.setattr(flatten.spla, "splu", splu)
        assert uv[p0].tolist() == [0.0, 0.0] and uv[p1].tolist() == [1.0, 0.0]

        n = m.n_vertices
        L = cotan_laplacian(m)
        M = (0.5 * sp.block_diag([L, L]) - area_form_boundary(m)).tocsr()
        x = np.concatenate([uv[:, 0], uv[:, 1]])
        fixed = [p0, p1, p0 + n, p1 + n]
        free = np.setdiff1d(np.arange(2 * n), fixed)
        rhs = M[free][:, fixed] @ x[fixed]
        assert np.linalg.norm(M[free] @ x) <= flatten.SOLVE_RTOL * np.linalg.norm(rhs)

        lu = flatten._free_boundary_flatten(m, L, [(p0, (0.0, 0.0)), (p1, (1.0, 0.0))])
        assert np.abs(lu - uv).max() <= 1e-8 * np.ptp(uv, axis=0).max()


def test_planar_dncp_with_coincident_pins_flattens_in_closed_form(monkeypatch):
    # A slit annulus: the two sides of the slit share positions. With the
    # outer loop started where its halfway vertex sits on the same point,
    # the second pin is the outer-loop vertex farthest from the first, so a
    # similarity maps the pins apart and nothing is factored.
    a = annulus_mesh(6, 32)
    n_sect = 32
    verts = np.vstack([a.vertices, a.vertices[::n_sect]])  # slit copies
    copy = {r * n_sect: len(a.vertices) + r for r in range(7)}
    faces = a.faces.copy()
    for f in faces:  # the last sector's faces take the copies
        if np.any(f % n_sect == n_sect - 1):
            f[:] = [copy.get(v, v) for v in f]
    (loop,) = build_mesh(verts, faces).boundary_loops
    half = len(loop) // 2
    start = next(
        i for i in range(len(loop))
        if np.array_equal(verts[loop[i]], verts[loop[(i + half) % len(loop)]])
    )
    loop = np.roll(loop, -start)
    m = TriangleMesh(vertices=verts, faces=faces, boundary_loops=[loop])
    p0 = int(loop[0])
    dist = np.linalg.norm(verts[loop] - verts[p0], axis=1)
    p1 = int(loop[np.flatnonzero(dist == dist.max())[0]])
    calls = []
    splu = flatten.spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(flatten.spla, "splu", counting_splu)
    uv = dncp_flatten(m)
    assert calls == []
    assert uv[p0].tolist() == [0.0, 0.0] and uv[p1].tolist() == [1.0, 0.0]
    z, w = complex_uv(verts), complex_uv(uv)
    scale = 1.0 / (z[p1] - z[p0])
    assert np.abs(w - scale * (z - z[p0])).max() <= 1e-12
    # The solve takes the same pins.
    monkeypatch.setattr(flatten.spla, "splu", splu)
    mu = np.full(m.n_faces, 0.2 + 0.1j)
    assert np.isfinite(lsqc_flatten(replace(m, vertices=uv), mu)).all()


def test_planar_dncp_with_a_clockwise_face_is_degenerate():
    # build_mesh rejects mixed orientations; a hand-built mesh reaches the
    # flatten, which raises what the cotan assembly of the solve raises.
    m = grid_mesh(3, 3)
    faces = m.faces.copy()
    faces[4] = faces[4][::-1]
    bad = TriangleMesh(vertices=m.vertices, faces=faces, boundary_loops=m.boundary_loops)
    with pytest.raises(DegenerateFace) as solved:
        cotan_laplacian(bad)
    with pytest.raises(DegenerateFace) as closed:
        dncp_flatten(bad)
    assert str(closed.value) == str(solved.value)


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


def test_lsqc_rejects_a_nan_mu_naming_its_face():
    # NaN fails every comparison, so only a "|mu| < limit" test catches it;
    # let through, it made the system singular.
    m = grid_mesh(4, 4)
    mu = np.zeros(m.n_faces, dtype=complex)
    mu[5] = np.nan
    with pytest.raises(MuOutOfRange, match="on face 5 "):
        lsqc_flatten(m, mu)


def test_lsqc_mu_zero_matches_conformal():
    m = grid_mesh(6, 6)
    emb = lsqc_flatten(m, np.zeros(m.n_faces, dtype=complex))
    fd = beltrami_per_face(m.vertices, m.faces, emb)
    assert np.abs(fd.mu_face).max() < 1e-8


def test_lsqc_mu_zero_equals_dncp_on_annulus():
    m = annulus_mesh()
    lsqc = lsqc_flatten(m, np.zeros(m.n_faces, dtype=complex))
    np.testing.assert_allclose(lsqc, dncp_flatten(m), rtol=0, atol=1e-12)


def test_lsqc_system_couples_u_and_v_on_boundary_edges_only(monkeypatch):
    # Both flattens pin the same vertices and use the boundary area form, so
    # the factored LSQC matrix stores exactly the entries of the DNCP one;
    # the face-assembled form would add a u-v entry on every interior edge.
    # The jitter breaks the symmetry that makes some cotan weights exactly 0,
    # which the DNCP matrix drops and a nonzero mu fills in. The DNCP system
    # is factored on the lifted mesh, since a planar one takes the closed
    # form; its frames give the same Laplacian up to rounding.
    stored = []
    splu = flatten.spla.splu

    def counting_splu(A, *args, **kwargs):
        stored.append(A.nnz)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(flatten.spla, "splu", counting_splu)
    m = annulus_mesh(n_rings=5, n_sect=28)
    jitter = np.random.default_rng(0).uniform(-0.005, 0.005, m.vertices.shape)
    m = build_mesh(m.vertices + jitter, m.faces)
    dncp_flatten(lifted(m))
    lsqc_flatten(m, smooth_beltrami(m, 5))
    assert len(stored) == 2
    assert stored[1] == stored[0]


def test_factor_fixed_raises_singular_system_when_the_factorization_fails():
    # The last unknown has no entry at all, so the free block is
    # structurally singular and splu gives up.
    K = sp.csr_matrix(np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(SingularSystem, match="^sparse LU factorization failed"):
        factor_fixed(K, np.array([0]))([1.0], 1e3 * flatten.SOLVE_RTOL)


def _stall_solves(monkeypatch, rel):
    """Make every factor's solves off by one fixed vector, scaled so that
    refinement stalls at a relative residual of rel."""
    splu = flatten.spla.splu

    def stalled(A, *args, **kwargs):
        lu = splu(A, *args, **kwargs)
        offset = []

        def solve(b):
            if not offset:  # the first solve is of the right-hand side
                e = np.ones_like(b)
                offset.append(e * (rel * np.linalg.norm(b) / np.linalg.norm(A @ e)))
            return lu.solve(b) + offset[0]

        return SimpleNamespace(solve=solve)

    monkeypatch.setattr(flatten.spla, "splu", stalled)


def test_flatten_and_dirichlet_solves_keep_their_own_residual_bounds(monkeypatch):
    # One solve function serves both, with the caller's bound: a residual
    # of 3e-8 is inside the flattens' 1e3 * SOLVE_RTOL = 1e-7 and outside
    # the Dirichlet solves' LAPLACE_RTOL = 1e-8. The DNCP flattens run on
    # the lifted mesh, whose flatten is solved.
    m = grid_mesh(6, 6)
    exact = dncp_flatten(lifted(m))
    _stall_solves(monkeypatch, 3e-8)
    stalled = dncp_flatten(lifted(m))
    assert 0 < np.abs(stalled - exact).max() < 1e-6
    lsqc_flatten(m, smooth_beltrami(m, 5))
    bidx = m.boundary_vertices()
    bv = m.vertices[bidx, 0] + 1j * m.vertices[bidx, 1]
    with pytest.raises(SingularSystem, match="^relative residual 3.0e-08 stays above 1e-08$"):
        laplace_dirichlet(m, bv, dirichlet_factor(m))


@pytest.mark.parametrize("flatten_fn", ["dncp", "lsqc"])
def test_flatten_without_boundary_loops_raises(flatten_fn):
    # Without loops the area term is empty and the solve would collapse to
    # a pinned harmonic map; it must fail loudly instead.
    m = grid_mesh(3, 3)
    closed = TriangleMesh(vertices=m.vertices, faces=m.faces, boundary_loops=[])
    pins = [(0, (0.0, 0.0)), (3, (1.0, 0.0))]
    with pytest.raises(WrongTopology) as info:
        if flatten_fn == "dncp":
            dncp_flatten(closed)
        else:
            lsqc_flatten(closed, np.zeros(m.n_faces, dtype=complex), pins=pins)
    assert info.value.hint


def test_lsqc_constant_real_mu_is_affine():
    # mu = 1/3 corresponds to (x, y) -> (2x, y) up to similarity.
    m = grid_mesh(6, 6)
    emb = lsqc_flatten(m, np.full(m.n_faces, 1 / 3 + 0j))
    fd = beltrami_per_face(m.vertices, m.faces, emb)
    np.testing.assert_allclose(fd.mu_face, 1 / 3, atol=1e-8)


def test_lsqc_recovers_smooth_mu():
    m = grid_mesh(40, 40)
    cent = m.vertices[m.faces].mean(axis=1)
    mu = 0.3 * np.sin(np.pi * cent[:, 0]) * np.exp(1j * np.pi * cent[:, 1])
    emb = lsqc_flatten(m, mu)
    fd = beltrami_per_face(m.vertices, m.faces, emb)
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
    z1, z2 = complex_uv(e1), complex_uv(e2)
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
    nu = compose_beltrami(m.vertices, m.faces, f, target)
    # Forward check via the composition rule.
    fz, fzbar = wirtinger_derivatives(m.vertices, m.faces, f)
    got = compose_beltrami_forward(fzbar / fz, np.conj(fz) / fz, nu)
    np.testing.assert_allclose(got, target, atol=1e-10)
    # Geometric roundtrip with a constant (hence exactly attainable) target:
    # solve for g on the image with coefficient nu, recompute the composite.
    const = np.full(m.n_faces, 0.2 + 0.15j)
    nu_c = compose_beltrami(m.vertices, m.faces, f, const)
    g = lsqc_flatten(build_mesh(f, m.faces), nu_c)
    fd = beltrami_per_face(m.vertices, m.faces, g)
    assert np.abs(fd.mu_face - const).mean() < 1e-6


def test_compose_beltrami_trivial():
    m = grid_mesh(4, 4)
    mu = np.full(m.n_faces, 0.25 + 0.1j)
    f = lsqc_flatten(m, mu)
    nu = compose_beltrami(m.vertices, m.faces, f, mu)
    assert np.abs(nu).max() < 1e-8
