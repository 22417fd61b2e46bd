"""Shared mesh generators and measurements for the test suite."""

import math

import numpy as np
import scipy.sparse as sp

from weldmap.flatten import _hat_gradients, cotan_laplacian, face_frames_2d
from weldmap.mesh import build_mesh


def grid_mesh(nx, ny, width=1.0, height=1.0, hole_cells=()):
    """Triangulated rectangle grid; hole_cells is a set of (i, j) cells to drop.

    Cells are unit squares split into two CCW triangles.  Vertices not used
    by any face are removed.
    """
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    vid = lambda i, j: j * (nx + 1) + i
    verts = np.array([[x, y] for y in ys for x in xs])
    faces = []
    holes = set(map(tuple, hole_cells))
    for j in range(ny):
        for i in range(nx):
            if (i, j) in holes:
                continue
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            faces.append([a, b, c])
            faces.append([a, c, d])
    faces = np.asarray(faces, dtype=np.int64)
    used = np.unique(faces)
    remap = np.full(len(verts), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return build_mesh(verts[used], remap[faces])


def square_hole(i0, j0, size):
    """Cell set for a square hole with corner cell (i0, j0)."""
    return {(i0 + a, j0 + b) for a in range(size) for b in range(size)}


def disk_mesh(n_rings=8, n_sect=24, radius=1.0):
    """Structured polar triangulation of a disk."""
    verts = [[0.0, 0.0]]
    for r in range(1, n_rings + 1):
        rad = radius * r / n_rings
        for s in range(n_sect):
            th = 2 * np.pi * s / n_sect
            verts.append([rad * np.cos(th), rad * np.sin(th)])
    faces = []
    ring = lambda r, s: 1 + (r - 1) * n_sect + (s % n_sect)
    for s in range(n_sect):
        faces.append([0, ring(1, s), ring(1, s + 1)])
    for r in range(1, n_rings):
        for s in range(n_sect):
            a, b = ring(r, s), ring(r, s + 1)
            c, d = ring(r + 1, s + 1), ring(r + 1, s)
            faces.append([a, d, c])
            faces.append([a, c, b])
    return build_mesh(np.asarray(verts), np.asarray(faces, dtype=np.int64))


def annulus_mesh(n_rings=6, n_sect=32, r0=0.4, r1=1.0):
    """Structured triangulated annulus; inner boundary is a hole."""
    verts = []
    for r in range(n_rings + 1):
        rad = r0 + (r1 - r0) * r / n_rings
        for s in range(n_sect):
            th = 2 * np.pi * s / n_sect
            verts.append([rad * np.cos(th), rad * np.sin(th)])
    faces = []
    vid = lambda r, s: r * n_sect + (s % n_sect)
    for r in range(n_rings):
        for s in range(n_sect):
            a, b = vid(r, s), vid(r, s + 1)
            c, d = vid(r + 1, s + 1), vid(r + 1, s)
            faces.append([a, d, c])
            faces.append([a, c, b])
    return build_mesh(np.asarray(verts), np.asarray(faces, dtype=np.int64))


def hemisphere_cap(n_rings=16, n_sect=48, radius=1.0, cap=0.75):
    """Spherical cap lifted from a polar disk grid; open 3D surface."""
    flat = disk_mesh(n_rings=n_rings, n_sect=n_sect, radius=cap * radius)
    xy = flat.vertices
    z = np.sqrt(np.maximum(radius**2 - (xy**2).sum(axis=1), 0.0))
    verts = np.column_stack([xy, z])
    return build_mesh(verts, flat.faces)


def single_triangle(pts):
    return build_mesh(np.asarray(pts, dtype=float), np.array([[0, 1, 2]]))


def curved_annulus(n_rings=28, n_sect=180, r0=0.35, r1=0.85):
    """Spherical band: a flat annulus lifted onto the unit sphere (1 hole)."""
    flat = annulus_mesh(n_rings=n_rings, n_sect=n_sect, r0=r0, r1=r1)
    xy = flat.vertices
    z = np.sqrt(np.maximum(1.0 - (xy**2).sum(axis=1), 0.0))
    return build_mesh(np.column_stack([xy, z]), flat.faces)


def two_hole_grid(n=100):
    """Square grid with two square holes; ~n^2 vertices, 2 inner loops."""
    s = max(2, round(0.12 * n))
    holes = square_hole(round(0.2 * n), round(0.2 * n), s) | square_hole(
        round(0.65 * n), round(0.6 * n), s
    )
    return grid_mesh(n, n, width=3.0, height=3.0, hole_cells=holes)


def many_hole_grid(n, k):
    """Square grid with k square holes of side about 0.08 n, on a lattice of
    ceil(sqrt(k)) columns filled row by row; ~n^2 vertices, k inner loops."""
    s = max(2, round(0.08 * n))
    cols = math.ceil(math.sqrt(k))
    rows = math.ceil(k / cols)
    holes = set()
    for slot in range(k):
        r, c = divmod(slot, cols)
        holes |= square_hole(
            round((c + 0.5) * n / cols - s / 2), round((r + 0.5) * n / rows - s / 2), s
        )
    return grid_mesh(n, n, width=3.0, height=3.0, hole_cells=holes)


def many_hole_sphere(n, k):
    """many_hole_grid(n, k) centred at 0 and lifted onto the sphere of
    radius 3: an open 3D surface with k holes."""
    flat = many_hole_grid(n, k)
    xy = flat.vertices - 1.5
    z = np.sqrt(9.0 - (xy**2).sum(axis=1))
    return build_mesh(np.column_stack([xy, z]), flat.faces)


def lifted(mesh):
    """mesh with a zero z column: the same flat surface taken as a 3D one,
    whose free-boundary flatten factors a system instead of taking the
    planar closed form."""
    return build_mesh(np.column_stack([mesh.vertices, np.zeros(mesh.n_vertices)]), mesh.faces)


def smooth_beltrami(mesh, seed=42, modes=4, amplitude=0.37):
    """Smooth random per-face Beltrami field, |mu| <= amplitude."""
    rng = np.random.default_rng(seed)
    c = mesh.vertices[mesh.faces].mean(axis=1)
    mu = np.zeros(mesh.n_faces, dtype=np.complex128)
    for _ in range(modes):
        kx, ky = rng.uniform(-2, 2, 2)
        ph = rng.uniform(0, 2 * np.pi)
        a = rng.normal() + 1j * rng.normal()
        mu += a * np.exp(1j * (kx * c[:, 0] + ky * c[:, 1]) + 1j * ph)
    return mu * (amplitude / np.abs(mu).max())


def area_form_faces(mesh):
    """The quadratic form of flatten.area_form_boundary, assembled face by
    face: the independent oracle for the boundary form. Its u-v block has an
    entry on every edge; the interior ones cancel only in exact arithmetic."""
    corners = face_frames_2d(mesh.vertices, mesh.faces)
    grads, areas = _hat_gradients(corners)
    m, n = len(mesh.faces), mesh.n_vertices
    # Face value: (sum u_i gx_i)(sum v_j gy_j) - (sum u_i gy_i)(sum v_j gx_j).
    vals = (
        np.einsum("fi,fj->fij", grads[:, :, 0], grads[:, :, 1])
        - np.einsum("fi,fj->fij", grads[:, :, 1], grads[:, :, 0])
    ) * areas[:, None, None]
    rows = np.repeat(mesh.faces, 3, axis=1).reshape(m, 3, 3)
    cols = np.tile(mesh.faces, 3).reshape(m, 3, 3)
    U = sp.coo_matrix(
        (vals.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)
    ).tocsr()
    return sp.bmat([[None, 0.5 * U], [0.5 * U.T, None]], format="csr")


def quadratic_form_value(Q, u, v):
    """x^T Q x for x = (u, v) stacked."""
    x = np.concatenate([u, v])
    return float(x @ (Q @ x))


def complex_uv(uv):
    """The rows u, v of an (n, 2) uv array as complex numbers u + iv."""
    return uv[:, 0] + 1j * uv[:, 1]


def harmonic_residual(mesh, uv):
    """Relative residual of the interior cotan Laplacian rows of the (n, 2)
    map uv."""
    boundary_ids = mesh.boundary_vertices()
    free = np.setdiff1d(np.arange(mesh.n_vertices), boundary_ids)
    if len(free) == 0:
        return 0.0
    L = cotan_laplacian(mesh).tocsr()
    full = L[free] @ uv
    ref = np.linalg.norm(L[free][:, boundary_ids] @ uv[boundary_ids])
    return float(np.linalg.norm(full) / max(ref, 1e-300))
