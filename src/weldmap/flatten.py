"""Free-boundary conformal and quasi-conformal flattening of one submesh.

The conformal map minimizes Dirichlet energy minus image area over all
embeddings with two pinned vertices (on a planar mesh that minimizer is a
similarity, given in closed form); the quasi-conformal variant replaces the
Dirichlet term with a Beltrami-weighted anisotropic energy so the minimizer
attains a prescribed per-face Beltrami coefficient. factor_fixed factors
every sparse system of the package, the Dirichlet solves of assemble
included, so perfbench counts all LU work through this module's spla.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DegenerateFace, MuOutOfRange, SingularSystem, WrongTopology
from .mesh import signed_areas_2d

EPS_MU = 1e-3
SOLVE_RTOL = 1e-10


@dataclass
class FaceDistortion:
    mu_face: np.ndarray  # complex per face
    jacobian_sign: np.ndarray  # +-1 per face


def face_frames_2d(vertices, faces):
    """Per-face 2D corner coordinates from either 2D or 3D vertex data.

    For 3D input each face is laid out isometrically: first edge along +x,
    third corner in the upper half plane of the face frame.
    Returns (m, 3, 2) corner array.
    """
    if vertices.shape[1] == 2:
        return vertices.take(faces, axis=0)
    p0 = vertices[faces[:, 0]]
    p1 = vertices[faces[:, 1]]
    p2 = vertices[faces[:, 2]]
    e1 = p1 - p0
    e2 = p2 - p0
    n = np.cross(e1, e2)
    nn = np.linalg.norm(n, axis=1)
    if np.any(nn <= 0):
        raise DegenerateFace("zero-area face in frame construction")
    l1 = np.linalg.norm(e1, axis=1)
    xhat = e1 / l1[:, None]
    yhat = np.cross(n / nn[:, None], xhat)
    out = np.zeros((len(faces), 3, 2))
    out[:, 1, 0] = l1
    out[:, 2, 0] = np.einsum("ij,ij->i", e2, xhat)
    out[:, 2, 1] = np.einsum("ij,ij->i", e2, yhat)
    return out


def _positive_areas(corners):
    """Signed areas of the (m, 3, 2) corners; raises DegenerateFace unless
    every one is positive."""
    areas = signed_areas_2d(corners)
    if np.any(areas <= 0):
        raise DegenerateFace("non-positive face area in gradient assembly")
    return areas


def _hat_gradients(corners):
    """Gradients of the three linear hat functions per face.

    corners: (m, 3, 2).  Returns grads (m, 3, 2) and areas (m,).
    grad lambda_i = rot90(p_{i+2} - p_{i+1}) / (2 A).
    """
    d = corners[:, [2, 0, 1], :] - corners[:, [1, 2, 0], :]
    areas = _positive_areas(corners)
    rot = np.empty_like(d)
    rot[:, :, 0] = -d[:, :, 1]
    rot[:, :, 1] = d[:, :, 0]
    grads = rot / (2.0 * areas)[:, None, None]
    return grads, areas


def _assemble_stiffness(faces, grads, areas, A=None):
    """Sum_T Area(T) * grad_i^T A_T grad_j as a sparse n x n matrix."""
    m = len(faces)
    if A is None:
        gA = grads
    else:
        gA = np.einsum("fab,fib->fia", A, grads)
    vals = np.einsum("fia,fja->fij", gA, grads) * areas[:, None, None]
    rows = np.repeat(faces, 3, axis=1).reshape(m, 3, 3)
    cols = np.tile(faces, 3).reshape(m, 3, 3)
    n = int(faces.max()) + 1
    K = sp.coo_matrix(
        (vals.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)
    ).tocsr()
    return K


def cotan_laplacian(mesh):
    """Cotangent stiffness matrix; u^T L u is the Dirichlet energy of u."""
    corners = face_frames_2d(mesh.vertices, mesh.faces)
    grads, areas = _hat_gradients(corners)
    return _assemble_stiffness(mesh.faces, grads, areas)


def beltrami_coefficient_matrix(mu):
    """Per-face 2x2 matrix A(mu) entering the generalized Laplacian."""
    mu = np.asarray(mu, dtype=np.complex128)
    am = np.abs(mu)
    if np.any(~(am < 1.0 - EPS_MU)):  # NaN fails this test too
        bad = int(np.argmax(am))
        raise MuOutOfRange(f"|mu|={am[bad]:.6f} on face {bad} (limit {1 - EPS_MU})")
    rho = mu.real
    tau = mu.imag
    den = 1.0 - am * am
    A = np.empty((len(mu), 2, 2))
    A[:, 0, 0] = ((rho - 1.0) ** 2 + tau**2) / den
    A[:, 0, 1] = -2.0 * tau / den
    A[:, 1, 0] = A[:, 0, 1]
    A[:, 1, 1] = ((1.0 + rho) ** 2 + tau**2) / den
    return A


def generalized_laplacian(mesh, mu):
    """Anisotropic stiffness L_mu; reduces to cotan_laplacian at mu = 0."""
    corners = face_frames_2d(mesh.vertices, mesh.faces)
    grads, areas = _hat_gradients(corners)
    A = beltrami_coefficient_matrix(mu)
    return _assemble_stiffness(mesh.faces, grads, areas, A=A)


def _require_loops(mesh):
    if not mesh.boundary_loops:
        raise WrongTopology(
            "mesh has no boundary loop, so the flattening has no area term",
            hint="build the mesh with build_mesh, or pass its boundary_loops",
        )


def area_form_boundary(mesh):
    """Symmetric 2n x 2n matrix Q with (u;v)^T Q (u;v) = signed image area.

    Uses the boundary-edge form; inner loops are clockwise so their enclosed
    areas enter with a minus sign without special casing. Its u-v coupling
    sits on boundary edges only, which keeps the pinned systems sparse.
    Raises WrongTopology for a mesh without boundary loops, which has no
    area term.
    """
    _require_loops(mesh)
    n = mesh.n_vertices
    rows, cols, vals = [], [], []
    for loop in mesh.boundary_loops:
        i = loop
        j = np.roll(loop, -1)
        rows.extend([i, j])
        cols.extend([j, i])
        vals.extend([np.full(len(i), 0.5), np.full(len(i), -0.5)])
    P = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    # u^T P v = 1/2 sum (u_i v_j - u_j v_i); symmetrize into the 2n form.
    Q = sp.bmat([[None, 0.5 * P], [0.5 * P.T, None]], format="csr")
    return Q


def factor_fixed(K, fixed):
    """Factor by sparse LU the block of K off the sorted unknown ids fixed.
    Returns solve(values, fail_rtol): K x = 0 on the free unknowns with
    x[fixed] = values (a row per fixed id, a column per right-hand side),
    refined up to 5 times to a relative residual of SOLVE_RTOL. Raises
    SingularSystem when the factorization fails or the residual stays above
    fail_rtol. The factor lives as long as solve does."""
    n = K.shape[0]
    is_free = np.ones(n, dtype=bool)
    is_free[fixed] = False
    free = np.flatnonzero(is_free)
    K_free = K.tocsr()[free]
    Kff = K_free[:, free].tocsc()
    try:
        # The systems have symmetric structure; this ordering is measurably
        # faster than the default COLAMD here.
        lu = spla.splu(Kff, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SingularSystem(f"sparse LU factorization failed: {exc}") from exc
    # A partial, not a closure: the frame of a failed solve keeps its
    # function, and a closure would keep the factor alive with it after
    # the frame is cleared.
    return functools.partial(_solve_factored, lu, n, fixed, free, K_free, Kff)


def _solve_factored(lu, n, fixed, free, K_free, Kff, values, fail_rtol):
    """The solve that factor_fixed returns, with its factor and blocks."""
    values = np.asarray(values, dtype=float)
    x = np.zeros((n,) + values.shape[1:])
    x[fixed] = values
    rhs = -(K_free[:, fixed] @ values)
    xf = lu.solve(rhs)
    scale = max(np.linalg.norm(rhs), 1e-300)
    r = rhs - Kff @ xf
    for _ in range(5):
        if np.linalg.norm(r) <= SOLVE_RTOL * scale:
            break
        xf = xf + lu.solve(r)
        r = rhs - Kff @ xf
    res = np.linalg.norm(r)
    if not np.all(np.isfinite(xf)) or res > fail_rtol * scale:
        raise SingularSystem(
            f"relative residual {res / scale:.1e} stays above {fail_rtol:.0e}"
        )
    x[free] = xf
    return x


def _free_boundary_flatten(mesh, L, pins):
    """Minimize 1/2 (u^T L u + v^T L v) minus the image area over (u; v),
    with (u, v) pinned at the given vertices; the default pins
    (_default_pins) go to (0, 0) and (1, 0). Returns the (n, 2) uv array of
    mesh's vertices."""
    n = mesh.n_vertices
    M = 0.5 * sp.block_diag([L, L], format="csr") - area_form_boundary(mesh)
    if pins is None:
        p0, p1 = _default_pins(mesh)
        pins = [(p0, (0.0, 0.0)), (p1, (1.0, 0.0))]
    pinned = {}
    for vid, (pu, pv) in pins:
        pinned[vid], pinned[vid + n] = pu, pv
    fixed = np.asarray(sorted(pinned), dtype=np.int64)
    x = factor_fixed(M, fixed)([pinned[i] for i in fixed], 1e3 * SOLVE_RTOL)
    return np.column_stack([x[:n], x[n:]])


def _default_pins(mesh):
    """The outer loop's first vertex and its halfway vertex or, when those
    share a position (as on a slit domain), the first outer-loop vertex
    farthest from the first."""
    loop = mesh.boundary_loops[0]
    p0, p1 = int(loop[0]), int(loop[len(loop) // 2])
    pos = mesh.vertices
    if np.array_equal(pos[p0], pos[p1]):
        p1 = int(loop[np.argmax(np.linalg.norm(pos[loop] - pos[p0], axis=1))])
    return p0, p1


def dncp_flatten(mesh):
    """Free-boundary conformal flattening (Dirichlet energy minus area): the
    (n, 2) uv array of mesh's vertices.

    On a planar mesh the energy, with the mesh's own cotan Laplacian, is
    sum_T area_T (|grad u|^2 / 2 + |grad v|^2 / 2 - det grad f) >= 0, which
    vanishes exactly on similarities; so the minimizer is the similarity
    z -> (z - z_p0) / (z_p1 - z_p0) that the two pins fix, with no solve. A
    3D mesh is solved.
    """
    if mesh.is_planar:
        _positive_areas(mesh.vertices.take(mesh.faces, axis=0))
        _require_loops(mesh)
        p0, p1 = _default_pins(mesh)
        z = mesh.vertices[:, 0] + 1j * mesh.vertices[:, 1]
        w = (z - z[p0]) / (z[p1] - z[p0])
        w[p0], w[p1] = 0.0, 1.0
        return np.column_stack([w.real, w.imag])
    return _free_boundary_flatten(mesh, cotan_laplacian(mesh), None)


def lsqc_flatten(mesh, mu, pins=None):
    """Free-boundary flattening attaining the prescribed per-face mu.

    mesh must be a 2D embedding (the conformal chart); mu is per face in
    that chart. Returns the (n, 2) uv array of mesh's vertices.
    """
    return _free_boundary_flatten(mesh, generalized_laplacian(mesh, mu), pins)


def wirtinger_derivatives(source_vertices, faces, image_uv):
    """Per-face f_z and f_zbar of the piecewise-linear map source -> image_uv."""
    corners = face_frames_2d(source_vertices, faces)
    grads, _ = _hat_gradients(corners)
    image_uv = np.asarray(image_uv)
    wf = (image_uv[:, 0] + 1j * image_uv[:, 1])[faces]
    fx = np.einsum("fi,fi->f", wf, grads[:, :, 0].astype(np.complex128))
    fy = np.einsum("fi,fi->f", wf, grads[:, :, 1].astype(np.complex128))
    fz = 0.5 * (fx - 1j * fy)
    fzbar = 0.5 * (fx + 1j * fy)
    return fz, fzbar


def beltrami_per_face(source_vertices, faces, image_uv):
    """Per-face Beltrami coefficient mu = f_zbar / f_z and orientation sign."""
    fz, fzbar = wirtinger_derivatives(source_vertices, faces, image_uv)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.where(fz != 0, fzbar / np.where(fz != 0, fz, 1), np.inf)
    jac = np.abs(fz) ** 2 - np.abs(fzbar) ** 2
    return FaceDistortion(mu_face=mu, jacobian_sign=np.where(jac >= 0, 1, -1))


def compose_beltrami(source_vertices, faces, image_uv, mu_target):
    """Beltrami coefficient of the correction map g with mu_{g o f} = target.

    f is the map source -> image; the returned coefficient lives on the image
    faces.  Inverts the composition rule using tau = conj(f_z)/f_z per face.
    """
    fz, fzbar = wirtinger_derivatives(source_vertices, faces, image_uv)
    mu_target = np.asarray(mu_target, dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu_f = fzbar / fz
        tau = np.conj(fz) / fz
        w = (mu_target - mu_f) / (1.0 - mu_target * np.conj(mu_f))
        nu = w * np.conj(tau)  # |tau| = 1
    am = np.abs(nu)
    am = np.where(np.isfinite(am), am, np.inf)
    if np.any(am >= 1.0 - EPS_MU):
        bad = int(np.argmax(am))
        raise MuOutOfRange(f"composed coefficient |nu|={am[bad]:.6f} on face {bad}")
    return nu
