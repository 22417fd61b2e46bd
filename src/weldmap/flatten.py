"""Free-boundary conformal and quasi-conformal flattening of one submesh.

The conformal map minimizes Dirichlet energy minus image area over all
embeddings with two pinned vertices; the quasi-conformal variant replaces the
Dirichlet term with a Beltrami-weighted anisotropic energy so the minimizer
attains a prescribed per-face Beltrami coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DegenerateFace, MuOutOfRange, SingularSystem
from .mesh import face_areas

EPS_MU = 1e-3
SOLVE_RTOL = 1e-10


@dataclass
class PlanarEmbedding:
    uv: np.ndarray  # (n, 2)

    @property
    def complex_view(self):
        return self.uv[:, 0] + 1j * self.uv[:, 1]


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
    p0 = vertices[faces[:, 0]]
    p1 = vertices[faces[:, 1]]
    p2 = vertices[faces[:, 2]]
    if vertices.shape[1] == 2:
        return np.stack([p0, p1, p2], axis=1)
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


def _hat_gradients(corners):
    """Gradients of the three linear hat functions per face.

    corners: (m, 3, 2).  Returns grads (m, 3, 2) and areas (m,).
    grad lambda_i = rot90(p_{i+2} - p_{i+1}) / (2 A).
    """
    d = corners[:, [2, 0, 1], :] - corners[:, [1, 2, 0], :]
    areas = 0.5 * (
        (corners[:, 1, 0] - corners[:, 0, 0]) * (corners[:, 2, 1] - corners[:, 0, 1])
        - (corners[:, 1, 1] - corners[:, 0, 1]) * (corners[:, 2, 0] - corners[:, 0, 0])
    )
    if np.any(areas <= 0):
        raise DegenerateFace("non-positive face area in gradient assembly")
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
    if np.any(am >= 1.0 - EPS_MU):
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


def area_form_boundary(mesh):
    """Symmetric 2n x 2n matrix Q with (u;v)^T Q (u;v) = signed image area.

    Uses the boundary-edge form; inner loops are clockwise so their enclosed
    areas enter with a minus sign without special casing.
    """
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


def area_form_faces(mesh):
    """Same quadratic form as area_form_boundary, assembled face by face."""
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
    Q = sp.bmat([[None, 0.5 * U], [0.5 * U.T, None]], format="csr")
    return Q


def quadratic_form_value(Q, u, v):
    x = np.concatenate([u, v])
    return float(x @ (Q @ x))


def pick_pins(mesh):
    """Two outer-loop vertices at maximal cyclic distance along the loop."""
    loop = mesh.boundary_loops[0]
    return int(loop[0]), int(loop[len(loop) // 2])


def solve_pinned(M, pins, n):
    """Solve M x = 0 for x in R^{2n} with (u, v) pinned at given vertices.

    pins: list of (vertex id, (u, v)).  Uses sparse LU with iterative
    refinement; raises SingularSystem when the residual stays large.
    """
    x = np.zeros(2 * n)
    pin_idx = []
    for vid, (pu, pv) in pins:
        x[vid] = pu
        x[vid + n] = pv
        pin_idx.extend([vid, vid + n])
    pin_idx = np.asarray(sorted(pin_idx), dtype=np.int64)
    free = np.setdiff1d(np.arange(2 * n), pin_idx)

    M = M.tocsr()
    Mff = M[free][:, free].tocsc()
    rhs = -(M[free][:, pin_idx] @ x[pin_idx])
    try:
        # The system has symmetric structure; this ordering is measurably
        # faster than the default COLAMD here.
        lu = spla.splu(Mff, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SingularSystem(f"pinned system factorization failed: {exc}") from exc
    xf = lu.solve(rhs)
    scale = max(np.linalg.norm(rhs), 1e-300)
    for _ in range(5):
        r = rhs - Mff @ xf
        if np.linalg.norm(r) <= SOLVE_RTOL * scale:
            break
        xf = xf + lu.solve(r)
    r = rhs - Mff @ xf
    if not np.all(np.isfinite(xf)) or np.linalg.norm(r) > 1e3 * SOLVE_RTOL * scale:
        raise SingularSystem("pinned system residual did not converge")
    x[free] = xf
    return np.column_stack([x[:n], x[n:]])


def dncp_flatten(mesh, pins=None):
    """Free-boundary conformal flattening (Dirichlet energy minus area)."""
    n = mesh.n_vertices
    L = cotan_laplacian(mesh)
    Q = area_form_boundary(mesh)
    M = 0.5 * sp.block_diag([L, L], format="csr") - Q
    if pins is None:
        p0, p1 = pick_pins(mesh)
        pins = [(p0, (0.0, 0.0)), (p1, (1.0, 0.0))]
    uv = solve_pinned(M, pins, n)
    return PlanarEmbedding(uv=uv)


def lsqc_flatten(mesh, mu, pins=None):
    """Free-boundary flattening attaining the prescribed per-face mu.

    mesh must be a 2D embedding (the conformal chart); mu is per face in
    that chart.
    """
    n = mesh.n_vertices
    Lmu = generalized_laplacian(mesh, mu)
    Q = area_form_faces(mesh)
    M = 0.5 * sp.block_diag([Lmu, Lmu], format="csr") - Q
    if pins is None:
        p0, p1 = pick_pins(mesh)
        pins = [(p0, (0.0, 0.0)), (p1, (1.0, 0.0))]
    uv = solve_pinned(M, pins, n)
    return PlanarEmbedding(uv=uv)


def wirtinger_derivatives(source_vertices, faces, image_uv):
    """Per-face f_z and f_zbar of the piecewise-linear map source -> image."""
    corners = face_frames_2d(source_vertices, faces)
    grads, _ = _hat_gradients(corners)
    image_uv = np.asarray(image_uv)
    if image_uv.ndim == 2:
        w = image_uv[:, 0] + 1j * image_uv[:, 1]
    else:
        w = image_uv.astype(np.complex128)
    wf = w[faces]
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
