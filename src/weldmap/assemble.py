"""Final stitching of the per-submesh maps into one parameterization.

Each submesh gets a harmonic extension of its welded boundary (Dirichlet
Laplace solve on the flattened domain) and, optionally, a quasi-conformal
correction that pulls the achieved Beltrami coefficient back toward the
prescribed one. Duplicated cut vertices are reconciled by averaging, and a
small metric suite (logged area ratio, disk automorphism search) quantifies
the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateFace,
    MissingBoundaryValue,
    MuOutOfRange,
    SeamMismatch,
)
from .flatten import (
    PlanarEmbedding,
    beltrami_per_face,
    compose_beltrami,
    cotan_laplacian,
    factor_fixed,
    lsqc_flatten,
)
from .mesh import TriangleMesh, face_areas, walk_boundary_loops

LAPLACE_RTOL = 1e-8
SEAM_RTOL = 1e-6
AREA_BINS = 20  # histogram bins of the logged area ratio


# ---------------------------------------------------------------------------
# Dirichlet Laplace solve


def dirichlet_factor(mesh):
    """The factored interior block of mesh's cotangent Laplacian, for
    laplace_dirichlet; None when every vertex is on the boundary."""
    fixed = mesh.boundary_vertices()
    if len(fixed) == mesh.n_vertices:
        return None
    return factor_fixed(cotan_laplacian(mesh), fixed)


def laplace_dirichlet(mesh, boundary, factor):
    """Harmonic extension of prescribed boundary positions.

    mesh is the flattened submesh (2D vertices); boundary holds the complex
    target position of each vertex of mesh.boundary_vertices(), in that
    order. factor is dirichlet_factor(mesh): its solve gives the interior
    rows of the cotangent Laplacian, failing above a relative residual of
    LAPLACE_RTOL; boundary rows are reproduced exactly.
    """
    n_fixed = len(mesh.boundary_vertices())
    if len(boundary) != n_fixed:
        raise MissingBoundaryValue(
            f"{len(boundary)} boundary values for {n_fixed} boundary vertices"
        )
    vals = np.column_stack([boundary.real, boundary.imag])
    return PlanarEmbedding(uv=vals if factor is None else factor(vals, LAPLACE_RTOL))


# ---------------------------------------------------------------------------
# Quasi-conformal correction (kept-best)


def qc_correction(source_vertices, faces, image, mu_target):
    """Compose the map with a quasi-conformal correction toward mu_target.

    source_vertices/faces describe the original submesh; image is its current
    planar embedding. The correction coefficient comes from the composition
    rule, the correction itself from a least-squares quasi-conformal solve on
    the image domain pinned at two far-apart vertices (so a null correction
    is the identity). Kept-best: the corrected map is returned only when the
    mean absolute Beltrami error strictly decreases.
    """
    source_vertices = np.asarray(source_vertices, dtype=float)
    mu_target = np.asarray(mu_target, dtype=np.complex128)
    fd = beltrami_per_face(source_vertices, faces, image.uv)
    e_before = float(np.abs(fd.mu_face - mu_target).mean())

    image_mesh = TriangleMesh(
        vertices=image.uv, faces=faces,
        boundary_loops=walk_boundary_loops(faces, len(image.uv)),
    )
    z = image.complex_view
    i0 = int(np.argmin(z.real + z.imag))
    i1 = int(np.argmax(np.abs(z - z[i0])))
    pins = [
        (i0, (float(z[i0].real), float(z[i0].imag))),
        (i1, (float(z[i1].real), float(z[i1].imag))),
    ]
    try:
        nu = compose_beltrami(source_vertices, faces, image.uv, mu_target)
        corrected = lsqc_flatten(image_mesh, nu, pins=pins)
    except MuOutOfRange:
        # flipped or near-degenerate faces make the composed coefficient
        # inadmissible; kept-best then means "no correction"
        return image
    fd2 = beltrami_per_face(source_vertices, faces, corrected.uv)
    e_after = float(np.abs(fd2.mu_face - mu_target).mean())
    if e_after < e_before:
        return corrected
    return image


# ---------------------------------------------------------------------------
# Global assembly


@dataclass
class GlobalParameterization:
    uv: np.ndarray  # (n_parent, 2)
    submesh_uv: list  # PlanarEmbedding per submesh


def assemble_global(submeshes, embeddings, n_vertices):
    """Merge per-submesh embeddings into uv of the n_vertices parent vertices.

    Cut vertices appear in several submeshes; their copies must agree to
    1e-6 of the overall diameter (a larger gap signals an upstream welding
    bug) and are averaged.
    """
    acc = np.zeros((n_vertices, 2))
    cnt = np.zeros(n_vertices)
    lo = np.full((n_vertices, 2), np.inf)
    hi = np.full((n_vertices, 2), -np.inf)
    for sub, emb in zip(submeshes, embeddings):
        ids = sub.to_parent  # no id twice, so fancy indexing needs no ufunc.at
        acc[ids] += emb.uv
        cnt[ids] += 1
        lo[ids] = np.minimum(lo[ids], emb.uv)
        hi[ids] = np.maximum(hi[ids], emb.uv)
    if np.any(cnt == 0):
        raise SeamMismatch(
            f"parent vertex {int(np.flatnonzero(cnt == 0)[0])} owned by no submesh"
        )
    all_uv = np.concatenate([e.uv for e in embeddings])
    diam = float(np.ptp(all_uv, axis=0).max())
    gap = (hi - lo).max(axis=1)
    worst = float(gap.max())
    if worst > SEAM_RTOL * max(diam, 1e-300):
        raise SeamMismatch(
            f"cut vertex disagreement {worst:.3e} exceeds "
            f"{SEAM_RTOL:.0e} x diameter {diam:.3e}",
            hint="boundary welding drifted; inspect the weld chain",
        )
    uv = acc / cnt[:, None]
    return GlobalParameterization(uv=uv, submesh_uv=list(embeddings))


# ---------------------------------------------------------------------------
# Metrics


@dataclass
class ParamReport:
    e_submesh: list
    e_global: float
    flipped_faces: int
    area_mean_abs: float
    area_hist_counts: list
    area_hist_edges: list
    hole_circularity: list
    timings: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "e_submesh": [float(v) for v in self.e_submesh],
            "e_global": float(self.e_global),
            "flipped_faces": int(self.flipped_faces),
            "area_mean_abs": float(self.area_mean_abs),
            "area_hist_counts": [int(c) for c in self.area_hist_counts],
            "area_hist_edges": [float(x) for x in self.area_hist_edges],
            "hole_circularity": [float(c) for c in self.hole_circularity],
            "timings": {k: float(v) for k, v in self.timings.items()},
        }


def area_distortion(vertices, faces, uv):
    """Logged area ratio per face.

    d(T) = log of (image area share of T) / (source area share of T), where
    shares are normalized by the respective total areas, so uniform scaling
    of either side cancels. Returns (d per face, summary dict).
    """
    src = face_areas(np.asarray(vertices, dtype=float), faces)
    img = face_areas(np.asarray(uv, dtype=float), faces)
    if np.any(src <= 0) or np.any(img <= 0):
        bad = int(np.argmax((src <= 0) | (img <= 0)))
        raise DegenerateFace(f"zero-area face {bad} in area distortion")
    d = np.log((img / img.sum()) / (src / src.sum()))
    counts, edges = np.histogram(d, bins=AREA_BINS)
    summary = {
        "mean_abs": float(np.abs(d).mean()),
        "hist_counts": counts.tolist(),
        "hist_edges": edges.tolist(),
    }
    return d, summary


def disk_automorphism(z, alpha):
    """f(z) = (z - alpha)/(1 - conj(alpha) z)."""
    return (z - alpha) / (1.0 - np.conj(alpha) * z)


ALPHA_RMAX = 1.0 - 1e-3
ALPHA_GRID = 17  # radii and angles per search level
ALPHA_LEVELS = 3  # refinements after the coarse level


def mobius_area_correct(vertices, faces, uv):
    """Search for the disk automorphism minimizing the summed squared logged
    area ratio, and apply it.

    Coarse polar grid over |alpha| <= 1 - 1e-3 followed by local grid
    refinement; deterministic and derivative-free. Falls back to alpha = 0
    (no change) when nothing beats it. Returns (corrected uv, alpha).
    """
    vertices = np.asarray(vertices, dtype=float)
    uv = np.asarray(uv)
    z = uv[:, 0] + 1j * uv[:, 1]
    src = face_areas(vertices, faces)
    if np.any(src <= 0):
        raise DegenerateFace("zero-area face in area correction")
    src_share = src / src.sum()

    def objective(alpha):
        w = disk_automorphism(z, alpha)
        wuv = np.column_stack([w.real, w.imag])
        img = face_areas(wuv, faces)
        total = img.sum()
        if np.any(img <= 0) or not np.isfinite(total) or total <= 0:
            return np.inf
        d = np.log((img / total) / src_share)
        return float((d * d).sum())

    best_alpha = 0.0 + 0.0j
    best_obj = objective(best_alpha)
    r_c, t_c = ALPHA_RMAX / 2.0, 0.0
    r_half, t_half = ALPHA_RMAX / 2.0, np.pi
    for _ in range(ALPHA_LEVELS + 1):
        rs = np.clip(np.linspace(r_c - r_half, r_c + r_half, ALPHA_GRID), 0.0, ALPHA_RMAX)
        ts = np.linspace(t_c - t_half, t_c + t_half, ALPHA_GRID)
        for r in rs:
            for t in ts:
                a = r * np.exp(1j * t)
                val = objective(a)
                if val < best_obj:
                    best_obj, best_alpha = val, a
        r_c, t_c = abs(best_alpha), float(np.angle(best_alpha))
        r_half /= ALPHA_GRID / 2.0
        t_half /= ALPHA_GRID / 2.0
    if abs(best_alpha) == 0.0:
        return uv.copy(), 0.0 + 0.0j
    w = disk_automorphism(z, best_alpha)
    return np.column_stack([w.real, w.imag]), complex(best_alpha)
