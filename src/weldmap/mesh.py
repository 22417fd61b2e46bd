"""Triangle mesh representation, validation, boundary extraction and file I/O.

Meshes are open, genus-0 surfaces with one outer boundary loop and k >= 0
inner loops.  Faces are counter-clockwise oriented; the induced boundary
direction (interior on the left) makes the outer loop CCW and inner loops CW,
which is the orientation all downstream signed-area formulas assume.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFace, NonManifold, ParseError, WrongTopology

_AREA_TOL = 1e-14


@dataclass
class TriangleMesh:
    """Validated triangle mesh. Treat as immutable after construction."""

    vertices: np.ndarray  # (n, 2) or (n, 3) float64
    faces: np.ndarray  # (m, 3) int64, CCW
    boundary_loops: list = field(default_factory=list)  # loop 0 is the outer one

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_faces(self):
        return self.faces.shape[0]

    @property
    def is_planar(self):
        return self.vertices.shape[1] == 2

    @property
    def n_holes(self):
        return len(self.boundary_loops) - 1

    def boundary_vertices(self):
        """All boundary vertex indices (unordered, unique)."""
        if not self.boundary_loops:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(self.boundary_loops))

    def face_areas(self):
        return face_areas(self.vertices, self.faces)


def face_areas(vertices, faces):
    """Unsigned triangle areas; works for 2D and 3D vertex arrays."""
    p0 = vertices[faces[:, 0]]
    p1 = vertices[faces[:, 1]]
    p2 = vertices[faces[:, 2]]
    if vertices.shape[1] == 2:
        cross = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (
            p1[:, 1] - p0[:, 1]
        ) * (p2[:, 0] - p0[:, 0])
        return 0.5 * np.abs(cross)
    cross = np.cross(p1 - p0, p2 - p0)
    return 0.5 * np.linalg.norm(cross, axis=1)


def signed_face_areas_2d(vertices, faces):
    p0 = vertices[faces[:, 0]]
    p1 = vertices[faces[:, 1]]
    p2 = vertices[faces[:, 2]]
    cross = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p1[:, 1] - p0[:, 1]) * (
        p2[:, 0] - p0[:, 0]
    )
    return 0.5 * cross


def _directed_edges(faces):
    """Face edges as parallel arrays (u, v), each directed u -> v along its face."""
    u = np.concatenate([faces[:, 0], faces[:, 1], faces[:, 2]])
    v = np.concatenate([faces[:, 1], faces[:, 2], faces[:, 0]])
    return u, v


def edge_face_counts(faces, n_vertices):
    """Number of faces on each distinct undirected edge of a face set.

    Edges are packed into 1-D keys min * n_vertices + max, so the length of
    the result is the edge count of the face set.
    """
    u, v = _directed_edges(faces)
    keys = np.minimum(u, v) * n_vertices + np.maximum(u, v)
    return np.unique(keys, return_counts=True)[1]


def build_mesh(vertices, faces):
    """Validate raw arrays and return a TriangleMesh with boundary loops.

    Raises NonManifold, WrongTopology or DegenerateFace on invalid input.
    """
    vertices = np.ascontiguousarray(vertices, dtype=np.float64)
    faces = np.ascontiguousarray(faces, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] not in (2, 3):
        raise ParseError("vertices must be (n, 2) or (n, 3)")
    if faces.ndim != 2 or faces.shape[1] != 3:
        raise ParseError("faces must be (m, 3)")
    if faces.size and (faces.min() < 0 or faces.max() >= len(vertices)):
        raise ParseError("face index out of range")
    if faces.shape[0] == 0:
        raise WrongTopology("mesh has no faces")

    scale = float(np.max(np.abs(vertices))) or 1.0
    areas = face_areas(vertices, faces)
    if np.any(areas <= _AREA_TOL * scale * scale):
        bad = int(np.argmin(areas))
        raise DegenerateFace(f"face {bad} has (near) zero area")

    if vertices.shape[1] == 2:
        signed = signed_face_areas_2d(vertices, faces)
        if np.any(signed < 0):
            if np.all(signed < 0):
                raise WrongTopology("2D mesh is clockwise oriented; expected CCW")
            raise NonManifold("2D mesh has mixed face orientations")

    # Directed-edge multiset: each directed edge at most once, each undirected
    # edge at most twice and never twice in the same direction.
    u, v = _directed_edges(faces)
    _, counts = np.unique(u * len(vertices) + v, return_counts=True)
    if np.any(counts > 1):
        raise NonManifold("an edge appears twice with the same direction")
    ucounts = edge_face_counts(faces, len(vertices))
    if np.any(ucounts > 2):
        raise NonManifold("an edge is shared by more than 2 faces")

    loops = walk_boundary_loops(faces, len(vertices))
    if not loops:
        raise WrongTopology("closed surface (no boundary)")

    chi = len(vertices) - len(ucounts) + len(faces)
    k = len(loops) - 1
    if chi != 1 - k:
        raise WrongTopology(
            f"Euler characteristic {chi} incompatible with genus-0 surface "
            f"with {k + 1} boundary loops (expected {1 - k})"
        )
    # Outer loop = largest 3D perimeter; stable for all fixtures.
    perimeters = [
        float(np.linalg.norm(vertices[lp] - vertices[np.roll(lp, -1)], axis=1).sum())
        for lp in loops
    ]
    outer = max(range(len(loops)), key=lambda i: (perimeters[i], -i))
    loops.insert(0, loops.pop(outer))
    return TriangleMesh(vertices=vertices, faces=faces, boundary_loops=loops)


def walk_boundary_loops(faces, n_vertices):
    """Boundary loops of a face set, directed by face orientation.

    A boundary directed edge is a face edge whose reversal is absent. Each
    loop starts at its smallest vertex id, and loops are ordered by that
    start. Raises NonManifold when the boundary branches at a vertex.
    """
    u, v = _directed_edges(faces)
    is_boundary = ~np.isin(v * n_vertices + u, u * n_vertices + v)
    bu = u[is_boundary]
    bv = v[is_boundary]
    uniq_bu, bu_counts = np.unique(bu, return_counts=True)
    if np.any(bu_counts > 1):
        bad = int(uniq_bu[np.argmax(bu_counts > 1)])
        raise NonManifold(f"boundary vertex {bad} has two outgoing boundary edges")
    remaining = dict(zip(bu.tolist(), bv.tolist()))
    loops = []
    while remaining:
        start = min(remaining)
        loop = [start]
        cur = remaining.pop(start)
        while cur != start:
            loop.append(cur)
            if cur not in remaining:
                raise NonManifold("boundary edges do not close into loops")
            cur = remaining.pop(cur)
        loops.append(np.asarray(loop, dtype=np.int64))
    return loops


# ---------------------------------------------------------------------------
# File I/O


def load_mesh(path, fmt=None):
    """Load and validate an OBJ or OFF mesh file.

    The format is inferred from the extension unless given explicitly.
    """
    if fmt is None:
        ext = os.path.splitext(path)[1].lower()
        fmt = {"": "obj", ".obj": "obj", ".off": "off"}.get(ext)
        if fmt is None:
            raise ParseError(f"cannot infer mesh format from {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    if fmt == "obj":
        vertices, faces = _parse_obj(text)
    elif fmt == "off":
        vertices, faces = _parse_off(text)
    else:
        raise ParseError(f"unknown mesh format {fmt!r}")
    return build_mesh(vertices, faces)


def _parse_obj(text):
    vertices = []
    faces = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            if len(parts) < 3:
                raise ParseError(f"OBJ line {lineno}: bad vertex")
            vertices.append([float(x) for x in parts[1:4]] if len(parts) >= 4
                            else [float(parts[1]), float(parts[2])])
        elif parts[0] == "f":
            if len(parts) != 4:
                raise ParseError(f"OBJ line {lineno}: only triangles supported")
            idx = []
            for tok in parts[1:]:
                try:
                    i = int(tok.split("/")[0])
                except ValueError as exc:
                    raise ParseError(f"OBJ line {lineno}: bad face token {tok!r}") from exc
                idx.append(i - 1 if i > 0 else len(vertices) + i)
            faces.append(idx)
    if not vertices:
        raise ParseError("OBJ file contains no vertices")
    dims = {len(v) for v in vertices}
    if len(dims) != 1:
        raise ParseError("OBJ vertices mix 2D and 3D coordinates")
    return np.asarray(vertices, dtype=np.float64), np.asarray(faces, dtype=np.int64)


def _parse_off(text):
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if not tokens or tokens[0] != "OFF":
        raise ParseError("missing OFF header")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
        pos = 4  # skip edge count
        vertices = np.asarray(
            [float(t) for t in tokens[pos : pos + 3 * nv]], dtype=np.float64
        ).reshape(nv, 3)
        pos += 3 * nv
        faces = []
        for _ in range(nf):
            cnt = int(tokens[pos])
            if cnt != 3:
                raise ParseError("only triangular OFF faces supported")
            faces.append([int(t) for t in tokens[pos + 1 : pos + 4]])
            pos += 1 + cnt
    except (ValueError, IndexError) as exc:
        raise ParseError(f"malformed OFF file: {exc}") from exc
    return vertices, np.asarray(faces, dtype=np.int64)


def save_obj_with_uv(path, mesh, uv):
    """Write the mesh with per-vertex UV as `vt` records and `f v/vt` faces."""
    uv = np.asarray(uv, dtype=np.float64)
    lines = []
    for p in mesh.vertices:
        coords = " ".join(f"{x:.17g}" for x in p)
        if mesh.is_planar:
            coords += " 0"
        lines.append(f"v {coords}")
    for q in uv:
        lines.append(f"vt {q[0]:.17g} {q[1]:.17g}")
    for f in mesh.faces:
        a, b, c = (int(i) + 1 for i in f)
        lines.append(f"f {a}/{a} {b}/{b} {c}/{c}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
