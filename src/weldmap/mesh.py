"""Triangle mesh representation, validation, boundary extraction and file I/O.

Meshes are open, genus-0 surfaces with one outer boundary loop and k >= 0
inner loops.  Faces are counter-clockwise oriented; the induced boundary
direction (interior on the left) makes the outer loop CCW and inner loops CW,
which is the orientation all downstream signed-area formulas assume.
"""

from __future__ import annotations

import os
import re
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
    keys = np.sort(u * n_vertices + v)
    reverse = v * n_vertices + u
    # Keys are >= 0, so the -1 past the end never matches a reversed edge.
    is_boundary = np.append(keys, -1)[np.searchsorted(keys, reverse)] != reverse
    bu = u[is_boundary]
    bv = v[is_boundary]
    sorted_bu = np.sort(bu)
    repeated = sorted_bu[1:][sorted_bu[1:] == sorted_bu[:-1]]
    if len(repeated):
        raise NonManifold(
            f"boundary vertex {int(repeated[0])} has two outgoing boundary edges"
        )
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


# OBJ records are matched on the text with its line breaks normalised to
# "\n" and one "\n" put in front, so every line starts after a "\n" (a
# literal start lets the regex engine skip between lines). A vertex line is
# "v" and 2 or more coordinates, of which the first 3 are read; a face line
# is "f" and exactly 3 tokens, each an index optionally followed by "/vt",
# "/vt/vn" or "//vn".
_WS = r"[^\S\n]"  # whitespace inside a line, as str.split() splits on
_OBJ_KIND = re.compile(rf"\n{_WS}*([vf])(?!\S)")
_OBJ_V = re.compile(rf"\n{_WS}*v{_WS}+(\S+{_WS}+\S+(?:{_WS}+\S+)?)")
_OBJ_F = re.compile(rf"\n{_WS}*f{_WS}+(\S+{_WS}+\S+{_WS}+\S+){_WS}*(?![^\n])")
_OBJ_SUFFIX = re.compile(r"/\S*")


def _parse_obj(text):
    """Vertex and face arrays of an OBJ text; other records are ignored.

    A relative (negative) face index counts back from the vertices defined
    before its face line.
    """
    lines = "\n" + "\n".join(text.splitlines())
    kinds = np.frombuffer("".join(_OBJ_KIND.findall(lines)).encode(), np.uint8)
    is_vertex = kinds == ord("v")
    n_vertices = int(np.count_nonzero(is_vertex))
    rows = _OBJ_V.findall(lines)
    face_rows = _OBJ_F.findall(lines)
    try:
        coords = np.array(" ".join(rows).split(), dtype=np.float64)
        index = np.array(
            _OBJ_SUFFIX.sub("", " ".join(face_rows)).split(), dtype=np.int64
        )
    except (ValueError, OverflowError):
        raise _obj_error(text) from None
    # Every matched vertex row holds 2 or 3 coordinates, so all rows hold the
    # same number exactly when the total is 2 or 3 per row.
    if (
        n_vertices == 0
        or len(rows) != n_vertices
        or len(coords) not in (2 * n_vertices, 3 * n_vertices)
        or len(face_rows) != len(kinds) - n_vertices
        or len(index) != 3 * len(face_rows)
    ):
        raise _obj_error(text)
    index = index.reshape(-1, 3)
    seen = np.cumsum(is_vertex)[~is_vertex]
    faces = np.where(index > 0, index - 1, seen[:, None] + index)
    return coords.reshape(n_vertices, -1), faces


def _obj_error(text):
    """ParseError naming the first OBJ line that breaks the accepted subset.

    Only called after a failed read, to report where the file went wrong.
    """
    dims = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if parts[:1] == ["v"]:
            if len(parts) < 3:
                return ParseError(f"OBJ line {lineno}: bad vertex")
            try:
                dims.add(len([float(x) for x in parts[1:4]]))
            except ValueError:
                return ParseError(f"OBJ line {lineno}: bad vertex coordinate")
        elif parts[:1] == ["f"]:
            if len(parts) != 4:
                return ParseError(f"OBJ line {lineno}: only triangles supported")
            for tok in parts[1:]:
                try:
                    int(tok.split("/")[0])
                except ValueError:
                    return ParseError(f"OBJ line {lineno}: bad face token {tok!r}")
    if not dims:
        return ParseError("OBJ file contains no vertices")
    if len(dims) != 1:
        return ParseError("OBJ vertices mix 2D and 3D coordinates")
    return ParseError("OBJ face index out of range")


_OFF_COMMENT = re.compile(r"#[^\n]*")


def _parse_off(text):
    """Vertex and face arrays of an OFF text, read as one token stream:
    the header "OFF", the vertex, face and (unused) edge counts, 3
    coordinates per vertex, then "3 i j k" per face. A "#" starts a comment
    that runs to the end of its line.
    """
    tokens = _OFF_COMMENT.sub("", "\n".join(text.splitlines())).split()
    if not tokens or tokens[0] != "OFF":
        raise ParseError("missing OFF header")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
        if nv < 0 or nf < 0:
            raise ValueError("negative vertex or face count")
        pos = 4 + 3 * nv  # the edge count is skipped
        vertices = np.array(tokens[4:pos], dtype=np.float64).reshape(nv, 3)
    except (ValueError, IndexError) as exc:
        raise ParseError(f"malformed OFF file: {exc}") from exc
    try:
        records = np.array(tokens[pos : pos + 4 * nf], dtype=np.int64).reshape(nf, 4)
    except (ValueError, OverflowError):
        raise _off_face_error(tokens, pos, nf) from None
    if np.any(records[:, 0] != 3):
        raise _off_face_error(tokens, pos, nf)
    return vertices, records[:, 1:]


def _off_face_error(tokens, pos, nf):
    """ParseError naming what is wrong with the first bad OFF face record.

    Only called after a failed read, to report where the file went wrong.
    """
    for start in range(pos, pos + 4 * nf, 4):
        record = tokens[start : start + 4]
        try:
            if int(record[0]) != 3:
                return ParseError("only triangular OFF faces supported")
            if len(record) < 4:
                raise IndexError("face record cut short")
            for t in record[1:]:
                int(t)
        except (ValueError, IndexError) as exc:
            return ParseError(f"malformed OFF file: {exc}")
    return ParseError("malformed OFF file: face index out of int64 range")


# Rows formatted per write: bounds the transient tuple and string of one
# write to a few MB on any mesh.
_WRITE_ROWS = 1 << 14


def save_obj_with_uv(path, mesh, uv):
    """Write the mesh with per-vertex UV as `vt` records and `f v/vt` faces."""
    uv = np.asarray(uv, dtype=np.float64)
    v_record = "v %.17g %.17g 0\n" if mesh.is_planar else "v %.17g %.17g %.17g\n"
    # Each face corner is "i/i": its 1-based vertex index twice.
    corners = np.broadcast_to((mesh.faces + 1)[:, :, None], (mesh.n_faces, 3, 2))
    with open(path, "w", encoding="utf-8") as fh:
        _write_records(fh, v_record, mesh.vertices)
        _write_records(fh, "vt %.17g %.17g\n", uv[:, :2])
        _write_records(fh, "f %d/%d %d/%d %d/%d\n", corners)


def _write_records(fh, record, rows):
    """Write one %-formatted record per row of rows, _WRITE_ROWS at a time."""
    for start in range(0, len(rows), _WRITE_ROWS):
        chunk = rows[start : start + _WRITE_ROWS]
        fh.write(record * len(chunk) % tuple(chunk.ravel().tolist()))
