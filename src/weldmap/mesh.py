"""Triangle mesh representation, validation, boundary extraction and file I/O.

Meshes are open, genus-0 surfaces with one outer boundary loop and k >= 0
inner loops.  Faces are counter-clockwise oriented; the induced boundary
direction (interior on the left) makes the outer loop CCW and inner loops CW,
which is the orientation all downstream signed-area formulas assume.
"""

from __future__ import annotations

import io
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
    # half_edge_twins of faces, set by build_mesh
    twin: np.ndarray | None = field(default=None, repr=False, compare=False)

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


def face_areas(vertices, faces):
    """Unsigned triangle areas; works for 2D and 3D vertex arrays."""
    if vertices.shape[1] == 2:
        # take gathers the (m, 3, 2) corners several times faster than
        # vertices[faces] does.
        return np.abs(signed_areas_2d(vertices.take(faces, axis=0)))
    p0 = vertices[faces[:, 0]]
    p1 = vertices[faces[:, 1]]
    p2 = vertices[faces[:, 2]]
    cross = np.cross(p1 - p0, p2 - p0)
    return 0.5 * np.linalg.norm(cross, axis=1)


def signed_areas_2d(c):
    """Signed areas of the triangles of the (m, 3, 2) corner array c,
    positive for counter-clockwise corners."""
    return 0.5 * (
        (c[:, 1, 0] - c[:, 0, 0]) * (c[:, 2, 1] - c[:, 0, 1])
        - (c[:, 1, 1] - c[:, 0, 1]) * (c[:, 2, 0] - c[:, 0, 0])
    )


def half_edge_twins(faces, n_vertices):
    """Half-edge twin table of a face set, from one sort of directed edges.

    Half-edge 3 * f + k runs faces[f, k] -> faces[f, (k + 1) % 3]. Entry
    [f, k] of the (m, 3) result is the half-edge that runs the same edge the
    other way, or -1 when no face does (a boundary half-edge). Raises
    NonManifold when a directed edge appears twice.
    """
    tail = faces.ravel()
    head = faces[:, [1, 2, 0]].ravel()
    keys = tail * n_vertices + head
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if np.any(keys[1:] == keys[:-1]):
        raise NonManifold("an edge appears twice with the same direction")
    reverse = head * n_vertices + tail
    at = np.searchsorted(keys, reverse)
    # Keys are >= 0, so the -1 past the end never matches a reversed edge.
    found = np.append(keys, -1)[at] == reverse
    return np.where(found, np.append(order, -1)[at], -1).reshape(faces.shape)


def build_mesh(vertices, faces, twin=None):
    """Validate raw arrays and return a TriangleMesh with boundary loops.

    A given twin is taken as the twin table of faces (half_edge_twins), such
    as one cut out of a parent mesh's. Raises ParseError (a non-finite
    coordinate among them), NonManifold, WrongTopology or DegenerateFace on
    invalid input.
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

    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if len(bad):
        raise ParseError(
            f"vertex {int(bad[0])} has a non-finite coordinate",
            hint="give every vertex finite coordinates",
        )

    scale = float(np.max(np.abs(vertices))) or 1.0
    planar = vertices.shape[1] == 2
    signed = signed_areas_2d(vertices.take(faces, axis=0)) if planar else None
    areas = np.abs(signed) if planar else face_areas(vertices, faces)
    if np.any(areas <= _AREA_TOL * scale * scale):
        bad = int(np.argmin(areas))
        raise DegenerateFace(f"face {bad} has (near) zero area")

    if planar:
        if np.any(signed < 0):
            if np.all(signed < 0):
                raise WrongTopology("2D mesh is clockwise oriented; expected CCW")
            raise NonManifold("2D mesh has mixed face orientations")

    # Each directed edge at most once, which also keeps every undirected
    # edge to at most two faces, run in opposite directions.
    if twin is None:
        twin = half_edge_twins(faces, len(vertices))
    on_boundary = twin < 0
    loops = _walk_loops(faces, on_boundary)
    if not loops:
        raise WrongTopology("closed surface (no boundary)")

    # Interior edges have two half-edges, boundary edges one.
    n_edges = (twin.size + int(np.count_nonzero(on_boundary))) // 2
    chi = len(vertices) - n_edges + len(faces)
    k = len(loops) - 1
    if chi != 1 - k:
        unused = np.flatnonzero(np.bincount(faces.ravel(), minlength=len(vertices)) == 0)
        raise WrongTopology(
            f"Euler characteristic {chi} incompatible with genus-0 surface "
            f"with {k + 1} boundary loops (expected {1 - k})"
            + (f": vertex {int(unused[0])} is in no face" if len(unused) else ""),
            hint="remove the vertices that no face uses" if len(unused) else None,
        )
    # Outer loop = largest 3D perimeter; stable for all fixtures.
    perimeters = [
        float(np.linalg.norm(vertices[lp] - vertices[np.roll(lp, -1)], axis=1).sum())
        for lp in loops
    ]
    outer = max(range(len(loops)), key=lambda i: (perimeters[i], -i))
    loops.insert(0, loops.pop(outer))
    return TriangleMesh(vertices=vertices, faces=faces, boundary_loops=loops, twin=twin)


def walk_boundary_loops(faces, n_vertices):
    """Boundary loops of a face set (see _walk_loops); a boundary half-edge
    is one without a twin."""
    return _walk_loops(faces, half_edge_twins(faces, n_vertices) < 0)


def region_twins(mesh, face_ids):
    """The twin table of the face set face_ids of mesh, cut out of the
    mesh's: half-edge 3 i + k is corner k of face face_ids[i], and an entry
    is -1 across the set's boundary, where the twin is missing or in a face
    outside the set."""
    local = np.full(mesh.n_faces, -1, dtype=np.int64)
    local[face_ids] = np.arange(len(face_ids))
    twin = mesh.twin[face_ids]
    across = local[twin // 3]  # twin -1 reads the last face
    return np.where((twin >= 0) & (across >= 0), 3 * across + twin % 3, -1)


def _walk_loops(faces, on_boundary):
    """Boundary loops of faces whose half-edges are flagged in the (m, 3)
    mask on_boundary (see chain_loops), directed by face orientation."""
    return chain_loops(faces[on_boundary], faces[:, [1, 2, 0]][on_boundary])


def chain_loops(tails, heads):
    """Chain the directed edges tails[i] -> heads[i] into loops.

    Each loop starts at its smallest vertex id, and loops are ordered by
    that start. Raises NonManifold when the edges branch at a vertex.
    """
    sorted_tails = np.sort(tails)
    repeated = sorted_tails[1:][sorted_tails[1:] == sorted_tails[:-1]]
    if len(repeated):
        raise NonManifold(
            f"boundary vertex {int(repeated[0])} has two outgoing boundary edges"
        )
    remaining = dict(zip(tails.tolist(), heads.tolist()))
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


def load_mesh(path):
    """Load and validate an OBJ or OFF mesh file; the extension picks the
    reader, and a path without one is read as OBJ."""
    ext = os.path.splitext(path)[1].lower()
    parse = {"": _parse_obj, ".obj": _parse_obj, ".off": _parse_off}.get(ext)
    if parse is None:
        raise ParseError(f"cannot infer mesh format from {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    vertices, faces = parse(text)
    return build_mesh(vertices, faces)


# OBJ records are read from the text with its line breaks normalised to
# "\n" and one "\n" put in front, so every line starts after a "\n". A
# vertex line is "v" and 2 or more coordinates, of which the first 3 are
# read; a face line is "f" and exactly 3 tokens, each an index optionally
# followed by "/vt", "/vt/vn" or "//vn". One regex pass finds each run of
# consecutive vertex lines, or of face lines (possessive, so it never
# backtracks); the runs of each kind are joined and read by one np.loadtxt
# call, so the cost does not grow with the number of runs.
_WS = r"[^\S\n]"  # whitespace inside a line, as str.split() splits on
_OBJ_RUN = re.compile(
    rf"(?P<v>(?:\n{_WS}*+v(?!\S)[^\n]*+)++)|(?P<f>(?:\n{_WS}*+f(?!\S)[^\n]*+)++)"
)
_OBJ_SUFFIX = re.compile(r"(?<=\S)/\S*")  # a suffix after an index
_OBJ_NOT_INT = re.compile(r"[^0-9+\-\s]")
_INT_BYTES = b"0123456789+- \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"  # what _OBJ_NOT_INT lets through in ASCII
# The ASCII line breaks of str.splitlines other than "\n".
_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


def _parse_obj(text):
    """Vertex and face arrays of an OBJ text; other records are ignored.

    A relative (negative) face index counts back from the vertices defined
    before its face line.
    """
    lines = text
    if not text.isascii() or any(brk in text for brk in _LINE_BREAKS):
        lines = "\n".join(text.splitlines())
    lines = "\n" + lines
    vertex_runs, face_runs = [], []
    face_rows, face_seen = [], []  # per face run: its lines, the vertices before it
    seen = 0
    for run in _OBJ_RUN.finditer(lines):
        block = run.group()
        n = block.count("\n")
        if run.lastgroup == "v":
            vertex_runs.append(block)
            seen += n
        else:
            face_runs.append(block)
            face_rows.append(n)
            face_seen.append(seen)
    if not seen:
        raise _obj_error(text)
    vertex_lines = "".join(vertex_runs)
    # The first vertex line sets the count for every line.
    width = min(len(vertex_lines.split("\n", 2)[1].split()) - 1, 3)
    try:
        coords = _read_vertices(vertex_lines, seen, width)
        index = _read_faces("".join(face_runs), sum(face_rows))
    except ValueError:
        raise _obj_error(text) from None
    before = np.repeat(np.array(face_seen, dtype=np.int64), face_rows)[:, None]
    return coords, np.where(index > 0, index - 1, before + index)


def _read_vertices(block, n, width):
    """The first width coordinates of each of the n "v" lines of block.
    Raises ValueError unless every line has width numbers there, and none
    has a third coordinate when width is 2."""
    if width == 3:
        # Numbers after the third (such as a vertex colour) are not read.
        return _loadtxt(block, np.float64, (1, 2, 3))
    # A "v" in a coordinate would read as 0 below; it is not a number.
    if width != 2 or block.count("v") != n:
        raise ValueError("bad vertex")
    rows = _loadtxt(block.replace("v", "0"), np.float64, None)
    if rows.shape != (n, 3):
        raise ValueError("vertex lines mix coordinate counts")
    return rows[:, 1:]


def _read_faces(block, n):
    """The (n, 3) indices of the n "f" lines of block, suffixes dropped.
    Raises ValueError unless every line has 3 plain integer tokens."""
    if not n:
        return np.empty((0, 3), dtype=np.int64)
    if "/" in block:
        block = _OBJ_SUFFIX.sub("", block)
    # loadtxt reads an integer "via a float" (2.7 as 2), so a token that is
    # not a plain integer, such as a bare suffix ("/2"), is caught first:
    # only the "f" of each line may be left. bytes.translate does that check
    # on ASCII text at C speed.
    if block.isascii():
        plain = block.encode().translate(None, _INT_BYTES) == b"f" * n
    else:
        plain = "".join(_OBJ_NOT_INT.findall(block)) == "f" * n
    if not plain:
        raise ValueError("face token is not an integer")
    index = _loadtxt(block.replace("f", "0"), np.int64, None)
    if index.shape != (n, 4):
        raise ValueError("face is not a triangle")
    return index[:, 1:]


def _loadtxt(block, dtype, usecols):
    """np.loadtxt of the lines of block (the columns usecols, or all of
    them): an array row per line. Raises ValueError on lines of different
    lengths or a token that is not a plain ASCII number (such as 1_000)."""
    return np.loadtxt(io.StringIO(block), dtype=dtype, comments=None, ndmin=2, usecols=usecols)


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
                dims.add(len([_number(x, float) for x in parts[1:4]]))
            except ValueError:
                return ParseError(f"OBJ line {lineno}: bad vertex coordinate")
        elif parts[:1] == ["f"]:
            if len(parts) != 4:
                return ParseError(f"OBJ line {lineno}: only triangles supported")
            for tok in parts[1:]:
                try:
                    _number(tok.split("/")[0], int)
                except ValueError:
                    return ParseError(f"OBJ line {lineno}: bad face token {tok!r}")
    if not dims:
        return ParseError("OBJ file contains no vertices")
    if len(dims) != 1:
        return ParseError("OBJ vertices mix 2D and 3D coordinates")
    return ParseError("OBJ face index out of range")


def _number(token, kind):
    """kind(token) for the tokens _loadtxt reads: float() and int() also
    take "_" separators and non-ASCII digits, which it rejects."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not a plain number: {token!r}")
    return kind(token)


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
    # Each face corner is "i/i", its 1-based vertex index twice: formatted
    # once per vertex, not once per corner.
    corner = np.array([f"{i}/{i}" for i in range(1, mesh.n_vertices + 1)], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        _write_records(fh, v_record, mesh.vertices)
        _write_records(fh, "vt %.17g %.17g\n", uv[:, :2])
        _write_records(fh, "f %s %s %s\n", corner[mesh.faces])


def _write_records(fh, record, rows):
    """Write one %-formatted record per row of rows, _WRITE_ROWS at a time."""
    for start in range(0, len(rows), _WRITE_ROWS):
        chunk = rows[start : start + _WRITE_ROWS]
        fh.write(record * len(chunk) % tuple(chunk.ravel().tolist()))
