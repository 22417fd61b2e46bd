"""The regex OBJ reader, kept as the reference for weldmap.mesh._parse_obj.

It reads the whole text in three regex passes (line kinds, vertex rows, face
rows) and the rows with one np.loadtxt call each, the way the package read
OBJ files before it handed each run of vertex or face lines to np.loadtxt.
`parse_obj` accepts the same texts and returns the same arrays, and raises
the same ParseError (from weldmap.mesh._obj_error) on the others, so a test
can compare the two readers on any text.
"""

import re

import numpy as np

from weldmap.mesh import _obj_error

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
_OBJ_SUFFIX = re.compile(r"(?<=\S)/\S*")  # a suffix after an index
_OBJ_NOT_INT = re.compile(r"[^0-9+\-\s]")
_INT_BYTES = b"0123456789+- \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"  # what _OBJ_NOT_INT lets through in ASCII


def parse_obj(text):
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
    joined = "\n".join(face_rows)
    if "/" in joined:
        joined = _OBJ_SUFFIX.sub("", joined)
        face_rows = joined.splitlines()
    # A vertex row holds 2 or 3 coordinates, the same count on every row.
    # loadtxt reads an integer "via a float" (2.7 as 2), so a face token
    # that is not a plain integer, such as a bare suffix ("/2"), is caught
    # first; bytes.translate does that check on ASCII text at C speed.
    if joined.isascii():
        plain = not joined.encode().translate(None, _INT_BYTES)
    else:
        plain = not _OBJ_NOT_INT.search(joined)
    try:
        if not plain:
            raise ValueError("face token is not an integer")
        coords = _read_rows(rows, np.float64)
        index = _read_rows(face_rows, np.int64)
    except ValueError:
        raise _obj_error(text) from None
    if (
        n_vertices == 0
        or len(rows) != n_vertices
        or len(face_rows) != len(kinds) - n_vertices
        or index.shape != (len(face_rows), 3)
    ):
        raise _obj_error(text)
    seen = np.cumsum(is_vertex)[~is_vertex]
    faces = np.where(index > 0, index - 1, seen[:, None] + index)
    return coords, faces


def _read_rows(rows, dtype):
    """Array of the numbers in text rows, one array row per text row. Raises
    ValueError on rows of different lengths or a token that is not a plain
    ASCII number (such as 1_000)."""
    if not rows:
        return np.empty((0, 3), dtype=dtype)
    return np.loadtxt(rows, dtype=dtype, comments=None, ndmin=2)
