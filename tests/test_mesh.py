import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obj_reference
from weldmap.errors import (
    DegenerateFace,
    NonManifold,
    ParseError,
    WrongTopology,
)
from weldmap.mesh import (
    TriangleMesh,
    _parse_obj,
    _parse_off,
    build_mesh,
    load_mesh,
    region_loops,
    save_obj_with_uv,
    walk_boundary_loops,
)

from fixtures import (
    annulus_mesh,
    curved_annulus,
    disk_mesh,
    grid_mesh,
    hemisphere_cap,
    single_triangle,
    square_hole,
    two_hole_grid,
)


def test_square_grid_boundary():
    m = grid_mesh(4, 4)
    assert m.n_vertices == 25
    assert m.n_faces == 32
    assert len(m.boundary_loops) == 1
    assert len(m.boundary_loops[0]) == 16


def test_grid_with_hole_has_inner_loop():
    m = grid_mesh(8, 8, hole_cells=square_hole(3, 3, 2))
    assert m.n_holes == 1
    outer, inner = m.boundary_loops
    assert len(outer) == 32
    assert len(inner) == 8


def test_loop_orientation():
    m = grid_mesh(8, 8, hole_cells=square_hole(3, 3, 2))

    def signed_area(loop):
        p = m.vertices[loop]
        q = np.roll(p, -1, axis=0)
        return 0.5 * np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1])

    assert signed_area(m.boundary_loops[0]) > 0  # outer CCW
    assert signed_area(m.boundary_loops[1]) < 0  # hole CW


def test_annulus_euler():
    m = annulus_mesh()
    assert m.n_holes == 1


def test_cw_mesh_rejected():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(WrongTopology):
        build_mesh(v, np.array([[0, 2, 1]]))


def test_degenerate_face_rejected():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DegenerateFace):
        build_mesh(v, np.array([[0, 1, 2]]))


def test_duplicate_directed_edge_rejected():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NonManifold):
        build_mesh(v, np.array([[0, 1, 2], [0, 1, 3]]))


def test_bad_index_rejected():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ParseError):
        build_mesh(v, np.array([[0, 1, 7]]))


def test_obj_roundtrip(tmp_path):
    m = disk_mesh(n_rings=3, n_sect=8)
    uv = m.vertices.copy()
    path = tmp_path / "disk.obj"
    save_obj_with_uv(path, m, uv)
    m2 = load_mesh(path)
    assert m2.n_vertices == m.n_vertices
    assert np.array_equal(m2.faces, m.faces)
    np.testing.assert_allclose(m2.vertices[:, :2], m.vertices, atol=0)


def test_off_parse(tmp_path):
    path = tmp_path / "tri.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    m = load_mesh(path)
    assert m.n_faces == 1


# ---------------------------------------------------------------------------
# OFF reader contract

_SQUARE_OFF = "OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n"


def test_off_comments_are_skipped():
    text = (
        "# a square\nOFF # header\n4 2 0\n0 0 0\n1 0 0 # corner\n#1 9 9\n"
        "  1 1 0\n\n0 1 0\n3 0 1 2\n3 0 2 3 # last\n"
    )
    for t in (text, text.replace("\n", "\r\n"), text.replace("\n", "\r")):
        v, f = _parse_off(t)
        assert v.dtype == np.float64 and f.dtype == np.int64
        assert np.array_equal(v, np.column_stack([_SQUARE_2D, np.zeros(4)]))
        assert np.array_equal(f, _SQUARE_FACES)


@pytest.mark.parametrize(
    "text, message",
    [
        ("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n", "only triangular"),
        (_SQUARE_OFF.replace("3 0 1 2\n", "4 0 1 2 3\n"), "only triangular"),
        (_SQUARE_OFF.replace("3 0 2 3\n", ""), "malformed OFF file"),
        (_SQUARE_OFF.replace("3 0 2 3\n", "3 0 2\n"), "malformed OFF file"),
        ("OFF\n4 2 0\n0 0 0\n1 0 0\n1 1\n", "malformed OFF file"),
        (_SQUARE_OFF.replace("3 0 2 3", "3 0 x 3"), "malformed OFF file"),
        (_SQUARE_OFF.replace("1 1 0", "1 one 0"), "malformed OFF file"),
        ("OFF\n4\n", "malformed OFF file"),
        (_SQUARE_OFF.replace("OFF\n", ""), "missing OFF header"),
        (_SQUARE_OFF.replace("OFF", "COFF"), "missing OFF header"),
        ("# only a comment\n", "missing OFF header"),
    ],
)
def test_off_parse_errors(text, message):
    with pytest.raises(ParseError, match=message):
        _parse_off(text)


def test_off_without_faces_has_no_faces(tmp_path):
    text = "OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n"
    assert _parse_off(text)[1].shape == (0, 3)
    path = tmp_path / "points.off"
    path.write_text(text)
    with pytest.raises(WrongTopology, match="no faces"):
        load_mesh(path)


def test_unknown_mesh_extension_is_parse_error(tmp_path):
    path = str(tmp_path / "surface.stl")
    with pytest.raises(ParseError, match="cannot infer mesh format") as info:
        load_mesh(path)
    assert path in str(info.value)


def test_off_reader_matches_obj_reader(tmp_path):
    m = two_hole_grid(30)
    obj = tmp_path / "m.obj"
    save_obj_with_uv(obj, m, m.vertices)
    off = tmp_path / "m.off"
    with open(off, "w", encoding="utf-8") as fh:
        fh.write(f"OFF\n{m.n_vertices} {m.n_faces} 0\n")
        fh.writelines(f"{x!r} {y!r} 0\n" for x, y in m.vertices.tolist())
        fh.writelines(f"3 {a} {b} {c}\n" for a, b, c in m.faces.tolist())
    v_obj, f_obj = _parse_obj(obj.read_text())
    v_off, f_off = _parse_off(off.read_text())
    assert np.array_equal(v_off.view(np.int64), v_obj.view(np.int64))
    assert np.array_equal(f_off, f_obj)


# ---------------------------------------------------------------------------
# OBJ reader contract

_SQUARE_2D = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
_SQUARE_FACES = np.array([[0, 1, 2], [0, 2, 3]])


def _check_square(text, vertices=_SQUARE_2D):
    v, f = _parse_obj(text)
    assert v.dtype == np.float64 and f.dtype == np.int64
    assert np.array_equal(v, vertices)
    assert np.array_equal(f, _SQUARE_FACES)


def test_obj_face_tokens_with_texture_and_normal_indices():
    head = "v 0 0\nv 1 0\nv 1 1\nv 0 1\n"
    _check_square(head + "f 1/1/1 2/2/1 3/3/1\nf 1/1/1 3/3/1 4/4/1\n")
    _check_square(head + "f 1//1 2//1 3//1\nf 1//1 3//1 4//1\n")
    _check_square(head + "f 1/5 2/6 3/7\nf 1/5 3/7 4/8\n")


def test_obj_negative_indices_count_vertices_defined_so_far():
    _check_square("v 0 0\nv 1 0\nv 1 1\nf -3 -2 -1\nv 0 1\nf 1 -2 -1\n")
    _check_square("v 0 0\nv 1 0\nv 1 1\nv 0 1\nf -4 -3 -2\nf -4/1 -2//3 -1\n")


def test_obj_ignores_comments_blank_lines_and_other_records():
    text = (
        "# a square\n\n   \no square\ng grp\ns 1\n"
        "v 0 0\nvt 0 0\nvn 0 0 1\nv 1 0\n#v 9 9\n  v\t1 1\nv 0 1   \n"
        "\tf 1 2 3\n# f 1 1 1\nf 1 3 4\n"
    )
    _check_square(text)
    _check_square(text.replace("\n", "\r\n"))
    _check_square(text.replace("\n", "\r"))


def test_obj_vertex_colors_and_3d_files():
    square_3d = np.column_stack([_SQUARE_2D, [0.5, -0.0, 1e-300, 2.0]])
    colors = "v 0 0 0.5 1 0 0\nv 1 0 -0.0 0 1 0\nv 1 1 1e-300 0 0 1\nv 0 1 2 1 1 1\n"
    _check_square(colors + "f 1 2 3\nf 1 3 4\n", square_3d)
    plain = "v 0 0 0.5\nv 1 0 -0.0\nv 1 1 1e-300\nv 0 1 2\nf 1 2 3\nf 1 3 4\n"
    _check_square(plain, square_3d)
    assert np.signbit(_parse_obj(plain)[0][1, 2])


@pytest.mark.parametrize(
    "text, message",
    [
        ("v 0 0\nv 1 0 0\nv 1 1\nf 1 2 3\n", "mix 2D and 3D"),
        ("v 0 0\nv 1 0\nv 1 1\nv 0 1\nf 1 2 3 4\n", "line 5: only triangles"),
        ("v 0 0\nv 1 0\nv 1 1\nf 1 2\n", "line 4: only triangles"),
        ("v 0 0\nv 1 0\nv 1 1\nf 1 x 3\n", "line 4: bad face token 'x'"),
        ("v 0 0\nv 1 0\nv 1 1\nf 1 /2 3\n", "line 4: bad face token '/2'"),
        ("v 0 0\nv 1 0\nv 1 1\nf /1 /2 /3\n", "line 4: bad face token '/1'"),
        ("v 0 0\nv 1 0\nv 1 1\nf 1 2 3\nf /1 /2 /3\n", "line 5: bad face token '/1'"),
        ("v 0 0\nv 1 0\nv 1 1\nf 1.5 2 3\n", "line 4: bad face token '1.5'"),
        ("v 0 0\nv 1 0\nv 1 1\nf 1e0 2 3\n", "line 4: bad face token '1e0'"),
        ("v 0 0\nv 1 0\nv 1 1\nf 3 1 2.7/1\n", "line 4: bad face token '2.7/1'"),
        ("v 0 0\nv 1 0\nv 1 1\nf 1\u00a02 3.0\n", "line 4: bad face token '3.0'"),
        ("v 0 0\nv 1\nv 1 1\nf 1 2 3\n", "line 2: bad vertex"),
        ("# nothing\nvt 0 0\n", "no vertices"),
        ("", "no vertices"),
    ],
)
def test_obj_parse_errors(text, message):
    with pytest.raises(ParseError, match=message):
        _parse_obj(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("v 0 0\nv 1_000 0\nv 1 1\nf 1 2 3\n", "line 2: bad vertex coordinate"),
        ("v 0 0\nv 1 \u0661\nv 1 1\nf 1 2 3\n", "line 2: bad vertex coordinate"),
        ("v 0 0\nv 1 0\nv 1 1\nf 1 2 0_3\n", "line 4: bad face token '0_3'"),
        ("v 0 0\nv 1 0\nv 1 1\nf 1 2 \u0663/1\n", "line 4: bad face token '\u0663/1'"),
    ],
)
def test_obj_numbers_are_plain_ascii(text, message):
    # float() and int() take "_" separators and non-ASCII digits; the
    # reader does not.
    with pytest.raises(ParseError, match=message):
        _parse_obj(text)


def test_obj_bad_coordinate_is_parse_error():
    with pytest.raises(ParseError, match="line 2: bad vertex coordinate"):
        _parse_obj("v 0 0\nv 1 zero\nv 1 1\nf 1 2 3\n")


def test_obj_without_faces_has_no_faces(tmp_path):
    assert _parse_obj("v 0 0\nv 1 0\n")[1].shape == (0, 3)
    path = tmp_path / "points.obj"
    path.write_text("v 0 0\nv 1 0\nv 1 1\n")
    with pytest.raises(WrongTopology, match="no faces"):
        load_mesh(path)


def _reference_parse_obj(text):
    """Line-at-a-time reading of the same OBJ subset, for comparison."""
    vertices, faces = [], []
    for line in text.splitlines():
        parts = line.split()
        if parts[:1] == ["v"]:
            vertices.append([float(x) for x in parts[1:4]])
        elif parts[:1] == ["f"]:
            idx = [int(tok.split("/")[0]) for tok in parts[1:]]
            faces.append([i - 1 if i > 0 else len(vertices) + i for i in idx])
    return np.array(vertices), np.array(faces, dtype=np.int64)


def test_obj_reader_matches_line_reference(tmp_path):
    for m in (two_hole_grid(30), hemisphere_cap()):
        uv = m.vertices[:, :2] / 7.0
        path = tmp_path / "m.obj"
        save_obj_with_uv(path, m, uv)
        text = path.read_text()
        v, f = _parse_obj(text)
        v_ref, f_ref = _reference_parse_obj(text)
        assert np.array_equal(v.view(np.int64), v_ref.view(np.int64))
        assert np.array_equal(f, f_ref)


# Tokens the OBJ reader rejects (the error tests above), put in now and then.
_BAD_TOKENS = (
    "x", "zero", "/2", "/1", "1.5", "1e0", "2.7/1", "3.0", "1_000", "0_3",
    "\u0661", "\u0663/1", "1\u00a02",
)
_COORDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-9, 9).map(str),
    st.sampled_from(["-0.0", "1e-300", "+2", ".5", "nan", "-inf"]),
)
_INDEX = st.tuples(
    st.integers(-6, 8).map(str), st.sampled_from(["", "", "/2", "/2/3", "//3"])
).map("".join)


@st.composite
def _obj_texts(draw):
    """OBJ texts of interleaved v and f lines among other records, with
    mixed whitespace, line breaks, index suffixes and vertex widths, and now
    and then a bad token, a short vertex or a quad."""
    width = draw(st.sampled_from([2, 3, 6]))
    bad = st.sampled_from(_BAD_TOKENS)

    def tokens(good, count):
        return [draw(bad) if draw(st.integers(0, 40)) == 0 else draw(good) for _ in range(count)]

    lines = []
    for kind in draw(st.lists(st.sampled_from("vvvfff#-ton"), min_size=1, max_size=24)):
        if kind == "v":
            count = width if draw(st.integers(0, 30)) else draw(st.sampled_from([1, 2, 3, 6]))
            parts = ["v"] + tokens(_COORDS, count)
        elif kind == "f":
            count = 3 if draw(st.integers(0, 30)) else draw(st.sampled_from([2, 4]))
            parts = ["f"] + tokens(_INDEX, count)
        elif kind == "t":
            parts = ["vt", "0.5", "0.25"]
        elif kind == "n":
            parts = ["vn", "0", "0", "1"]
        elif kind == "o":
            parts = [draw(st.sampled_from(["o square", "g grp", "s 1", "#v 9 9", "# f 1 1 1"]))]
        else:
            parts = [] if kind == "-" else ["#", "comment"]
        sep = draw(st.sampled_from([" ", " ", "\t", "  "]))
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        trail = draw(st.sampled_from(["", "", " ", "\t"]))
        lines.append(lead + sep.join(parts) + trail)
    brk = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return brk.join(lines) + draw(st.sampled_from(["", brk]))


def _read_or_message(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return exc.describe()


@settings(max_examples=400, deadline=None)
@given(_obj_texts())
def test_obj_reader_matches_regex_reference(text):
    new = _read_or_message(_parse_obj, text)
    ref = _read_or_message(obj_reference.parse_obj, text)
    if isinstance(ref, str):
        assert new == ref
    else:
        assert not isinstance(new, str), new
        assert new[0].dtype == ref[0].dtype and new[1].dtype == ref[1].dtype
        assert np.array_equal(new[0].view(np.int64), ref[0].view(np.int64))
        assert np.array_equal(new[1], ref[1])


# ---------------------------------------------------------------------------
# OBJ writer


def test_save_obj_golden_bytes_2d(tmp_path):
    m = build_mesh(np.array([[-0.0, 0.1], [1.0, 1e-300], [1 / 3, 1.0]]), np.array([[0, 1, 2]]))
    uv = np.array([[0.1, 1 / 3], [-0.0, 1e-300], [0.5, -2.5]])
    path = tmp_path / "tri.obj"
    save_obj_with_uv(path, m, uv)
    assert path.read_bytes() == (
        b"v -0 0.10000000000000001 0\n"
        b"v 1 1e-300 0\n"
        b"v 0.33333333333333331 1 0\n"
        b"vt 0.10000000000000001 0.33333333333333331\n"
        b"vt -0 1e-300\n"
        b"vt 0.5 -2.5\n"
        b"f 1/1 2/2 3/3\n"
    )


def test_save_obj_golden_bytes_3d(tmp_path):
    m = build_mesh(
        np.array([[0.0, 0.0, 0.1], [1.0, -0.0, 1 / 3], [1.0, 1.0, 1e-300], [0.0, 1.0, -2.0]]),
        np.array([[0, 1, 2], [0, 2, 3]]),
    )
    uv = np.array([[0.0, 0.0], [1 / 3, -0.0], [1.0, 0.1], [1e-300, 1.0]])
    path = tmp_path / "square.obj"
    save_obj_with_uv(path, m, uv)
    assert path.read_bytes() == (
        b"v 0 0 0.10000000000000001\n"
        b"v 1 -0 0.33333333333333331\n"
        b"v 1 1 1e-300\n"
        b"v 0 1 -2\n"
        b"vt 0 0\n"
        b"vt 0.33333333333333331 -0\n"
        b"vt 1 0.10000000000000001\n"
        b"vt 1e-300 1\n"
        b"f 1/1 2/2 3/3\n"
        b"f 1/1 3/3 4/4\n"
    )


def test_save_obj_matches_line_reference_across_chunks(tmp_path):
    m = grid_mesh(100, 100)  # 10,201 vertices and 20,000 faces
    uv = np.random.default_rng(0).standard_normal((m.n_vertices, 2)) * 1e-5
    path = tmp_path / "grid.obj"
    save_obj_with_uv(path, m, uv)
    lines = [f"v {x:.17g} {y:.17g} 0" for x, y in m.vertices.tolist()]
    lines += [f"vt {x:.17g} {y:.17g}" for x, y in uv.tolist()]
    lines += [f"f {a}/{a} {b}/{b} {c}/{c}" for a, b, c in (m.faces + 1).tolist()]
    assert path.read_text() == "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Boundary loop walk


def test_bow_tie_vertex_is_non_manifold():
    faces = np.array([[0, 1, 2], [0, 3, 4]])
    with pytest.raises(NonManifold, match="boundary vertex 0"):
        walk_boundary_loops(faces, 5)


_FIXTURES = [
    lambda: single_triangle([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    lambda: grid_mesh(6, 4),
    lambda: grid_mesh(8, 8, hole_cells=square_hole(3, 3, 2)),
    lambda: two_hole_grid(20),
    disk_mesh,
    annulus_mesh,
    hemisphere_cap,
    curved_annulus,
]


@pytest.mark.parametrize("make", _FIXTURES)
def test_loops_start_at_smallest_vertex_in_order(make):
    m = make()
    loops = walk_boundary_loops(m.faces, m.n_vertices)
    assert len(loops) == m.n_holes + 1
    starts = [int(lp[0]) for lp in loops]
    assert starts == [int(lp.min()) for lp in loops]
    assert starts == sorted(starts)


@pytest.mark.parametrize("make", _FIXTURES)
def test_each_boundary_edge_in_exactly_one_loop(make):
    m = make()
    directed = {(a, b) for f in m.faces.tolist() for a, b in zip(f, f[1:] + f[:1])}
    boundary = {(a, b) for a, b in directed if (b, a) not in directed}
    loop_edges = [
        (a, b)
        for lp in walk_boundary_loops(m.faces, m.n_vertices)
        for a, b in zip(lp.tolist(), np.roll(lp, -1).tolist())
    ]
    assert len(loop_edges) == len(set(loop_edges))
    assert set(loop_edges) == boundary


@pytest.mark.parametrize("make", _FIXTURES)
def test_twin_table_pairs_each_half_edge_with_its_reverse(make):
    m = make()
    twin = m.twin.ravel()
    tail = m.faces.ravel()
    head = np.roll(m.faces, -1, axis=1).ravel()
    directed = set(zip(tail.tolist(), head.tolist()))
    reversed_absent = [(b, a) not in directed for a, b in zip(tail.tolist(), head.tolist())]
    assert (twin < 0).tolist() == reversed_absent
    inner = np.flatnonzero(twin >= 0)
    assert np.array_equal(twin[twin[inner]], inner)
    assert np.array_equal(tail[twin[inner]], head[inner])
    # A mesh made without build_mesh computes the same table on first use.
    bare = TriangleMesh(vertices=m.vertices, faces=m.faces)
    assert np.array_equal(bare.twins(), m.twin)


@pytest.mark.parametrize("make", _FIXTURES)
def test_region_loops_of_all_faces_are_the_mesh_loops(make):
    m = make()
    loops = region_loops(m, np.arange(m.n_faces))
    walked = walk_boundary_loops(m.faces, m.n_vertices)
    assert len(loops) == len(walked)
    assert all(np.array_equal(a, b) for a, b in zip(loops, walked))
