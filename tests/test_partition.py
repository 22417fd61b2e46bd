import gc
import re

import numpy as np
import pytest

import weldmap.partition as partition
from weldmap.errors import DisconnectedSubmesh, NoValidPlan, ParseError, SubmeshWithTwoHoles
from weldmap.mesh import build_mesh, region_loops, walk_boundary_loops
from weldmap.partition import (
    PartitionLabeling,
    build_weld_specs,
    default_partition,
    extract_submeshes,
    load_labels,
    region_hole_count,
)
from weldmap.pipeline import compute_parameterization

from fixtures import (
    annulus_mesh,
    curved_annulus,
    disk_mesh,
    grid_mesh,
    hemisphere_cap,
    square_hole,
    two_hole_grid,
)


def split_by_x(mesh, x0):
    """Label faces by centroid x-coordinate: 0 left of x0, 1 right."""
    cent = mesh.vertices[mesh.faces].mean(axis=1)
    return PartitionLabeling(face_label=(cent[:, 0] > x0).astype(np.int64))


def test_halves_of_disk_valid():
    m = disk_mesh()
    part = split_by_x(m, 0.0)
    part.validate(m)
    subs = extract_submeshes(m, part)
    assert len(subs) == 2
    assert sum(s.mesh.n_faces for s in subs) == m.n_faces
    # Cut vertices duplicated: total vertex count exceeds the parent's.
    assert sum(s.mesh.n_vertices for s in subs) > m.n_vertices


def test_disconnected_label_rejected():
    m = grid_mesh(6, 1)
    lab = np.zeros(m.n_faces, dtype=np.int64)
    lab[:2] = 1
    lab[-2:] = 1  # two far-apart strips share label 1
    with pytest.raises(DisconnectedSubmesh):
        PartitionLabeling(face_label=lab).validate(m)


def test_two_holes_in_one_part_rejected():
    m = grid_mesh(12, 6, hole_cells=square_hole(2, 2, 2) | square_hole(8, 2, 2))
    lab = np.zeros(m.n_faces, dtype=np.int64)
    with pytest.raises(SubmeshWithTwoHoles):
        PartitionLabeling(face_label=lab).validate(m)


def test_cut_edges_avoid_boundary():
    # Every weld arc edge is an interior edge between two differently
    # labelled faces, even where the arc ends on the boundary.
    m = disk_mesh()
    part = split_by_x(m, 0.0)
    plan = build_weld_specs(m, part, extract_submeshes(m, part))
    edge_labels = {}
    for f, lab in zip(m.faces.tolist(), part.face_label.tolist()):
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            edge_labels.setdefault(frozenset((a, b)), []).append(lab)
    arc_edges = [
        frozenset((int(a), int(b)))
        for spec in plan.welds
        for arc in spec.arcs
        for a, b in zip(arc[:-1], arc[1:])
    ]
    assert len(arc_edges) > 0
    for e in arc_edges:
        labs = edge_labels[e]
        assert len(labs) == 2 and labs[0] != labs[1]


def test_plan_disk_two_parts():
    m = disk_mesh()
    part = split_by_x(m, 0.0)
    subs = extract_submeshes(m, part)
    plan = build_weld_specs(m, part, subs)
    assert len(plan.welds) == 1
    assert plan.welds[0].arc_kind == "continuous"
    assert plan.n_pre == 0


def test_plan_annulus_two_parts():
    m = annulus_mesh()
    part = split_by_x(m, 0.0)
    subs = extract_submeshes(m, part)
    plan = build_weld_specs(m, part, subs)
    assert len(plan.welds) == 1
    w = plan.welds[0]
    assert w.arc_kind == "two-arc-multiply-connected"
    assert w.hole_loop == 1
    assert len(w.arcs) == 2
    assert plan.n_pre == 1
    assert plan.hole_owner[1] == frozenset({0, 1})


TWO = "two-arc-multiply-connected"
CONT = "continuous"
# The weld chains default_partition(mesh, 8) gets, in plan order: n_pre,
# hole_owner and (left, right, arc kind) of each weld.
WELD_CHAINS = {
    "two_hole_grid(40)": (
        lambda: two_hole_grid(40),
        2,
        {1: [0, 7], 2: [2, 5]},
        [
            ([0], [7], TWO),
            ([2], [5], TWO),
            ([0, 7], [2, 5], CONT),
            ([0, 2, 5, 7], [1], CONT),
            ([0, 1, 2, 5, 7], [3], CONT),
            ([0, 1, 2, 3, 5, 7], [4], CONT),
            ([0, 1, 2, 3, 4, 5, 7], [6], CONT),
        ],
    ),
    "annulus_mesh(20,120)": (
        lambda: annulus_mesh(20, 120),
        5,
        {1: [0, 1, 2, 3, 4, 5]},
        [
            ([0], [2], CONT),
            ([0, 2], [3], CONT),
            ([0, 2, 3], [4], CONT),
            ([0, 2, 3, 4], [1], CONT),
            ([0, 1, 2, 3, 4], [5], TWO),
            ([0, 1, 2, 3, 4, 5], [6], CONT),
            ([0, 1, 2, 3, 4, 5, 6], [7], CONT),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(WELD_CHAINS))
def test_weld_chain_at_eight_parts(name):
    make, n_pre, hole_owner, chain = WELD_CHAINS[name]
    m = make()
    part = default_partition(m, 8)
    plan = build_weld_specs(m, part, extract_submeshes(m, part))
    assert plan.n_pre == n_pre
    assert {li: sorted(c) for li, c in plan.hole_owner.items()} == hole_owner
    assert [(sorted(w.left), sorted(w.right), w.arc_kind) for w in plan.welds] == chain


def split_in_quadrants(mesh):
    cent = mesh.vertices[mesh.faces].mean(axis=1)
    lab = (cent[:, 0] > 0).astype(np.int64) + 2 * (cent[:, 1] > 0).astype(np.int64)
    return PartitionLabeling(face_label=lab)


def test_plan_quadrants():
    m = disk_mesh()
    part = split_in_quadrants(m)
    subs = extract_submeshes(m, part)
    plan = build_weld_specs(m, part, subs)
    assert len(plan.welds) == 3
    assert all(w.arc_kind == "continuous" for w in plan.welds)


@pytest.mark.parametrize(
    "make, split",
    [
        (disk_mesh, lambda m: split_by_x(m, 0.0)),
        (disk_mesh, split_in_quadrants),
        (annulus_mesh, lambda m: split_by_x(m, 0.0)),
        (lambda: two_hole_grid(40), lambda m: default_partition(m, 4)),
        (hemisphere_cap, lambda m: default_partition(m, 3)),
    ],
    ids=["disk-halves", "disk-quadrants", "annulus-halves", "two-hole-4", "cap-3"],
)
def test_weld_arcs_run_along_the_left_faces(make, split):
    m = make()
    part = split(m)
    plan = build_weld_specs(m, part, extract_submeshes(m, part))
    assert plan.welds
    for spec in plan.welds:
        left = m.faces[np.isin(part.face_label, sorted(spec.left))]
        heads = np.roll(left, -1, axis=1)
        directed = set(zip(left.ravel().tolist(), heads.ravel().tolist()))
        for arc in spec.arcs:
            assert len(arc) >= 2
            assert set(zip(arc[:-1].tolist(), arc[1:].tolist())) <= directed
        if spec.arc_kind == "two-arc-multiply-connected":
            rim = m.boundary_loops[spec.hole_loop]
            assert spec.arcs[0][-1] in rim
            assert spec.arcs[1][-1] not in rim


def test_plan_fully_enclosed_rejected():
    # Inner disk surrounded by a ring: the shared cut is a closed cycle.
    m = disk_mesh(n_rings=6)
    cent = np.linalg.norm(m.vertices[m.faces].mean(axis=1), axis=1)
    lab = (cent > 0.5).astype(np.int64)
    part = PartitionLabeling(face_label=lab)
    subs = extract_submeshes(m, part)
    with pytest.raises(NoValidPlan):
        build_weld_specs(m, part, subs)


def test_default_partition_two_holes():
    m = grid_mesh(14, 7, hole_cells=square_hole(2, 2, 2) | square_hole(10, 2, 2))
    part = default_partition(m, 2)
    part.validate(m)
    assert part.n_parts == 2
    subs = extract_submeshes(m, part)
    plan = build_weld_specs(m, part, subs)
    assert plan.n_pre == 0  # each hole already inside one part
    assert len(plan.welds) == 1


def test_default_partition_no_holes():
    m = grid_mesh(8, 8)
    part = default_partition(m, 3)
    part.validate(m)
    assert 1 <= part.n_parts <= 3


def test_default_partition_deterministic():
    m = grid_mesh(14, 7, hole_cells=square_hole(2, 2, 2) | square_hole(10, 2, 2))
    p1 = default_partition(m, 4)
    p2 = default_partition(m, 4)
    assert np.array_equal(p1.face_label, p2.face_label)


def _holes_by_edge_sort(mesh, face_ids):
    """Euler hole count of the face subset, its edges counted by sorting
    undirected edge keys."""
    faces = mesh.faces[face_ids]
    u, v = faces.ravel(), np.roll(faces, -1, axis=1).ravel()
    n_e = len(np.unique(np.minimum(u, v) * mesh.n_vertices + np.maximum(u, v)))
    return 1 - (len(np.unique(faces)) - n_e + len(faces))


def _built_holes(mesh, face_ids):
    """Hole count of the face subset as build_mesh sees it."""
    faces = mesh.faces[face_ids]
    verts = np.unique(faces)
    local = np.full(mesh.n_vertices, -1, dtype=np.int64)
    local[verts] = np.arange(len(verts))
    return build_mesh(mesh.vertices[verts], local[faces]).n_holes


@pytest.mark.parametrize(
    "make, cuts, whole, regions",
    [
        (disk_mesh, [0.0], 0, {(0,): 0, (1,): 0}),
        # The halves only touch the hole rim; together they surround it.
        (annulus_mesh, [0.0], 1, {(0,): 0, (1,): 0, (0, 1): 1}),
        # Strips x < 0.75, 0.75..1.5 and > 1.5: the first two each touch
        # hole 1 and together surround it; the third surrounds hole 2.
        (lambda: two_hole_grid(20), [0.75, 1.5], 2, {(0,): 0, (1,): 0, (0, 1): 1, (2,): 1}),
    ],
)
def test_region_hole_count_matches_build_mesh(make, cuts, whole, regions):
    m = make()
    label = np.digitize(m.vertices[m.faces].mean(axis=1)[:, 0], cuts)
    assert region_hole_count(m, np.arange(m.n_faces)) == m.n_holes == whole
    for labs, want in regions.items():
        face_ids = np.flatnonzero(np.isin(label, labs))
        count = region_hole_count(m, face_ids)
        assert count == _built_holes(m, face_ids) == _holes_by_edge_sort(m, face_ids) == want, labs


@pytest.mark.parametrize(
    "mesh, parts",
    [
        (grid_mesh(8, 8), 3),  # validation inside the region splitter
        (grid_mesh(14, 7, hole_cells=square_hole(2, 2, 2) | square_hole(10, 2, 2)), 2),
    ],
)
def test_default_partition_raises_validation_bugs(monkeypatch, mesh, parts):
    def broken(mesh, face_ids):
        raise ValueError("bug inside validation")

    monkeypatch.setattr(partition, "region_hole_count", broken)
    with pytest.raises(ValueError, match="bug inside validation"):
        default_partition(mesh, parts)


def test_load_labels_numbers_labels_in_sorted_order(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("5\n2\n5\n")
    assert load_labels(path, 3).face_label.tolist() == [1, 0, 1]


def _conformal_grid_mesh():
    holes = square_hole(59, 59, 34) | square_hole(195, 178, 34)
    return grid_mesh(300, 300, width=3.0, height=3.0, hole_cells=holes)


_CORPUS_PARTS = (1, 2, 3, 4, 6, 8)


@pytest.mark.parametrize(
    "make, parts",
    [
        (_conformal_grid_mesh, (4,)),
        (lambda: two_hole_grid(100), (4,)),
        (lambda: two_hole_grid(40), _CORPUS_PARTS),
        (lambda: annulus_mesh(20, 120), _CORPUS_PARTS),
        (lambda: disk_mesh(16, 64), _CORPUS_PARTS),
        (curved_annulus, _CORPUS_PARTS),
        (hemisphere_cap, _CORPUS_PARTS),
    ],
    ids=[
        "conformal_grid", "beltrami", "two_hole_grid(40)", "annulus_mesh(20,120)",
        "disk_mesh(16,64)", "curved_annulus()", "hemisphere_cap()",
    ],
)
def test_weld_side_loops_from_the_table_match_a_walk_of_the_side(make, parts):
    # The declared benchmark maps and the corpus sweep: every weld side of
    # every plan, its loops cut from the parent's twin table against a walk
    # of the side's own faces.
    m = make()
    sides = 0
    for n in parts:
        part = default_partition(m, n)
        for spec in build_weld_specs(m, part, extract_submeshes(m, part)).welds:
            for comp in (spec.left, spec.right):
                got = region_loops(m, part.faces_in(comp))
                want = walk_boundary_loops(
                    m.faces[np.isin(part.face_label, sorted(comp))], m.n_vertices
                )
                assert len(got) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
                sides += 1
    assert sides > 0


def _cells(nx, cells):
    """Face ids of grid_mesh cells (i, j): two faces per cell, row by row."""
    return [2 * (j * nx + i) + k for i, j in cells for k in (0, 1)]


def _one_label_too_many(mesh, tmp_path):
    return PartitionLabeling(face_label=np.zeros(mesh.n_faces + 1, dtype=np.int64))


def _label_file_one_line_too_many(mesh, tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n" * (mesh.n_faces + 1))
    return load_labels(str(path), mesh.n_faces)


@pytest.mark.parametrize(
    "mesh, labeled, code",
    [
        # Two strips at the far ends of a row share label 1.
        (grid_mesh(6, 1), [0, 1, 10, 11], "DISCONNECTED_SUBMESH"),
        # Two cells of label 1 meet only at a vertex.
        (grid_mesh(3, 3), _cells(3, [(0, 0), (1, 1)]), "DISCONNECTED_SUBMESH"),
        # Label 1 is one cell; label 0 keeps both holes.
        (
            grid_mesh(12, 6, hole_cells=square_hole(2, 2, 2) | square_hole(8, 2, 2)),
            [0, 1],
            "SUBMESH_WITH_TWO_HOLES",
        ),
        # One label more than the mesh has faces, as an array and as a file.
        (grid_mesh(2, 1), _one_label_too_many, "PARSE_ERROR"),
        (grid_mesh(2, 1), _label_file_one_line_too_many, "PARSE_ERROR"),
    ],
    ids=["far-strips", "vertex-touch", "two-holes", "label-count", "label-file-count"],
)
def test_invalid_user_labels_fail_with_their_codes(mesh, labeled, code, tmp_path):
    with pytest.raises((DisconnectedSubmesh, SubmeshWithTwoHoles, ParseError)) as info:
        if callable(labeled):
            labels = labeled(mesh, tmp_path)
        else:
            lab = np.zeros(mesh.n_faces, dtype=np.int64)
            lab[labeled] = 1
            labels = PartitionLabeling(face_label=lab)
        compute_parameterization(mesh, labels, np.zeros(mesh.n_faces, complex))
    assert info.value.code == code
    if code == "PARSE_ERROR":
        # Both counts, and how to mend the input.
        counts = set(re.findall(r"\d+", str(info.value)))
        assert {str(mesh.n_faces), str(mesh.n_faces + 1)} <= counts
        assert info.value.hint


def test_accepted_labeling_is_validated_once(monkeypatch):
    # default_partition validates the labeling it accepts; the map that
    # extracts its submeshes does not check it again. A check does its work
    # in one connected_components call.
    checked = []  # the labels of each validate call that did the work
    real_validate = PartitionLabeling.validate
    real_components = partition.csgraph.connected_components
    components = []

    def counting_components(*args, **kwargs):
        components.append(1)
        return real_components(*args, **kwargs)

    def recording_validate(self, mesh):
        before = len(components)
        real_validate(self, mesh)
        if len(components) > before:
            checked.append(self.face_label.tobytes())

    monkeypatch.setattr(partition.csgraph, "connected_components", counting_components)
    monkeypatch.setattr(PartitionLabeling, "validate", recording_validate)
    mesh = two_hole_grid(40)
    labels = default_partition(mesh, 4)
    assert labels.n_parts == 4
    compute_parameterization(mesh, labels, np.zeros(mesh.n_faces, complex), qc=False)
    assert checked.count(labels.face_label.tobytes()) == 1
    assert not labels.face_label.flags.writeable
    # The labeling remembers the mesh without keeping it alive.
    del mesh
    gc.collect()
    assert labels._valid_on() is None
