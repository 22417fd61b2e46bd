import numpy as np
import pytest

import weldmap.partition as partition
from weldmap.errors import DisconnectedSubmesh, NoValidPlan, SubmeshWithTwoHoles
from weldmap.mesh import build_mesh
from weldmap.partition import (
    PartitionLabeling,
    build_weld_specs,
    default_partition,
    extract_submeshes,
    load_labels,
    region_hole_count,
)

from fixtures import annulus_mesh, disk_mesh, grid_mesh, square_hole, two_hole_grid


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
    m = disk_mesh()
    part = split_by_x(m, 0.0)
    cuts = part.cut_edges(m)
    bverts = set(m.boundary_vertices().tolist())
    interior_end = [not (int(a) in bverts and int(b) in bverts) for a, b in cuts]
    # A cut edge may touch the boundary at its endpoints but each cut edge is
    # an interior (two-face) edge by construction; just check nonempty here.
    assert len(cuts) > 0


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


def test_plan_quadrants():
    m = disk_mesh()
    cent = m.vertices[m.faces].mean(axis=1)
    lab = (cent[:, 0] > 0).astype(np.int64) + 2 * (cent[:, 1] > 0).astype(np.int64)
    part = PartitionLabeling(face_label=lab)
    subs = extract_submeshes(m, part)
    plan = build_weld_specs(m, part, subs)
    assert len(plan.welds) == 3
    assert all(w.arc_kind == "continuous" for w in plan.welds)


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
        assert region_hole_count(m, face_ids) == _built_holes(m, face_ids) == want, labs


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
