import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import csgraph

import weldmap.partition as partition
from weldmap.errors import (
    DisconnectedSubmesh,
    NoValidPlan,
    NonManifold,
    ParseError,
    SubmeshWithTwoHoles,
)
from weldmap.mesh import build_mesh, region_twins, walk_boundary_loops
from weldmap.partition import (
    PartitionLabeling,
    _face_graph,
    _hole_owners,
    _join,
    build_weld_specs,
    default_partition,
    extract_submeshes,
    load_labels,
    region_hole_count,
)
from weldmap.pipeline import compute_parameterization

import partition_reference
from fixtures import (
    annulus_mesh,
    curved_annulus,
    disk_mesh,
    grid_mesh,
    hemisphere_cap,
    many_hole_grid,
    many_hole_sphere,
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
    plan = build_weld_specs(m, extract_submeshes(m, part))
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
    plan = build_weld_specs(m, subs)
    assert len(plan.welds) == 1
    assert plan.welds[0].arc_kind == "continuous"
    assert plan.n_pre == 0


def test_plan_annulus_two_parts():
    m = annulus_mesh()
    part = split_by_x(m, 0.0)
    subs = extract_submeshes(m, part)
    plan = build_weld_specs(m, subs)
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
    plan = build_weld_specs(m, extract_submeshes(m, part))
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
    plan = build_weld_specs(m, subs)
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
    plan = build_weld_specs(m, extract_submeshes(m, part))
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
        build_weld_specs(m, subs)


def test_default_partition_two_holes():
    m = grid_mesh(14, 7, hole_cells=square_hole(2, 2, 2) | square_hole(10, 2, 2))
    part = default_partition(m, 2)
    part.validate(m)
    assert part.n_parts == 2
    subs = extract_submeshes(m, part)
    plan = build_weld_specs(m, subs)
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
    every = np.arange(m.n_faces)
    assert region_hole_count(m, every, region_twins(m, every)) == m.n_holes == whole
    for labs, want in regions.items():
        face_ids = np.flatnonzero(np.isin(label, labs))
        count = region_hole_count(m, face_ids, region_twins(m, face_ids))
        assert count == _built_holes(m, face_ids) == _holes_by_edge_sort(m, face_ids) == want, labs


@pytest.mark.parametrize(
    "mesh, parts",
    [
        (grid_mesh(8, 8), 3),  # validation inside the region splitter
        (grid_mesh(14, 7, hole_cells=square_hole(2, 2, 2) | square_hole(10, 2, 2)), 2),
    ],
)
def test_default_partition_raises_validation_bugs(monkeypatch, mesh, parts):
    def broken(mesh, face_ids, twin):
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
        (_conformal_grid_mesh, (4, 24)),
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
    # every plan, its loops as the plan carries them against a walk of the
    # side's own faces; and every plan against the Euler-count reference.
    m = make()
    sides = 0
    for n in parts:
        part = default_partition(m, n)
        subs = extract_submeshes(m, part)
        plan = build_weld_specs(m, subs)
        assert _plan_key(plan) == _reference_plan_key(m, part, subs), n
        for spec in plan.welds:
            for comp, loops in ((spec.left, spec.left_loops), (spec.right, spec.right_loops)):
                want = walk_boundary_loops(
                    m.faces[np.isin(part.face_label, sorted(comp))], m.n_vertices
                )
                assert _cyclic(loops) == _cyclic(want)
                sides += 1
    assert sides > 0


def _cyclic(loops):
    """Loops as cyclic sequences: each rotated to start at its smallest
    vertex, listed by that start."""
    return sorted(np.roll(lp, -int(np.argmin(lp))).tolist() for lp in loops)


def _plan_key(plan):
    """A WeldPlan as comparable data, each side's loops as cyclic sequences."""
    welds = [
        (
            spec.left, spec.right, [arc.tolist() for arc in spec.arcs], spec.arc_kind,
            spec.hole_loop, None if spec.rim is None else spec.rim.tolist(),
            _cyclic(spec.left_loops), _cyclic(spec.right_loops),
        )
        for spec in plan.welds
    ]
    return welds, plan.n_pre, plan.hole_owner


def _reference_plan_key(mesh, labels, subs):
    return _plan_key(partition_reference.build_weld_specs(mesh, labels, subs))


def _plans_or_errors(mesh, labels):
    """(package, reference): each planner's _plan_key, or its NoValidPlan
    message."""
    subs = extract_submeshes(mesh, labels)
    out = []
    for plan in (
        lambda: build_weld_specs(mesh, subs),
        lambda: partition_reference.build_weld_specs(mesh, labels, subs),
    ):
        try:
            out.append(_plan_key(plan()))
        except NoValidPlan as err:
            out.append(str(err))
    return out


def _hop_labelings(mesh, seed, count):
    """count labelings of mesh that pass validate, each the hop-distance
    regions around 2 to 8 random seed faces, from one seeded generator."""
    rng = np.random.default_rng(seed)
    graph = _face_graph(mesh.twin)
    found = []
    while len(found) < count:
        seeds = rng.choice(mesh.n_faces, size=int(rng.integers(2, 9)), replace=False)
        _, _, sources = csgraph.dijkstra(
            graph, directed=False, unweighted=True, indices=seeds,
            min_only=True, return_predecessors=True,
        )
        labels = PartitionLabeling(face_label=np.unique(sources, return_inverse=True)[1])
        try:
            labels.validate(mesh)
        except (DisconnectedSubmesh, NonManifold, SubmeshWithTwoHoles):
            continue
        found.append(labels)
    return found


@pytest.mark.parametrize(
    "make",
    [
        lambda: two_hole_grid(20),
        lambda: annulus_mesh(6, 40),
        lambda: disk_mesh(8, 32),
        lambda: many_hole_grid(24, 3),
        lambda: hemisphere_cap(8, 24),
    ],
    ids=["two_hole_grid(20)", "annulus_mesh(6,40)", "disk_mesh(8,32)",
         "many_hole_grid(24,3)", "hemisphere_cap(8,24)"],
)
def test_planner_matches_the_euler_count_reference_on_random_labelings(make):
    # Hop-distance regions around random seeds make cuts that
    # default_partition does not: parts that meet along several arcs, or
    # at a vertex, and unions with branching loops.
    m = make()
    planned = 0
    for labels in _hop_labelings(m, 7, 20):
        got, want = _plans_or_errors(m, labels)
        assert got == want, labels.face_label.tolist()
        planned += not isinstance(got, str)
    assert planned


@pytest.mark.parametrize("k", (3, 6, 9))
@pytest.mark.parametrize("make", (many_hole_grid, many_hole_sphere))
def test_planner_matches_the_euler_count_reference_on_many_holes(make, k):
    m = make(30, k)
    for parts in (1, 4, 8):
        labels = default_partition(m, parts)
        got, want = _plans_or_errors(m, labels)
        assert got == want, parts


def test_parts_that_share_an_arc_and_touch_at_a_vertex_do_not_weld():
    # A 4 x 4 grid: label 0 wraps cell (2, 1), which is label 2, on three
    # sides; label 1, the top-right 2 x 2 block, shares one cut edge with
    # label 0, from (3, 2) to (4, 2), and also meets it corner to corner at
    # grid point (2, 2), where label 3, the top-left block, meets label 2
    # corner to corner. The union of labels 0 and 1 touches itself there,
    # so its loops branch; label 0 welds label 2 first, and label 1 joins
    # them along the one arc from (2, 2) to (4, 2).
    mesh = grid_mesh(4, 4)
    lab = np.zeros(mesh.n_faces, dtype=np.int64)
    lab[_cells(4, [(2, 2), (3, 2), (2, 3), (3, 3)])] = 1
    lab[_cells(4, [(2, 1)])] = 2
    lab[_cells(4, [(0, 2), (1, 2), (0, 3), (1, 3)])] = 3
    labels = PartitionLabeling(face_label=lab)
    subs = extract_submeshes(mesh, labels)
    a, b = frozenset({0}), frozenset({1})
    eu, ev, ef0, ef1 = partition_reference._interior_edges(mesh)
    la, lb = lab[ef0], lab[ef1]
    cut = la != lb
    (arc,) = partition_reference._shared_arcs(a, b, (eu[cut], ev[cut], la[cut], lb[cut]))
    point = lambda vid: tuple((mesh.vertices[vid] * 4).round().astype(int).tolist())
    assert sorted(map(point, arc)) == [(3, 2), (4, 2)]
    loops_a, loops_b = (
        [sub.to_parent[lp] for lp in sub.mesh.boundary_loops] for sub in subs[:2]
    )
    with pytest.raises(NonManifold, match="^boundary vertex 12 has two outgoing"):
        partition_reference._union_loops(loops_a, loops_b)
    assert point(12) == (2, 2)
    assert _join(loops_a, loops_b) is None

    plan = build_weld_specs(mesh, subs)
    assert [(sorted(s.left), sorted(s.right)) for s in plan.welds] == [
        ([0], [2]), ([0, 2], [1]), ([0, 1, 2], [3])
    ]
    assert _plan_key(plan) == _reference_plan_key(mesh, labels, subs)


@pytest.mark.parametrize(
    "make, parts",
    [(lambda: two_hole_grid(40), 8), (lambda: annulus_mesh(20, 120), 8), (disk_mesh, 4)],
    ids=["two_hole_grid(40)", "annulus_mesh(20,120)", "disk_mesh()"],
)
def test_the_planner_reads_only_the_boundary_loops_of_the_mesh(make, parts):
    # A stand-in mesh with no faces and no twin table plans the same welds:
    # the arcs come from the parts' loops, the hole owners from their
    # vertices.
    m = make()
    labels = default_partition(m, parts)
    subs = extract_submeshes(m, labels)
    loops_only = SimpleNamespace(boundary_loops=m.boundary_loops, n_vertices=m.n_vertices)
    plan = build_weld_specs(loops_only, subs)
    assert plan.welds
    assert _plan_key(plan) == _plan_key(build_weld_specs(m, subs))


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
        # Two cells of label 1 meet only at a vertex, where label 0 (the
        # rest) touches itself; label 0 is checked first.
        (grid_mesh(3, 3), _cells(3, [(0, 0), (1, 1)]), "NON_MANIFOLD"),
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
    with pytest.raises((DisconnectedSubmesh, SubmeshWithTwoHoles, NonManifold, ParseError)) as info:
        if callable(labeled):
            labels = labeled(mesh, tmp_path)
        else:
            lab = np.zeros(mesh.n_faces, dtype=np.int64)
            lab[labeled] = 1
            labels = PartitionLabeling(face_label=lab)
        compute_parameterization(mesh, labels, np.zeros(mesh.n_faces, complex))
    assert info.value.code == code
    if code == "NON_MANIFOLD":
        assert str(info.value) == "submesh 0 touches itself at vertex 5"
    if code == "PARSE_ERROR":
        # Both counts, and how to mend the input.
        counts = set(re.findall(r"\d+", str(info.value)))
        assert {str(mesh.n_faces), str(mesh.n_faces + 1)} <= counts
        assert info.value.hint


def test_a_connected_part_that_touches_itself_fails_the_partition_rule():
    # Label 0 runs around cell (2, 1) of a 4 x 4 grid, which is label 1,
    # and its two ends meet only at the grid point (2, 2), across the
    # diagonal from label 1: one connected part with one hole by the Euler
    # count, pinched at that parent vertex. Label 2 is the rest.
    mesh = grid_mesh(4, 4)
    ring = [(1, 1), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (2, 2)]
    lab = np.full(mesh.n_faces, 2, dtype=np.int64)
    lab[_cells(4, ring)] = 0
    lab[_cells(4, [(2, 1)])] = 1
    ring_ids = np.flatnonzero(lab == 0)
    assert region_hole_count(mesh, ring_ids, region_twins(mesh, ring_ids)) == 1
    with pytest.raises(NonManifold, match=r"^submesh 0 touches itself at vertex 12$"):
        compute_parameterization(mesh, PartitionLabeling(face_label=lab), np.zeros(mesh.n_faces, complex))


def test_accepted_labeling_is_validated_once(monkeypatch):
    # Extraction validates the labeling, once: default_partition checks
    # only the regions its splits make. A validate call that does its work
    # runs connected_components.
    checked = []  # the labels of each validate call that did the work
    real_validate = PartitionLabeling.validate
    real_components = partition.csgraph.connected_components
    components = []

    def counting_components(*args, **kwargs):
        components.append(1)
        return real_components(*args, **kwargs)

    def recording_validate(self, mesh):
        before = len(components)
        parts = real_validate(self, mesh)
        if len(components) > before:
            checked.append(self.face_label.tobytes())
        return parts

    monkeypatch.setattr(partition.csgraph, "connected_components", counting_components)
    monkeypatch.setattr(PartitionLabeling, "validate", recording_validate)
    mesh = two_hole_grid(40)
    labels = default_partition(mesh, 4)
    assert labels.n_parts == 4
    compute_parameterization(mesh, labels, np.zeros(mesh.n_faces, complex), qc=False)
    assert checked.count(labels.face_label.tobytes()) == 1
    assert not labels.face_label.flags.writeable


def _four_hole_grid():
    holes = square_hole(8, 8, 6) | square_hole(40, 8, 6) | square_hole(8, 40, 6)
    return grid_mesh(60, 60, hole_cells=holes | square_hole(40, 40, 6))


@pytest.mark.parametrize(
    "make",
    [
        lambda: two_hole_grid(40),
        lambda: annulus_mesh(20, 120),
        lambda: disk_mesh(16, 64),
        curved_annulus,
        hemisphere_cap,
        lambda: two_hole_grid(100),
        _four_hole_grid,
    ],
    ids=[
        "two_hole_grid(40)", "annulus_mesh(20,120)", "disk_mesh(16,64)", "curved_annulus()",
        "hemisphere_cap()", "two_hole_grid(100)", "grid_mesh(60)-4-holes",
    ],
)
def test_default_partition_matches_the_whole_labeling_reference(make):
    # Checking only the two halves of a split accepts the same splits as
    # validating every trial labeling whole; the parts' vertices on each
    # hole's rim name the same labels as an np.isin pass per hole.
    m = make()
    for parts in range(1, 13):
        got = default_partition(m, parts)
        want = partition_reference.default_partition(m, parts)
        assert got.face_label.tobytes() == want.face_label.tobytes(), parts
        owners = _hole_owners(m, extract_submeshes(m, got))
        assert owners == partition_reference.touching_labels(m, got), parts


def _validate_by_reference(labels, mesh):
    partition_reference.validate(mesh, labels)


@pytest.mark.parametrize("validate", [PartitionLabeling.validate, _validate_by_reference],
                         ids=["per-label", "reference"])
@pytest.mark.parametrize(
    "nx, hole_columns, label_1_cells, error, message",
    [
        # Label 0 encloses both holes; label 1, two far corner cells, is
        # disconnected. The lower label fails first.
        (12, (2, 8), [(0, 0), (11, 5)], SubmeshWithTwoHoles, "submesh 0 has 2 holes"),
        # Label 1, a full column, cuts label 0 into a piece around two holes
        # and a piece around the third: connectivity fails before holes.
        (18, (2, 6, 14), [(11, j) for j in range(6)], DisconnectedSubmesh,
         "submesh 0 is not edge-connected"),
    ],
    ids=["label-order", "connectivity-first"],
)
def test_validate_checks_label_by_label_connectivity_first(
    validate, nx, hole_columns, label_1_cells, error, message
):
    # Square holes of 2 x 2 cells in a grid of nx x 6 unit-square cells.
    mesh = grid_mesh(nx, 6, hole_cells=set().union(*(square_hole(i, 2, 2) for i in hole_columns)))
    cent = mesh.vertices[mesh.faces].mean(axis=1)
    cell = np.floor(cent * [nx, 6]).astype(np.int64)
    lab = np.array([tuple(c) in set(label_1_cells) for c in cell.tolist()], dtype=np.int64)
    face_ids = np.flatnonzero(lab == 0)
    assert region_hole_count(mesh, face_ids, region_twins(mesh, face_ids)) == 2
    with pytest.raises(error, match=f"^{message}$"):
        validate(PartitionLabeling(face_label=lab), mesh)
