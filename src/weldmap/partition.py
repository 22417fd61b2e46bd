"""Partition labels, submesh extraction and weld planning.

A partition assigns one label per face.  Each labeled region must be
edge-connected and have at most one inner hole; cut edges are interior edges
between differently labeled faces and never coincide with boundary edges.
The weld planner turns a partition into an ordered sequence of pairwise
welds such that every inner hole ends up enclosed in exactly one welded
component before hole circularization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import (
    DisconnectedSubmesh,
    NonManifold,
    NoValidPlan,
    ParseError,
    SubmeshWithTwoHoles,
)
from .mesh import TriangleMesh, build_mesh, chain_loops, region_twins


@dataclass
class PartitionLabeling:
    """Per-face submesh labels; labels are consecutive ints starting at 0,
    kept as a read-only copy of those given."""

    face_label: np.ndarray

    def __post_init__(self):
        self.face_label = np.array(self.face_label, dtype=np.int64)
        self.face_label.flags.writeable = False

    @property
    def n_parts(self):
        return int(self.face_label.max()) + 1 if self.face_label.size else 0

    def validate(self, mesh):
        """Check the label format, then the partition rule of each part in
        label order (see _region_error); the first failure raises. Returns
        (face ids, twin cut) of each part, in label order: its face ids and
        its twin table cut out of the mesh's (region_twins)."""
        if len(self.face_label) != mesh.n_faces:
            raise ParseError(
                f"label count does not match face count: {len(self.face_label)} "
                f"labels for {mesh.n_faces} faces",
                hint="give one label per face, in face order",
            )
        if self.face_label.min() < 0:
            raise ParseError("negative partition label")
        # Consecutive labels from 0 never exceed the face count, which also
        # bounds the bincount below.
        counts = np.bincount(self.face_label)
        if self.face_label.max() >= len(self.face_label) or not np.all(counts):
            raise ParseError("partition labels must be consecutive from 0")
        by_label = np.argsort(self.face_label, kind="stable")
        parts = []
        for lab, face_ids in enumerate(np.split(by_label, np.cumsum(counts)[:-1])):
            twin = region_twins(mesh, face_ids)
            err = _region_error(mesh, face_ids, lab, twin)
            if err is not None:
                raise err
            parts.append((face_ids, twin))
        return parts


def _face_graph(twin):
    """The face graph of a twin table as a sparse matrix: row i holds the
    face across each edge of face i, or i itself across a boundary edge, so
    the rows need no sorting."""
    k = len(twin)
    across = np.where(twin >= 0, twin // 3, np.arange(k)[:, None])
    return sp.csr_matrix((np.ones(3 * k), across.ravel(), np.arange(0, 3 * k + 1, 3)), (k, k))


def _region_error(mesh, face_ids, lab, twin):
    """The partition rule for one part, given its face ids in increasing
    order and its twin cut (region_twins): None when the faces are
    edge-connected, touch themselves at no vertex and hold at most one hole,
    else the error naming submesh lab, checked in that order."""
    if csgraph.connected_components(_face_graph(twin), directed=False, return_labels=False) != 1:
        return DisconnectedSubmesh(f"submesh {lab} is not edge-connected")
    # A vertex that starts two of the part's boundary half-edges is a pinch.
    tails = np.sort(mesh.faces[face_ids][twin < 0])
    pinched = tails[1:][tails[1:] == tails[:-1]]
    if len(pinched):
        return NonManifold(f"submesh {lab} touches itself at vertex {int(pinched[0])}")
    holes = region_hole_count(mesh, face_ids, twin)
    if holes > 1:
        return SubmeshWithTwoHoles(f"submesh {lab} has {holes} holes")
    return None


def load_labels(path, n_faces):
    """Read one integer label per face line."""
    try:
        raw = np.loadtxt(path, dtype=np.int64, ndmin=1)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read labels from {path!r}: {exc}") from exc
    if raw.size != n_faces:
        raise ParseError(
            f"expected {n_faces} labels, found {raw.size}",
            hint="give one integer label per face line, in face order",
        )
    # Remap to consecutive ids in increasing label order: 5, 2, 5 -> 1, 0, 1.
    _, inv = np.unique(raw, return_inverse=True)
    return PartitionLabeling(face_label=inv)


def region_hole_count(mesh, face_ids, twin):
    """Number of inner holes of the region spanned by face_ids, whose twin
    cut (region_twins) is twin (Euler count)."""
    # Edges inside the region have two of its half-edges, edges on its
    # boundary one: the -1 entries of the twin cut.
    n_boundary = int(np.count_nonzero(twin < 0))
    n_e = (3 * len(face_ids) + n_boundary) // 2
    faces = mesh.faces[face_ids]
    n_v = np.count_nonzero(np.bincount(faces.ravel(), minlength=mesh.n_vertices))
    chi = n_v - n_e + len(faces)
    return 1 - chi


# ---------------------------------------------------------------------------
# Submesh extraction


@dataclass
class Submesh:
    mesh: TriangleMesh
    to_parent: np.ndarray  # local vertex id -> parent vertex id
    label: int
    faces: np.ndarray  # local face id -> parent face id


def extract_submeshes(mesh, labels):
    """Split the mesh by labels; cut vertices are duplicated per submesh.
    Each submesh's twin table is the twin cut that validate made, so a cut
    edge is on the submesh boundary."""
    subs = []
    for lab, (face_ids, twin) in enumerate(labels.validate(mesh)):
        faces = mesh.faces[face_ids]
        verts = np.flatnonzero(np.bincount(faces.ravel(), minlength=mesh.n_vertices))
        local = np.full(mesh.n_vertices, -1, dtype=np.int64)
        local[verts] = np.arange(len(verts))
        sub = build_mesh(mesh.vertices[verts], local[faces], twin=twin)
        subs.append(Submesh(mesh=sub, to_parent=verts, label=lab, faces=face_ids))
    return subs


# ---------------------------------------------------------------------------
# Weld planning


@dataclass
class WeldSpec:
    """One pairwise weld between two welded components (sets of labels)."""

    left: frozenset
    right: frozenset
    # Parent-vertex paths (np arrays), each directed the way the faces of
    # `left` run its cut edges; a two-arc weld lists first the arc that ends
    # on the rim of hole_loop.
    arcs: list
    arc_kind: str  # "continuous" | "two-arc-multiply-connected"
    left_loops: list  # each side's boundary loops: parent-vertex arrays, in face order
    right_loops: list
    hole_loop: int | None = None  # parent boundary-loop index enclosed by this weld
    rim: np.ndarray | None = None  # that loop's parent vertices


@dataclass
class WeldPlan:
    welds: list
    n_pre: int  # welds[:n_pre] run before hole circularization
    hole_owner: dict  # parent loop index -> frozenset of labels at circularization


def _join(loops_a, loops_b):
    """The weld of two sides, from their boundary loops (parent-vertex
    arrays): (arcs, loops of the union), or None when the sides do not weld.

    An edge that side a's loops run u -> v and side b's run v -> u is on an
    arc: those edges, the way side a runs them, are chained into maximal
    vertex paths listed by first vertex; the sides do not weld when they
    share no edge, or the shared edges branch or close a cycle. The other
    edges are chained into the union's loops; the sides do not weld when
    those branch (NonManifold), where the sides touch at a vertex off their
    arcs."""
    tails = np.concatenate(loops_a + loops_b)
    heads = np.concatenate([np.roll(lp, -1) for lp in loops_a + loops_b])
    n = int(tails.max()) + 1  # every head starts an edge too
    shared = np.isin(tails * n + heads, heads * n + tails)
    # An edge's reverse is never on its own side's loops, so side a's
    # shared edges are the arcs, once each.
    on_a = np.arange(len(tails)) < sum(len(lp) for lp in loops_a)
    arc_tails = tails[shared & on_a].tolist()
    arc_heads = heads[shared & on_a].tolist()
    if not arc_tails:
        return None
    succ = dict(zip(arc_tails, arc_heads))
    if len(succ) < len(arc_tails) or len(set(arc_heads)) < len(arc_heads):
        return None  # branching cut between the same two components
    arcs = []
    for start in sorted(succ.keys() - set(arc_heads)):
        path = [start]
        while path[-1] in succ:
            path.append(succ[path[-1]])
        arcs.append(np.asarray(path, dtype=np.int64))
    if sum(len(arc) - 1 for arc in arcs) < len(arc_tails):
        return None  # closed cut cycle: full welding is out of scope
    try:
        return arcs, chain_loops(tails[~shared], heads[~shared])
    except NonManifold:
        return None


def _loop_index(mesh):
    """Boundary-loop index of each vertex, -1 off the boundary. A boundary
    vertex lies on one loop only: build_mesh rejects a vertex with two
    outgoing boundary edges."""
    loop_of = np.full(mesh.n_vertices, -1, dtype=np.int64)
    for li, loop in enumerate(mesh.boundary_loops):
        loop_of[loop] = li
    return loop_of


def _hole_owners(mesh, submeshes):
    """For each inner loop of mesh: the set of labels with a vertex on the
    loop, which are those with a face incident to it, as a submesh's
    vertices are its faces' corners."""
    loop_of = _loop_index(mesh)
    owners = {li: set() for li in range(1, len(mesh.boundary_loops))}
    for sub in submeshes:
        for li in np.unique(loop_of[sub.to_parent]).tolist():
            if li > 0:
                owners[li].add(sub.label)
    return owners


def build_weld_specs(mesh, submeshes):
    """Plan the pairwise welds (phase 1 encloses holes, phase 2 joins the rest).

    submeshes are extract_submeshes(mesh, labels), which has validated the
    labels; each welded component is tracked by its boundary loops, one more
    than its holes, and a weld's arcs are the edges its two sides' loops run
    both ways (_join). Of the mesh only boundary_loops and n_vertices are
    read. Returns a WeldPlan; raises NoValidPlan when the partition cannot
    be welded with pairwise continuous/two-arc welds.
    """
    # Each welded component and its boundary loops.
    comps = {
        frozenset({sub.label}): [sub.to_parent[lp] for lp in sub.mesh.boundary_loops]
        for sub in submeshes
    }
    touch = _hole_owners(mesh, submeshes)
    welds = []

    def comp_of(lab):
        return next(c for c in comps if lab in c)

    def try_merge(p, q):
        """The weld of p and q, and the loops of their union; None when the
        pair does not weld."""
        joined = _join(comps[p], comps[q])
        if joined is None:
            return None
        arcs, union = joined
        # The holes the weld adds, as a component has one hole fewer than loops.
        extra = len(union) - len(comps[p]) - len(comps[q]) + 1
        hole = None
        if len(arcs) == 2 and extra == 1:
            hole = next((li for li, labs in touch.items()
                         if {comp_of(x) for x in labs} == {p, q}), None)
            if hole is None:
                return None
            if not np.isin(arcs[0][-1], mesh.boundary_loops[hole]):
                arcs.reverse()
        elif len(arcs) != 1 or extra != 0:
            return None
        return WeldSpec(
            left=p, right=q, arcs=arcs,
            arc_kind="continuous" if hole is None else "two-arc-multiply-connected",
            left_loops=comps[p], right_loops=comps[q], hole_loop=hole,
            rim=None if hole is None else mesh.boundary_loops[hole],
        ), union

    def merge_first(cands, kinds):
        """Weld the first pair of cands, in sorted order, that try_merge
        plans with an arc kind in kinds; False when no pair welds."""
        for p, q in itertools.combinations(sorted(cands, key=sorted), 2):
            merged = try_merge(p, q)
            if merged is not None and merged[0].arc_kind in kinds:
                spec, comps[p | q] = merged
                del comps[p], comps[q]
                welds.append(spec)
                return True
        return False

    # Phase 1: every inner hole must end up surrounded by a single component.
    for li in sorted(touch):
        while len(owners := {comp_of(x) for x in touch[li]}) > 1:
            if not merge_first(owners, ("continuous", "two-arc-multiply-connected")):
                raise NoValidPlan(
                    f"cannot enclose hole (loop {li}) with pairwise welds"
                )
        (owner,) = owners
        if len(comps[owner]) > 2:
            raise NoValidPlan(f"component {sorted(owner)} encloses more than one hole")

    n_pre = len(welds)
    hole_owner = {li: comp_of(next(iter(labs))) for li, labs in touch.items()}

    # Phase 2: join the remaining components along continuous arcs.
    while len(comps) > 1:
        if not merge_first(comps, ("continuous",)):
            raise NoValidPlan("remaining components share no weldable arc")

    return WeldPlan(welds=welds, n_pre=n_pre, hole_owner=hole_owner)


# ---------------------------------------------------------------------------
# Built-in partition heuristic


def default_partition(mesh, target_parts):
    """Greedy BFS face-growth partition honoring the one-hole restriction.

    The start is one region per hole (hop-distance regions around the rims)
    or the whole mesh. While there are fewer regions than target_parts (and
    more than holes are asked for), the largest region that splits validly
    is split in two from far-apart BFS seeds. A split is valid when both
    halves pass the partition rule (see _region_error) and every other
    region has passed it; only the two halves are checked. The labels are
    numbered once, at the end, and extraction validates them.

    The part count may differ from target_parts. A mesh with more holes than
    target_parts gets one part per hole (each part may hold at most one
    hole). Fewer parts than asked come back when splitting stops early, and
    one part when no valid finer partition is found.
    """
    if target_parts < 1:
        raise ParseError("target_parts must be >= 1")
    n_holes = mesh.n_holes
    base = _hole_voronoi(mesh) if n_holes else np.zeros(mesh.n_faces, dtype=np.int64)
    # The face ids of each raw label, and whether that region passes.
    regions = {lab: np.flatnonzero(base == lab) for lab in np.unique(base).tolist()}
    passed = {
        lab: _region_error(mesh, ids, lab, region_twins(mesh, ids)) is None
        for lab, ids in regions.items()
    }
    next_label = max(regions) + 1
    # Each pass adds exactly one region or stops.
    while target_parts > max(n_holes, len(regions)):
        failed = {lab for lab, ok in passed.items() if not ok}
        # Largest first, ties to the smaller raw label; while another region
        # fails, no split of this one is accepted.
        for lab in sorted(regions, key=lambda lab: (-len(regions[lab]), lab)):
            face_ids = regions[lab]
            if failed - {lab} or len(face_ids) < 8:
                continue
            far_side = _bisect_region(region_twins(mesh, face_ids))
            if far_side is None:
                continue
            halves = face_ids[~far_side], face_ids[far_side]
            if all(_region_error(mesh, ids, lab, region_twins(mesh, ids)) is None for ids in halves):
                break
        else:
            break  # no region splits validly
        regions[lab], regions[next_label] = halves
        passed[lab] = passed[next_label] = True
        next_label += 1

    label = np.zeros(mesh.n_faces, dtype=np.int64)
    if all(passed.values()):
        for new, lab in enumerate(sorted(regions)):
            label[regions[lab]] = new
    return PartitionLabeling(face_label=label)


def _hole_voronoi(mesh):
    """Multi-source hop-distance regions, one per hole rim; region i holds hole i."""
    n_holes = mesh.n_holes
    # Faces touching several rims go to the lowest hole index; hole i is
    # loop i + 1, and n_holes marks a face on no rim.
    corner = _loop_index(mesh)[mesh.faces]
    seed_label = np.where(corner > 0, corner - 1, n_holes).min(axis=1)
    seeds = np.flatnonzero(seed_label < n_holes)
    if len(seeds) == 0:
        return np.zeros(mesh.n_faces, dtype=np.int64)
    _, _, sources = csgraph.dijkstra(
        _face_graph(mesh.twin), directed=False, unweighted=True, indices=seeds,
        min_only=True, return_predecessors=True,
    )
    label = np.where(sources >= 0, seed_label[np.clip(sources, 0, None)], 0)
    return label.astype(np.int64)


def _bisect_region(twin):
    """2-seed hop-distance split of the region of twin cut twin: a mask over
    its faces of those nearer the second seed, or None when there is no
    second seed."""
    sub = _face_graph(twin)
    d0 = csgraph.dijkstra(sub, directed=False, unweighted=True, indices=0)
    d0 = np.where(np.isfinite(d0), d0, -1.0)
    # Farthest face from seed 0 becomes seed 1; ties go to the largest face id.
    far = np.flatnonzero(d0 == d0.max())
    seed1 = int(far[-1])
    if seed1 == 0:
        return None
    _, _, sources = csgraph.dijkstra(
        sub, directed=False, unweighted=True, indices=[0, seed1],
        min_only=True, return_predecessors=True,
    )
    return sources == seed1
