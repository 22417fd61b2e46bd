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
    NoValidPlan,
    ParseError,
    SubmeshWithTwoHoles,
    WeldmapError,
)
from .mesh import TriangleMesh, build_mesh, region_boundary


@dataclass
class PartitionLabeling:
    """Per-face submesh labels; labels are consecutive ints starting at 0."""

    face_label: np.ndarray

    def __post_init__(self):
        self.face_label = np.ascontiguousarray(self.face_label, dtype=np.int64)

    @property
    def n_parts(self):
        return int(self.face_label.max()) + 1 if self.face_label.size else 0

    def faces_in(self, labs):
        """Ids of the faces whose label is in labs, in increasing order."""
        pick = np.zeros(self.n_parts, dtype=bool)
        pick[list(labs)] = True
        return np.flatnonzero(pick[self.face_label])

    def validate(self, mesh):
        """Check connectivity and the at-most-one-hole restriction per part."""
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
        if self.face_label.max() >= len(self.face_label) or not np.all(
            np.bincount(self.face_label)
        ):
            raise ParseError("partition labels must be consecutive from 0")
        # Faces joined across the edges inside one part: a part is
        # edge-connected when exactly one component of that graph carries its
        # label. Row f holds the face across each edge of f, or f itself
        # across a boundary or cut edge, so the rows need no sorting.
        twin, m = mesh.twins(), mesh.n_faces
        own = np.arange(m)[:, None]
        across = np.where(twin >= 0, twin // 3, own)
        across = np.where(self.face_label[across] == self.face_label[:, None], across, own)
        graph = sp.csr_matrix((np.ones(3 * m), across.ravel(), np.arange(0, 3 * m + 1, 3)), (m, m))
        n_comp, comp = csgraph.connected_components(graph, directed=False)
        comp_label = np.empty(n_comp, dtype=np.int64)
        comp_label[comp] = self.face_label
        pieces = np.bincount(comp_label, minlength=self.n_parts)
        for lab in range(self.n_parts):
            if pieces[lab] != 1:
                raise DisconnectedSubmesh(f"submesh {lab} is not edge-connected")
            face_ids = np.flatnonzero(self.face_label == lab)
            holes = region_hole_count(mesh, face_ids)
            if holes > 1:
                raise SubmeshWithTwoHoles(f"submesh {lab} has {holes} holes")


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


def _interior_edges(mesh):
    """Interior (two-face) edges of the mesh, each once, as arrays
    (u, v, f0, f1): face f0 runs the edge u -> v, face f1 runs it v -> u."""
    twin = mesh.twins().ravel()
    # Half-edge h of face h // 3 runs its edge from faces.ravel()[h]; the
    # twin runs it back, from the other end.
    h = np.flatnonzero(twin > np.arange(len(twin)))
    tail = mesh.faces.ravel()
    return tail[h], tail[twin[h]], h // 3, twin[h] // 3


def face_adjacency(mesh):
    """Shared-edge face adjacency as a symmetric sparse CSR matrix."""
    _, _, f0, f1 = _interior_edges(mesh)
    data = np.ones(2 * len(f0), dtype=np.int8)
    rows = np.concatenate([f0, f1])
    cols = np.concatenate([f1, f0])
    return sp.csr_matrix((data, (rows, cols)), shape=(mesh.n_faces, mesh.n_faces))


def region_hole_count(mesh, face_ids):
    """Number of inner holes of the region spanned by face_ids (Euler count)."""
    # Edges inside the region have two of its half-edges, edges on its
    # boundary one.
    n_boundary = int(np.count_nonzero(region_boundary(mesh, face_ids)))
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


def extract_submeshes(mesh, labels):
    """Split the mesh by labels; cut vertices are duplicated per submesh.
    Each submesh's twin table is cut out of the parent's."""
    labels.validate(mesh)
    twin = mesh.twins()
    local_face = np.empty(mesh.n_faces, dtype=np.int64)
    subs = []
    for lab in range(labels.n_parts):
        face_ids = np.flatnonzero(labels.face_label == lab)
        faces = mesh.faces[face_ids]
        verts = np.flatnonzero(np.bincount(faces.ravel(), minlength=mesh.n_vertices))
        local = np.full(mesh.n_vertices, -1, dtype=np.int64)
        local[verts] = np.arange(len(verts))
        local_face[face_ids] = np.arange(len(face_ids))
        # A half-edge whose twin lies in another part is on the cut, so on
        # the submesh boundary.
        tw = twin[face_ids]
        inside = (tw >= 0) & (labels.face_label[tw // 3] == lab)
        tw = np.where(inside, 3 * local_face[tw // 3] + tw % 3, -1)
        sub = build_mesh(mesh.vertices[verts], local[faces], twin=tw)
        subs.append(Submesh(mesh=sub, to_parent=verts, label=lab))
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
    hole_loop: int | None = None  # parent boundary-loop index enclosed by this weld


@dataclass
class WeldPlan:
    welds: list
    n_pre: int  # welds[:n_pre] run before hole circularization
    hole_owner: dict  # parent loop index -> frozenset of labels at circularization


def _shared_arcs(comp_a, comp_b, cut_cache):
    """Cut edges between two label sets, chained into maximal vertex paths
    directed the way the faces of comp_a run them, listed by first vertex."""
    cu, cv, cla, clb = cut_cache
    fwd = np.isin(cla, sorted(comp_a)) & np.isin(clb, sorted(comp_b))
    rev = np.isin(cla, sorted(comp_b)) & np.isin(clb, sorted(comp_a))
    tails = np.concatenate([cu[fwd], cv[rev]]).tolist()
    heads = np.concatenate([cv[fwd], cu[rev]]).tolist()
    if not tails:
        return None
    succ = dict(zip(tails, heads))
    if len(succ) < len(tails) or len(set(heads)) < len(heads):
        return None  # branching cut between the same two components
    arcs = []
    for start in sorted(succ.keys() - set(heads)):
        path = [start]
        while path[-1] in succ:
            path.append(succ[path[-1]])
        arcs.append(np.asarray(path, dtype=np.int64))
    if sum(len(arc) - 1 for arc in arcs) < len(tails):
        return None  # closed cut cycle: full welding is out of scope
    return arcs


def _touching_labels(mesh, labels):
    """For each inner loop: set of labels owning a face incident to the loop."""
    flat_verts = mesh.faces.ravel()
    flat_labels = np.repeat(labels.face_label, 3)
    touch = {}
    for li in range(1, len(mesh.boundary_loops)):
        on_loop = np.isin(flat_verts, mesh.boundary_loops[li])
        touch[li] = set(np.unique(flat_labels[on_loop]).tolist())
    return touch


def build_weld_specs(mesh, labels, submeshes):
    """Plan the pairwise welds (phase 1 encloses holes, phase 2 joins the rest).

    submeshes are extract_submeshes(mesh, labels), which has validated the
    labels. Returns a WeldPlan; raises NoValidPlan when the partition cannot
    be welded with pairwise continuous/two-arc welds.
    """
    eu, ev, ef0, ef1 = _interior_edges(mesh)
    ela = labels.face_label[ef0]
    elb = labels.face_label[ef1]
    on_cut = ela != elb
    cut_cache = (eu[on_cut], ev[on_cut], ela[on_cut], elb[on_cut])

    comps = [frozenset({lab}) for lab in range(labels.n_parts)]
    touch = _touching_labels(mesh, labels)
    welds = []
    holes_memo = {}

    def region_holes(comp):
        if len(comp) == 1:
            return submeshes[next(iter(comp))].mesh.n_holes
        if comp not in holes_memo:
            holes_memo[comp] = region_hole_count(mesh, labels.faces_in(comp))
        return holes_memo[comp]

    def comp_of(lab):
        return next(c for c in comps if lab in c)

    def try_merge(p, q):
        arcs = _shared_arcs(p, q, cut_cache)
        if arcs is None:
            return None
        hp = region_holes(p)
        hq = region_holes(q)
        hu = region_holes(p | q)
        if len(arcs) == 1 and hu == hp + hq:
            return WeldSpec(left=p, right=q, arcs=arcs, arc_kind="continuous")
        if len(arcs) == 2 and hu == hp + hq + 1:
            hole = None
            for li, labs in touch.items():
                cl = {comp_of(x) for x in labs}
                if cl == {p, q}:
                    hole = li
                    break
            if hole is None:
                return None
            if not np.isin(arcs[0][-1], mesh.boundary_loops[hole]):
                arcs.reverse()
            return WeldSpec(
                left=p, right=q, arcs=arcs,
                arc_kind="two-arc-multiply-connected", hole_loop=hole,
            )
        return None

    def merge_first(cands, kinds):
        """Weld the first pair of cands, in sorted order, that try_merge
        plans with an arc kind in kinds; False when no pair welds."""
        for p, q in itertools.combinations(sorted(cands, key=sorted), 2):
            spec = try_merge(p, q)
            if spec is not None and spec.arc_kind in kinds:
                comps.remove(p)
                comps.remove(q)
                comps.append(p | q)
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
        if region_holes(owner) > 1:
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

    The part count may differ from target_parts. A mesh with more holes than
    target_parts gets one part per hole (each part may hold at most one
    hole). Fewer parts than asked come back when splitting stops early, and
    one part when no valid finer partition is found.
    """
    if target_parts < 1:
        raise ParseError("target_parts must be >= 1")
    n_holes = mesh.n_holes
    adj = face_adjacency(mesh)
    one_part = np.zeros(mesh.n_faces, dtype=np.int64)
    base = _hole_voronoi(mesh, adj) if n_holes else one_part

    if target_parts > max(n_holes, 1):
        split = _split_regions(mesh, adj, base, target_parts)
        if split is not None:
            return PartitionLabeling(face_label=_relabel(split))
    if n_holes:
        part = PartitionLabeling(face_label=_relabel(base))
        try:
            part.validate(mesh)
            return part
        except WeldmapError:
            pass
    return PartitionLabeling(face_label=one_part)


def _relabel(raw):
    _, inv = np.unique(raw, return_inverse=True)
    return inv.astype(np.int64)


def _hole_voronoi(mesh, adj):
    """Multi-source hop-distance regions, one per hole rim; region i holds hole i."""
    n_holes = mesh.n_holes
    seed_label = np.full(mesh.n_faces, -1, dtype=np.int64)
    # Faces touching several rims go to the lowest hole index.
    for hi in reversed(range(n_holes)):
        rim = mesh.boundary_loops[hi + 1]
        incident = np.isin(mesh.faces, rim).any(axis=1)
        seed_label[incident] = hi
    seeds = np.flatnonzero(seed_label >= 0)
    if len(seeds) == 0:
        return np.zeros(mesh.n_faces, dtype=np.int64)
    _, _, sources = csgraph.dijkstra(
        adj, directed=False, unweighted=True, indices=seeds,
        min_only=True, return_predecessors=True,
    )
    label = np.where(sources >= 0, seed_label[np.clip(sources, 0, None)], 0)
    return label.astype(np.int64)


def _split_regions(mesh, adj, base, target_parts):
    """Split regions in two (far-apart BFS seeds) until target: each round
    splits the largest region whose split passes validation.

    Returns the last labeling that passed validation, or None when no split
    of base passed.
    """
    label = base.copy()
    accepted = False
    next_label = int(label.max()) + 1
    # Each pass adds exactly one label or stops.
    while len(np.unique(label)) < target_parts:
        labs, counts = np.unique(label, return_counts=True)
        for lab in labs[np.argsort(-counts, kind="stable")]:
            face_ids = np.flatnonzero(label == lab)
            if len(face_ids) < 8:
                continue
            split = _bisect_region(face_ids, adj, next_label, int(lab))
            if split is None:
                continue
            trial = label.copy()
            trial[face_ids] = split
            try:
                PartitionLabeling(face_label=_relabel(trial)).validate(mesh)
            except WeldmapError:
                continue
            break
        else:
            break  # no region splits validly
        label = trial
        next_label += 1
        accepted = True
    return label if accepted else None


def _bisect_region(face_ids, adj, new_label, old_label):
    """2-seed hop-distance split of one region; returns labels per face_id."""
    sub = adj[face_ids][:, face_ids]
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
    out = np.where(sources == seed1, new_label, old_label)
    return out.astype(np.int64)
