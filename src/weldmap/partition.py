"""Partition labels, submesh extraction and weld planning.

A partition assigns one label per face.  Each labeled region must be
edge-connected and have at most one inner hole; cut edges are interior edges
between differently labeled faces and never coincide with boundary edges.
The weld planner turns a partition into an ordered sequence of pairwise
welds such that every inner hole ends up enclosed in exactly one welded
component before hole circularization.
"""

from __future__ import annotations

from collections import defaultdict
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
from .mesh import TriangleMesh, build_mesh, edge_face_counts


@dataclass
class PartitionLabeling:
    """Per-face submesh labels; labels are consecutive ints starting at 0."""

    face_label: np.ndarray

    def __post_init__(self):
        self.face_label = np.ascontiguousarray(self.face_label, dtype=np.int64)

    @property
    def n_parts(self):
        return int(self.face_label.max()) + 1 if self.face_label.size else 0

    def cut_edges(self, mesh):
        """Interior edges between differently labeled faces, as (e, 2) array."""
        u, v, f0, f1 = _interior_edges(mesh.faces)
        cut = self.face_label[f0] != self.face_label[f1]
        if not np.any(cut):
            return np.empty((0, 2), dtype=np.int64)
        out = np.column_stack([u[cut], v[cut]])
        return out[np.lexsort((out[:, 1], out[:, 0]))]

    def validate(self, mesh, adj=None):
        """Check connectivity and the at-most-one-hole restriction per part."""
        if len(self.face_label) != mesh.n_faces:
            raise ParseError("label count does not match face count")
        if self.face_label.min() < 0:
            raise ParseError("negative partition label")
        # Consecutive labels from 0 never exceed the face count, which also
        # bounds the bincount below.
        if self.face_label.max() >= len(self.face_label) or not np.all(
            np.bincount(self.face_label)
        ):
            raise ParseError("partition labels must be consecutive from 0")
        if adj is None:
            adj = face_adjacency(mesh.faces)
        for lab in range(self.n_parts):
            face_ids = np.flatnonzero(self.face_label == lab)
            if not _faces_connected(face_ids, adj):
                raise DisconnectedSubmesh(f"submesh {lab} is not edge-connected")
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
        raise ParseError(f"expected {n_faces} labels, found {raw.size}")
    # Remap to consecutive ids in increasing label order: 5, 2, 5 -> 1, 0, 1.
    _, inv = np.unique(raw, return_inverse=True)
    return PartitionLabeling(face_label=inv)


def _interior_edges(faces):
    """Interior (two-face) undirected edges as arrays (u, v, f0, f1), u < v."""
    m = len(faces)
    a = np.concatenate([faces[:, 0], faces[:, 1], faces[:, 2]])
    b = np.concatenate([faces[:, 1], faces[:, 2], faces[:, 0]])
    fi = np.tile(np.arange(m, dtype=np.int64), 3)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    span = np.int64(hi.max()) + 1 if m else np.int64(1)
    key = lo * span + hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    fi = fi[order]
    first = np.flatnonzero(key[:-1] == key[1:])
    return key[first] // span, key[first] % span, fi[first], fi[first + 1]


def face_adjacency(faces):
    """Shared-edge face adjacency as a symmetric sparse CSR matrix."""
    _, _, f0, f1 = _interior_edges(faces)
    m = len(faces)
    data = np.ones(2 * len(f0), dtype=np.int8)
    rows = np.concatenate([f0, f1])
    cols = np.concatenate([f1, f0])
    return sp.csr_matrix((data, (rows, cols)), shape=(m, m))


def _faces_connected(face_ids, adj):
    if len(face_ids) == 0:
        return False
    sub = adj[face_ids][:, face_ids]
    n_comp, _ = csgraph.connected_components(sub, directed=False)
    return n_comp == 1


def region_hole_count(mesh, face_ids):
    """Number of inner holes of the region spanned by face_ids (Euler count)."""
    faces = mesh.faces[face_ids]
    n_e = len(edge_face_counts(faces, mesh.n_vertices))
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
    """Split the mesh by labels; cut vertices are duplicated per submesh."""
    labels.validate(mesh)
    subs = []
    for lab in range(labels.n_parts):
        face_ids = np.flatnonzero(labels.face_label == lab)
        faces = mesh.faces[face_ids]
        verts = np.flatnonzero(np.bincount(faces.ravel(), minlength=mesh.n_vertices))
        local = np.full(mesh.n_vertices, -1, dtype=np.int64)
        local[verts] = np.arange(len(verts))
        sub = build_mesh(mesh.vertices[verts], local[faces])
        subs.append(Submesh(mesh=sub, to_parent=verts, label=lab))
    return subs


# ---------------------------------------------------------------------------
# Weld planning


@dataclass
class WeldSpec:
    """One pairwise weld between two welded components (sets of labels)."""

    left: frozenset
    right: frozenset
    arcs: list  # parent-vertex paths (np arrays), ordered along the cut
    arc_kind: str  # "continuous" | "two-arc-multiply-connected"
    hole_loop: int | None = None  # parent boundary-loop index enclosed by this weld


@dataclass
class WeldPlan:
    welds: list
    n_pre: int  # welds[:n_pre] run before hole circularization
    hole_owner: dict  # parent loop index -> frozenset of labels at circularization


def _shared_arcs(comp_a, comp_b, cut_cache):
    """Cut edges between two label sets, chained into maximal vertex paths."""
    cu, cv, cla, clb = cut_cache
    in_a = np.isin(cla, sorted(comp_a))
    in_b = np.isin(clb, sorted(comp_b))
    rev_a = np.isin(cla, sorted(comp_b))
    rev_b = np.isin(clb, sorted(comp_a))
    mask = (in_a & in_b) | (rev_a & rev_b)
    if not np.any(mask):
        return None
    edges = list(zip(cu[mask].tolist(), cv[mask].tolist()))
    nbr = defaultdict(list)
    for u, v in edges:
        nbr[u].append(v)
        nbr[v].append(u)
    ends = sorted(x for x, ns in nbr.items() if len(ns) == 1)
    if any(len(ns) > 2 for ns in nbr.values()):
        return None  # branching cut between the same two components
    if not ends:
        return None  # closed cut cycle: full welding is out of scope
    arcs = []
    used = set()
    for start in ends:
        if start in used:
            continue
        path = [start]
        used.add(start)
        cur = start
        while True:
            nxt = [x for x in nbr[cur] if x not in used]
            if not nxt:
                break
            cur = nxt[0]
            used.add(cur)
            path.append(cur)
        arcs.append(np.asarray(path, dtype=np.int64))
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
    eu, ev, ef0, ef1 = _interior_edges(mesh.faces)
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
            mask = np.isin(labels.face_label, list(comp))
            holes_memo[comp] = region_hole_count(mesh, np.flatnonzero(mask))
        return holes_memo[comp]

    def comp_of(lab, current):
        for c in current:
            if lab in c:
                return c
        raise AssertionError

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
                cl = {comp_of(x, comps) for x in labs}
                if cl == {p, q}:
                    hole = li
                    break
            if hole is None:
                return None
            return WeldSpec(
                left=p, right=q, arcs=arcs,
                arc_kind="two-arc-multiply-connected", hole_loop=hole,
            )
        return None

    def do_merge(spec):
        comps.remove(spec.left)
        comps.remove(spec.right)
        comps.append(spec.left | spec.right)
        welds.append(spec)

    # Phase 1: every inner hole must end up surrounded by a single component.
    for li in sorted(touch):
        while True:
            owners = sorted({comp_of(x, comps) for x in touch[li]}, key=sorted)
            if len(owners) == 1:
                break
            merged = False
            for i in range(len(owners)):
                for j in range(i + 1, len(owners)):
                    spec = try_merge(owners[i], owners[j])
                    if spec is not None:
                        do_merge(spec)
                        merged = True
                        break
                if merged:
                    break
            if not merged:
                raise NoValidPlan(
                    f"cannot enclose hole (loop {li}) with pairwise welds"
                )
        owner = comp_of(next(iter(touch[li])), comps)
        if region_holes(owner) > 1:
            raise NoValidPlan(f"component {sorted(owner)} encloses more than one hole")

    n_pre = len(welds)
    hole_owner = {
        li: comp_of(next(iter(labs)), comps) for li, labs in touch.items()
    }

    # Phase 2: join the remaining components along continuous arcs.
    while len(comps) > 1:
        merged = False
        ordered = sorted(comps, key=sorted)
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                spec = try_merge(ordered[i], ordered[j])
                if spec is not None:
                    if spec.arc_kind != "continuous":
                        continue
                    do_merge(spec)
                    merged = True
                    break
            if merged:
                break
        if not merged:
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
    adj = face_adjacency(mesh.faces)
    one_part = np.zeros(mesh.n_faces, dtype=np.int64)
    base = _hole_voronoi(mesh, adj) if n_holes else one_part

    if target_parts > max(n_holes, 1):
        split = _split_regions(mesh, adj, base, target_parts)
        if split is not None:
            return PartitionLabeling(face_label=_relabel(split))
    if n_holes:
        part = PartitionLabeling(face_label=_relabel(base))
        try:
            part.validate(mesh, adj=adj)
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
    guard = 0
    while len(np.unique(label)) < target_parts and guard < 4 * target_parts:
        guard += 1
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
                PartitionLabeling(face_label=_relabel(trial)).validate(mesh, adj=adj)
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
