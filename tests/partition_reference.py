"""The region splitter that checked the whole labeling after every trial
split, kept as the reference for weldmap.partition.default_partition; and
the weld planner that Euler-counted the holes of every union it weighed,
kept as the reference for weldmap.partition.build_weld_specs.

Each trial split here is relabeled and validated as a whole labeling: one
connected-components pass over all faces, then the hole count of every
label, the way the package checked a split before it checked only the two
halves a split makes. The hole seeds and the labels touching each hole are
found with one np.isin pass per hole, and the hop searches run on a face
adjacency matrix built from the interior edges (sliced to a region for a
split), where the package runs them on the face graph of a twin table.
`default_partition` takes the same arguments and returns the same labels as
the package's, so a test can compare the two byte for byte.

The reference planner cuts the parent's twin table for each union of labels
it weighs and counts the union's holes from the cut (region_hole_count),
where the package chains the two sides' boundary loops. It finds each
weld's arcs among the mesh's cut edges, by the labels of their two faces,
and the labels around each hole by the labels of the faces on its rim,
where the package reads both from the parts' boundary loops and vertices.
Its weld sides' loops are walked from each side's twin cut, the way the
weld chain walked them before the plan carried them. `build_weld_specs`
takes the labels besides the package's arguments and returns the same
plan, or raises the same NoValidPlan.
"""

import itertools

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from weldmap.errors import (
    DisconnectedSubmesh,
    NoValidPlan,
    ParseError,
    SubmeshWithTwoHoles,
    WeldmapError,
)
from weldmap.mesh import _walk_loops, chain_loops, region_twins
from weldmap.partition import (
    PartitionLabeling,
    WeldPlan,
    WeldSpec,
    region_hole_count,
)


def _interior_edges(mesh):
    """Interior (two-face) edges of the mesh, each once, as arrays
    (u, v, f0, f1): face f0 runs the edge u -> v, face f1 runs it v -> u."""
    twin = mesh.twin.ravel()
    # Half-edge h of face h // 3 runs its edge from faces.ravel()[h]; the
    # twin runs it back, from the other end.
    h = np.flatnonzero(twin > np.arange(len(twin)))
    tail = mesh.faces.ravel()
    return tail[h], tail[twin[h]], h // 3, twin[h] // 3


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


def _corner_loops(mesh):
    """Boundary-loop index of the vertex at each face corner, -1 off the
    boundary, shaped like mesh.faces. A boundary vertex lies on one loop
    only: build_mesh rejects a vertex with two outgoing boundary edges."""
    loop_of = np.full(mesh.n_vertices, -1, dtype=np.int64)
    for li, loop in enumerate(mesh.boundary_loops):
        loop_of[loop] = li
    return loop_of[mesh.faces]


def _touching_labels(mesh, labels):
    """For each inner loop: set of labels owning a face incident to the loop."""
    corner = _corner_loops(mesh).ravel()
    flat_labels = np.repeat(labels.face_label, 3)
    return {
        li: set(np.unique(flat_labels[corner == li]).tolist())
        for li in range(1, len(mesh.boundary_loops))
    }


def _union_loops(loops_a, loops_b):
    """Boundary loops of the union of two face sets, from their loops: the
    edges of both less those they share (run both ways), chained. Raises
    NonManifold where the sides touch at a vertex off their shared edges."""
    tails = np.concatenate(loops_a + loops_b)
    heads = np.concatenate([np.roll(lp, -1) for lp in loops_a + loops_b])
    n = int(tails.max()) + 1  # every head starts an edge too
    keep = ~np.isin(tails * n + heads, heads * n + tails)
    return chain_loops(tails[keep], heads[keep])


def validate(mesh, labels):
    """Whole-labeling check: connectivity of every label from one face graph,
    then at most one hole per label, in label order."""
    face_label = labels.face_label
    # Faces joined across the edges inside one part: a part is
    # edge-connected when exactly one component of that graph carries its
    # label.
    twin, m = mesh.twin, mesh.n_faces
    own = np.arange(m)[:, None]
    across = np.where(twin >= 0, twin // 3, own)
    across = np.where(face_label[across] == face_label[:, None], across, own)
    graph = sp.csr_matrix((np.ones(3 * m), across.ravel(), np.arange(0, 3 * m + 1, 3)), (m, m))
    n_comp, comp = csgraph.connected_components(graph, directed=False)
    comp_label = np.empty(n_comp, dtype=np.int64)
    comp_label[comp] = face_label
    pieces = np.bincount(comp_label, minlength=labels.n_parts)
    for lab in range(labels.n_parts):
        if pieces[lab] != 1:
            raise DisconnectedSubmesh(f"submesh {lab} is not edge-connected")
        face_ids = np.flatnonzero(face_label == lab)
        holes = region_hole_count(mesh, face_ids, region_twins(mesh, face_ids))
        if holes > 1:
            raise SubmeshWithTwoHoles(f"submesh {lab} has {holes} holes")


def face_adjacency(mesh):
    """Shared-edge face adjacency as a symmetric sparse CSR matrix."""
    _, _, f0, f1 = _interior_edges(mesh)
    data = np.ones(2 * len(f0), dtype=np.int8)
    rows = np.concatenate([f0, f1])
    cols = np.concatenate([f1, f0])
    return sp.csr_matrix((data, (rows, cols)), shape=(mesh.n_faces, mesh.n_faces))


def _bisect_region(face_ids, adj):
    """2-seed hop-distance split of one region: a mask over face_ids of the
    faces nearer the second seed, or None when there is no second seed."""
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
    return sources == seed1


def touching_labels(mesh, labels):
    """For each inner loop: set of labels owning a face incident to the loop."""
    flat_verts = mesh.faces.ravel()
    flat_labels = np.repeat(labels.face_label, 3)
    touch = {}
    for li in range(1, len(mesh.boundary_loops)):
        on_loop = np.isin(flat_verts, mesh.boundary_loops[li])
        touch[li] = set(np.unique(flat_labels[on_loop]).tolist())
    return touch


def default_partition(mesh, target_parts):
    if target_parts < 1:
        raise ParseError("target_parts must be >= 1")
    n_holes = mesh.n_holes
    adj = face_adjacency(mesh)
    one_part = np.zeros(mesh.n_faces, dtype=np.int64)
    base = _hole_voronoi(mesh, adj) if n_holes else one_part

    if target_parts > max(n_holes, 1):
        split = _split_regions(mesh, adj, base, target_parts)
        if split is not None:
            return split
    if n_holes:
        part = PartitionLabeling(face_label=_relabel(base))
        try:
            validate(mesh, part)
            return part
        except WeldmapError:
            pass
    return PartitionLabeling(face_label=one_part)


def _relabel(raw):
    _, inv = np.unique(raw, return_inverse=True)
    return inv.astype(np.int64)


def _hole_voronoi(mesh, adj):
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
    """Split regions in two until target: each round splits the largest
    region whose trial labeling passes a whole validation. Returns the last
    labeling that passed, or None when no split of base passed."""
    label = base.copy()
    accepted = None
    next_label = int(label.max()) + 1
    while len(np.unique(label)) < target_parts:
        labs, counts = np.unique(label, return_counts=True)
        for lab in labs[np.argsort(-counts, kind="stable")]:
            face_ids = np.flatnonzero(label == lab)
            if len(face_ids) < 8:
                continue
            far_side = _bisect_region(face_ids, adj)
            if far_side is None:
                continue
            trial = label.copy()
            trial[face_ids] = np.where(far_side, next_label, lab)
            part = PartitionLabeling(face_label=_relabel(trial))
            try:
                validate(mesh, part)
            except WeldmapError:
                continue
            break
        else:
            break  # no region splits validly
        label = trial
        next_label += 1
        accepted = part
    return accepted


def faces_in(labels, labs):
    """Ids of the faces whose label is in labs, in increasing order."""
    pick = np.zeros(labels.n_parts, dtype=bool)
    pick[list(labs)] = True
    return np.flatnonzero(pick[labels.face_label])


def region_loops(mesh, face_ids):
    """Boundary loops of the face set face_ids of mesh: its boundary
    half-edges are the -1 entries of its twin cut."""
    return _walk_loops(mesh.faces[face_ids], region_twins(mesh, face_ids) < 0)


def build_weld_specs(mesh, labels, submeshes):
    """Plan the pairwise welds (phase 1 encloses holes, phase 2 joins the
    rest), with each union's hole count from its twin cut."""
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
            face_ids = faces_in(labels, comp)
            holes_memo[comp] = region_hole_count(mesh, face_ids, region_twins(mesh, face_ids))
        return holes_memo[comp]

    def comp_of(lab):
        return next(c for c in comps if lab in c)

    def spec(p, q, arcs, kind, hole):
        return WeldSpec(
            left=p, right=q, arcs=arcs, arc_kind=kind,
            left_loops=region_loops(mesh, faces_in(labels, p)),
            right_loops=region_loops(mesh, faces_in(labels, q)),
            hole_loop=hole, rim=None if hole is None else mesh.boundary_loops[hole],
        )

    def try_merge(p, q):
        """(arcs, arc kind, hole loop) of the weld of p and q, or None."""
        arcs = _shared_arcs(p, q, cut_cache)
        if arcs is None:
            return None
        hp = region_holes(p)
        hq = region_holes(q)
        hu = region_holes(p | q)
        if len(arcs) == 1 and hu == hp + hq:
            return arcs, "continuous", None
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
            return arcs, "two-arc-multiply-connected", hole
        return None

    def merge_first(cands, kinds):
        for p, q in itertools.combinations(sorted(cands, key=sorted), 2):
            got = try_merge(p, q)
            if got is not None and got[1] in kinds:
                comps.remove(p)
                comps.remove(q)
                comps.append(p | q)
                welds.append(spec(p, q, *got))
                return True
        return False

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

    while len(comps) > 1:
        if not merge_first(comps, ("continuous",)):
            raise NoValidPlan("remaining components share no weldable arc")

    return WeldPlan(welds=welds, n_pre=n_pre, hole_owner=hole_owner)
