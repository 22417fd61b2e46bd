"""End-to-end orchestration of the parameterization stages.

Stage order: per-submesh flattening, the pre-planned welds that enclose each
hole, per-component hole circularization, the remaining welds, outer
circularization, optional cyclic refinement, per-submesh Dirichlet solves,
and the sequential global assembly. Parallel stages run per submesh or per
welded component in a thread pool and are reduced by index, so thread count
never changes the numbers.
"""

from __future__ import annotations

import logging
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .assemble import (
    GlobalParameterization,
    ParamReport,
    area_distortion,
    assemble_global,
    laplace_dirichlet,
    mobius_area_correct,
    qc_correction,
)
from .errors import (
    MisorderedArc,
    NonManifold,
    NumericalBreakdown,
    PathInsidePolygon,
    WrongTopology,
)
from .flatten import (
    beltrami_per_face,
    compose_beltrami,
    dncp_flatten,
    lsqc_flatten,
)
from .koebe import circularize_hole, circularize_outer, koebe_refine, loop_circularity
from .mesh import TriangleMesh, walk_boundary_loops
from .partition import build_weld_specs, extract_submeshes
from .welding import (
    _polygon_area,
    multiconnected_weld,
    partial_weld,
    point_in_polygon,
)

log = logging.getLogger("weldmap")

SEAM_SNAP = 1e-8  # relative boundary budget for accepting a QC correction


@dataclass
class PipelineResult:
    param: GlobalParameterization
    report: ParamReport
    snapshots: list  # (stage name, [(label, loop points), ...])
    refine_history: list


# ---------------------------------------------------------------------------
# Boundary position tracking


class _Tracker:
    """Current planar position of every submesh boundary vertex.

    Only boundary vertices ride, as passengers, through the welding and
    circularization maps; submesh interiors are recreated later by the
    Dirichlet solves.
    """

    def __init__(self, submeshes, embeddings):
        self.pos = []
        self.index = []  # per label: local vid -> slot
        self.owner = defaultdict(list)  # parent vid -> [(label, slot)]
        for lab, (sub, emb) in enumerate(zip(submeshes, embeddings)):
            ids = sub.mesh.boundary_vertices()
            uv = emb.uv[ids]
            self.pos.append(uv[:, 0] + 1j * uv[:, 1])
            self.index.append({int(v): k for k, v in enumerate(ids)})
            for k, v in enumerate(ids):
                self.owner[int(sub.to_parent[v])].append((lab, k))

    def parent_pos(self, vids, comp=None):
        out = np.empty(len(vids), dtype=np.complex128)
        for i, v in enumerate(vids):
            for lab, k in self.owner[int(v)]:
                if comp is None or lab in comp:
                    out[i] = self.pos[lab][k]
                    break
            else:
                raise WrongTopology(f"parent vertex {int(v)} has no tracked copy")
        return out

    def positions(self, comp):
        """Positions of every label of comp, concatenated in comp's order."""
        return np.concatenate([self.pos[lab] for lab in comp])

    def move(self, comp, moved):
        """Store moved (a BoundaryChain), the images of positions(comp)."""
        start = 0
        for lab in comp:
            stop = start + len(self.pos[lab])
            if moved.at_inf[start:stop].any():
                raise NumericalBreakdown(
                    "a boundary vertex escaped to infinity in the weld",
                    stage="weld", submesh=lab,
                )
            self.pos[lab] = moved.z[start:stop]
            start = stop

    def overwrite(self, vids, values, comp=None):
        for v, val in zip(vids, values):
            for lab, k in self.owner[int(v)]:
                if comp is None or lab in comp:
                    self.pos[lab][k] = val

    def boundary_values(self, sub, lab):
        """Dirichlet data for one submesh: local vid -> complex position."""
        return {vid: complex(self.pos[lab][k]) for vid, k in self.index[lab].items()}

    def loops(self, submeshes):
        """Per-submesh boundary loops as (label, points) for snapshots."""
        out = []
        for lab, sub in enumerate(submeshes):
            for lp in sub.mesh.boundary_loops:
                sl = [self.index[lab][int(v)] for v in lp]
                out.append((lab, self.pos[lab][sl].copy()))
        return out


# ---------------------------------------------------------------------------
# Weld sides in parent indexing


def _rotate_to_arc(loop, arc):
    """Rotate (and possibly reverse) the cyclic loop so it starts with the
    arc traversed in the given vid order; None if the arc is not there."""
    n = len(loop)
    where = {int(v): i for i, v in enumerate(loop)}
    if int(arc[0]) not in where:
        return None
    i = where[int(arc[0])]
    if all(int(loop[(i + j) % n]) == int(arc[j]) for j in range(len(arc))):
        return np.roll(loop, -i)
    if all(int(loop[(i - j) % n]) == int(arc[j]) for j in range(len(arc))):
        rev = loop[::-1]
        return np.roll(rev, -(n - 1 - i))
    return None


def _find_loop(loops, arc):
    for lp in loops:
        rot = _rotate_to_arc(lp, arc)
        if rot is not None:
            return rot
    raise WrongTopology("weld arc is not part of any region boundary loop")


def _chord_clear(points, i0, i1):
    """True when the open segment points[i0]..points[i1] properly crosses no
    polygon edge. Sample-point checks alone miss corner clipping."""
    p = points[i0]
    q = points[i1]
    a = points
    b = np.roll(points, -1)
    d = q - p
    e = b - a
    c1 = d.real * (a - p).imag - d.imag * (a - p).real
    c2 = d.real * (b - p).imag - d.imag * (b - p).real
    c3 = e.real * (p - a).imag - e.imag * (p - a).real
    c4 = e.real * (q - a).imag - e.imag * (q - a).real
    crossing = (c1 * c2 < 0) & (c3 * c4 < 0)
    return not bool(np.any(crossing))


def _detour_path(points, i0, i1, count):
    """Bridge path from points[i0] to points[i1] hugging the stretch of the
    polygon between them from the outside.

    For a counter-clockwise polygon the exterior lies to the right of travel
    (left for clockwise); each rim sample is pushed that way by a fraction of
    the local spacing, and the offset polyline is resampled to `count`
    interior points.
    """
    outward = -1j if _polygon_area(points) > 0 else 1j
    rim = points[i0 : i1 + 1]
    seg = np.diff(rim)
    dirs = np.empty(len(rim), dtype=np.complex128)
    dirs[0] = seg[0]
    dirs[-1] = seg[-1]
    dirs[1:-1] = seg[:-1] + seg[1:]
    mags = np.abs(dirs)
    if np.any(mags == 0):
        raise PathInsidePolygon("degenerate rim share; cannot build a detour")
    dirs /= mags
    spacing = np.empty(len(rim))
    spacing[0] = np.abs(seg[0])
    spacing[-1] = np.abs(seg[-1])
    spacing[1:-1] = 0.5 * (np.abs(seg[:-1]) + np.abs(seg[1:]))
    for eps in (0.4, 0.2, 0.1, 0.05):
        off = rim + outward * dirs * (eps * spacing)
        arc = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(off)))])
        total = arc[-1]
        ts = total * np.arange(1, count + 1) / (count + 1)
        re = np.interp(ts, arc, off.real)
        im = np.interp(ts, arc, off.imag)
        path = re + 1j * im
        if not any(point_in_polygon(complex(p), points) for p in path):
            return path
    raise PathInsidePolygon("no clear detour outside the hole rim")


# ---------------------------------------------------------------------------
# Weld execution

# Edge subdivision factors tried when a weld breaks down. Wildly different
# chart scales on the two sides of a cut make successive weld parameters jump
# past the alignment pole; refining the correspondence (same parametric
# subdivision of each cut edge in both charts) restores the half-axis
# invariant without changing which vertex pairs get welded.
_DENSIFY = (1, 2, 4, 8, 16)


def _subdivide_runs(pos, runs, q):
    """Split every edge inside the given index runs [(start, end), ...] into
    q pieces. Returns (new polygon, sel) where sel maps each original index
    to its position in the new polygon."""
    n = len(pos)
    parts = []
    sel = np.empty(n, dtype=np.int64)
    cursor = 0
    prev_end = 0
    for start, end in runs:
        if prev_end < start:
            seg = pos[prev_end:start]
            sel[prev_end:start] = cursor + np.arange(start - prev_end)
            parts.append(seg)
            cursor += start - prev_end
        for j in range(start, end):
            t = np.arange(q) / q
            parts.append(pos[j] + (pos[j + 1] - pos[j]) * t)
            sel[j] = cursor
            cursor += q
        sel[end] = cursor
        prev_end = end
    tail = pos[prev_end:]
    sel[prev_end:] = cursor + np.arange(n - prev_end)
    parts.append(tail)
    return np.concatenate(parts), sel


def _orient_side(loops, arc, tracker, comp, want_ccw):
    """Loop rotated to start with the arc, with arc direction chosen so the
    traversal has the requested planar orientation. Returns (loop, pos, arc)
    or None when the orientation cannot be realized."""
    loop = _find_loop(loops, arc)
    pos = tracker.parent_pos(loop, comp)
    area = _polygon_area(pos)
    if (area > 0) != want_ccw:
        arc = arc[::-1]
        loop = _find_loop(loops, arc)
        pos = tracker.parent_pos(loop, comp)
        area = _polygon_area(pos)
        if (area > 0) != want_ccw:
            return None
    return loop, pos, arc


def _run_weld(spec, mesh, labels, tracker):
    try:
        loops_l, loops_r = [
            walk_boundary_loops(
                mesh.faces[np.isin(labels.face_label, sorted(comp))], mesh.n_vertices
            )
            for comp in (spec.left, spec.right)
        ]
    except NonManifold as err:
        raise WrongTopology(f"weld side boundary: {err}", stage="weld") from err

    two_arc = spec.arc_kind == "two-arc-multiply-connected"
    if two_arc:
        # The stretch of boundary between the end of the first arc and the
        # start of the second must be this side's share of the hole rim (the
        # other gap is outer boundary); pick the arc order accordingly.
        rim_vids = set(int(v) for v in mesh.boundary_loops[spec.hole_loop])
        first = None
        for cand in (0, 1):
            arc_c = np.asarray(spec.arcs[cand], dtype=np.int64)
            got = _orient_side(loops_l, arc_c, tracker, spec.left, True)
            if got is None:
                continue
            loop_c, pos_c, arc_c = got
            other = set(int(v) for v in spec.arcs[1 - cand])
            idx = sorted(
                i for i, v in enumerate(loop_c) if int(v) in other
            )
            gap = loop_c[len(arc_c) : idx[0]]
            if all(int(v) in rim_vids for v in gap):
                first = cand
                arc1, loop_a, pos_a = arc_c, loop_c, pos_c
                break
        if first is None:
            raise MisorderedArc(
                "cannot order the two weld arcs around the hole rim",
                stage="weld",
            )
    else:
        got = _orient_side(
            loops_l, np.asarray(spec.arcs[0], dtype=np.int64), tracker,
            spec.left, True,
        )
        if got is None:
            raise MisorderedArc(
                "weld side A cannot be oriented counter-clockwise", stage="weld"
            )
        loop_a, pos_a, arc1 = got

    loop_b = _find_loop(loops_r, arc1)
    pos_b = tracker.parent_pos(loop_b, spec.right)
    if _polygon_area(pos_b) >= 0:
        raise MisorderedArc(
            "weld sides have the same planar orientation", stage="weld"
        )

    r = len(arc1) - 1
    runs_a = [(0, r)]
    runs_b = [(0, r)]
    if two_arc:
        arc2 = set(int(v) for v in spec.arcs[1 - first])
        idx_a = sorted(i for i, v in enumerate(loop_a) if int(v) in arc2)
        idx_b = sorted(i for i, v in enumerate(loop_b) if int(v) in arc2)
        s_a, t_a = idx_a[0], idx_a[-1]
        s_b, t_b = idx_b[0], idx_b[-1]
        if (
            t_a - s_a + 1 != len(idx_a)
            or t_b - s_b + 1 != len(idx_b)
            or not np.array_equal(loop_a[s_a : t_a + 1], loop_b[s_b : t_b + 1])
        ):
            raise MisorderedArc(
                "second weld arc is inconsistent between the two sides",
                stage="weld",
            )
        runs_a.append((s_a, t_a))
        runs_b.append((s_b, t_b))

    # Every tracked position of both sides rides through the weld maps.
    passengers = {
        "passengers_a": tracker.positions(spec.left),
        "passengers_b": tracker.positions(spec.right),
    }
    last_err = None
    for q in _DENSIFY:
        dp_a, sel_a = _subdivide_runs(pos_a, runs_a, q)
        dp_b, sel_b = _subdivide_runs(pos_b, runs_b, q)
        try:
            if two_arc:
                dn_a, dn_b, moved_a, moved_b = _two_arc_weld(
                    dp_a, dp_b, int(sel_a[r]), int(sel_a[s_a]), int(sel_a[t_a]),
                    int(sel_b[s_b]), int(sel_b[t_b]), passengers,
                )
            else:
                st_a, st_b, moved_a, moved_b = partial_weld(
                    dp_a, dp_b, r * q, **passengers
                )
                dn_a, dn_b = st_a.z[: len(dp_a)], st_b.z[: len(dp_b)]
        except NumericalBreakdown as err:
            last_err = err
            continue
        break
    else:
        raise last_err
    out_a = dn_a[sel_a]
    out_b = dn_b[sel_b]

    pairs = [(int(loop_a[j]), out_a[j], out_b[j]) for j in range(r + 1)]
    if two_arc:
        pairs += [
            (int(loop_a[s_a + i]), out_a[s_a + i], out_b[s_b + i])
            for i in range(t_a - s_a + 1)
        ]

    tracker.move(spec.left, moved_a)
    tracker.move(spec.right, moved_b)
    tracker.overwrite(loop_a, out_a, spec.left)
    tracker.overwrite(loop_b, out_b, spec.right)
    both = spec.left | spec.right
    for vid, va, vb in pairs:
        tracker.overwrite([vid], [0.5 * (va + vb)], both)


def _two_arc_weld(dp_a, dp_b, r_q, sa_q, ta_q, sb_q, tb_q, passengers):
    """Two-arc weld around a hole rim, bridging the rim gap straight when the
    chord is clear on both sides and by a detour outside the rim otherwise.
    passengers holds the passengers_a / passengers_b keyword arguments."""
    if _chord_clear(dp_a, r_q, sa_q) and _chord_clear(dp_b, r_q, sb_q):
        try:
            return multiconnected_weld(
                dp_a, dp_b, r_q, sa_q, ta_q, s_b=sb_q, t_b=tb_q, **passengers
            )
        except PathInsidePolygon:
            pass
    # The straight bridge between the rim-arc endpoints clips the polygon
    # (jagged hole mouths); detour just outside the rim.
    count = max(1, (sa_q - r_q + sb_q - r_q) // 2 - 1)
    aux_a = _detour_path(dp_a, r_q, sa_q, count)
    aux_b = _detour_path(dp_b, r_q, sb_q, count)
    return multiconnected_weld(
        dp_a, dp_b, r_q, sa_q, ta_q, s_b=sb_q, t_b=tb_q,
        aux_a=aux_a, aux_b=aux_b, **passengers,
    )


def _weld_batches(welds):
    """Group welds into runs of pairwise label-disjoint specs, preserving
    order across batches so merged components are ready when needed."""
    batches = []
    pending = list(welds)
    while pending:
        batch = [pending.pop(0)]
        used = set(batch[0].left | batch[0].right)
        while pending:
            nxt = pending[0]
            labs = set(nxt.left | nxt.right)
            if labs & used:
                break
            used |= labs
            batch.append(pending.pop(0))
        batches.append(batch)
    return batches


# ---------------------------------------------------------------------------
# Per-submesh work


def _flatten_submesh(sub, mu_faces):
    chart = dncp_flatten(sub.mesh)
    if np.any(mu_faces != 0):
        nu = compose_beltrami(sub.mesh.vertices, sub.mesh.faces, chart.uv, mu_faces)
        chart_mesh = TriangleMesh(
            vertices=chart.uv, faces=sub.mesh.faces,
            boundary_loops=sub.mesh.boundary_loops,
        )
        chart = lsqc_flatten(chart_mesh, nu)
    return chart


def _solve_submesh(sub, lab, chart, tracker, mu_faces, qc_on):
    flat = TriangleMesh(
        vertices=chart.uv, faces=sub.mesh.faces,
        boundary_loops=sub.mesh.boundary_loops,
    )
    emb = laplace_dirichlet(flat, tracker.boundary_values(sub, lab))
    if qc_on:
        corrected = qc_correction(sub.mesh.vertices, sub.mesh.faces, emb, mu_faces)
        if corrected is not emb:
            bidx = sub.mesh.boundary_vertices()
            move = float(
                np.linalg.norm(corrected.uv[bidx] - emb.uv[bidx], axis=1).max()
            )
            diam = max(float(np.ptp(emb.uv, axis=0).max()), 1e-300)
            # keep the seam budget: a correction that walks the welded
            # boundary would break cross-submesh consistency
            if move <= SEAM_SNAP * diam:
                emb = corrected
            else:
                log.debug(
                    "submesh %d: QC correction rejected (boundary moved %.2e)",
                    lab, move,
                )
    return emb


# ---------------------------------------------------------------------------
# Driver


def compute_parameterization(
    mesh,
    labels,
    mu,
    koebe_passes=0,
    qc=True,
    area_correct=False,
    threads=1,
    deterministic=False,
    want_snapshots=False,
):
    """Run the full stage DAG on an already-loaded mesh and partition.

    mu is a per-face complex array on the parent mesh. Returns a
    PipelineResult.
    """
    timings = {}
    snapshots = []

    def tic():
        return time.perf_counter()

    def toc(name, t0):
        if not deterministic:
            timings[name] = time.perf_counter() - t0

    def snap(stage):
        if want_snapshots:
            snapshots.append((stage, tracker.loops(submeshes)))

    mu = np.asarray(mu, dtype=np.complex128)
    submeshes = extract_submeshes(mesh, labels)
    plan = build_weld_specs(mesh, labels, submeshes)
    face_ids = [np.flatnonzero(labels.face_label == s.label) for s in submeshes]
    mu_subs = [mu[ids] for ids in face_ids]

    pool = ThreadPoolExecutor(max_workers=max(1, threads))
    try:
        t0 = tic()
        charts = list(pool.map(_flatten_submesh, submeshes, mu_subs))
        toc("flatten", t0)
        tracker = _Tracker(submeshes, charts)
        snap("flatten")

        t0 = tic()
        for batch in _weld_batches(plan.welds[: plan.n_pre]):
            list(
                pool.map(
                    lambda s: _run_weld(s, mesh, labels, tracker), batch
                )
            )
        toc("pre_weld", t0)
        snap("pre_weld")

        t0 = tic()
        hole_items = sorted(plan.hole_owner.items())

        def circ_hole(item):
            li, comp = item
            rim = mesh.boundary_loops[li]
            poly = tracker.parent_pos(rim, comp)
            members = sorted(comp)
            out_h, out_p = circularize_hole(
                poly, [tracker.pos[lab] for lab in members]
            )
            return li, comp, rim, out_h, members, out_p

        for li, comp, rim, out_h, members, out_p in pool.map(
            circ_hole, hole_items
        ):
            for lab, arr in zip(members, out_p):
                tracker.pos[lab] = arr
            tracker.overwrite(rim, out_h, comp)
        toc("koebe_holes", t0)
        snap("koebe_holes")

        t0 = tic()
        for batch in _weld_batches(plan.welds[plan.n_pre :]):
            list(
                pool.map(
                    lambda s: _run_weld(s, mesh, labels, tracker), batch
                )
            )
        toc("post_weld", t0)
        snap("post_weld")

        t0 = tic()
        outer_ids = mesh.boundary_loops[0]
        all_labels = list(range(len(submeshes)))
        poly = tracker.parent_pos(outer_ids)
        rev = _polygon_area(poly) < 0
        if rev:
            poly = poly[::-1]
        out_o, out_p = circularize_outer(poly, [tracker.pos[l] for l in all_labels])
        for lab, arr in zip(all_labels, out_p):
            tracker.pos[lab] = arr
        tracker.overwrite(outer_ids, out_o[::-1] if rev else out_o)
        toc("outer", t0)
        snap("outer")

        refine_history = [
            [
                loop_circularity(tracker.parent_pos(mesh.boundary_loops[li]))
                for li in sorted(plan.hole_owner)
            ]
        ]
        if koebe_passes > 0 and plan.hole_owner:
            t0 = tic()
            outer_poly = tracker.parent_pos(outer_ids)
            if rev:
                outer_poly = outer_poly[::-1]
            hole_polys = [
                tracker.parent_pos(mesh.boundary_loops[li])
                for li in sorted(plan.hole_owner)
            ]
            out_o, out_h, out_e, history = koebe_refine(
                outer_poly,
                hole_polys,
                extras=[tracker.pos[l] for l in all_labels],
                passes=koebe_passes,
                target=0.0,
            )
            for lab, arr in zip(all_labels, out_e):
                tracker.pos[lab] = arr
            tracker.overwrite(outer_ids, out_o[::-1] if rev else out_o)
            for li, h in zip(sorted(plan.hole_owner), out_h):
                tracker.overwrite(mesh.boundary_loops[li], h)
            refine_history = history
            toc("refine", t0)
            snap("refine")

        t0 = tic()
        embeddings = list(
            pool.map(
                lambda args: _solve_submesh(*args),
                [
                    (sub, lab, charts[lab], tracker, mu_subs[lab], qc)
                    for lab, sub in enumerate(submeshes)
                ],
            )
        )
        toc("laplace", t0)
    finally:
        pool.shutdown(wait=True)

    t0 = tic()
    stages = ["flatten", "pre_weld", "koebe_holes", "post_weld", "outer"]
    if koebe_passes > 0:
        stages.append("refine")
    stages += ["laplace", "assemble"]
    param = assemble_global(
        submeshes, embeddings, n_vertices=mesh.n_vertices, provenance=stages
    )
    toc("assemble", t0)

    if area_correct:
        t0 = tic()
        uv, alpha = mobius_area_correct(mesh.vertices, mesh.faces, param.uv)
        param.uv = uv
        param.provenance.append("area_correct")
        log.debug("area correction alpha = %s", alpha)
        toc("area_correct", t0)

    report = _build_report(mesh, mu, labels, param, timings)
    return PipelineResult(
        param=param, report=report, snapshots=snapshots,
        refine_history=refine_history,
    )


def _build_report(mesh, mu, labels, param, timings):
    fd = beltrami_per_face(mesh.vertices, mesh.faces, param.uv)
    e_face = np.abs(fd.mu_face - mu)
    e_global = float(e_face.mean())
    flipped = int(np.count_nonzero(fd.jacobian_sign < 0))
    e_sub = [
        float(e_face[labels.face_label == lab].mean())
        for lab in range(labels.n_parts)
    ]
    d, summary = area_distortion(mesh.vertices, mesh.faces, param.uv)
    holes = [
        loop_circularity(
            param.uv[lp][:, 0] + 1j * param.uv[lp][:, 1]
        ).circularity
        for lp in mesh.boundary_loops[1:]
    ]
    return ParamReport(
        e_submesh=e_sub,
        e_global=e_global,
        flipped_faces=flipped,
        area_mean_abs=summary["mean_abs"],
        area_hist_counts=summary["hist_counts"],
        area_hist_edges=summary["hist_edges"],
        hole_circularity=holes,
        timings=timings,
    )
