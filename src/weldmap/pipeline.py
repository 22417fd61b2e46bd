"""End-to-end orchestration of the parameterization stages.

Stage order: per-submesh flattening, the pre-planned welds that enclose each
hole, per-component hole circularization, the remaining welds, outer
circularization, optional cyclic refinement, per-submesh Dirichlet solves,
and the sequential global assembly. Parallel stages run per submesh or per
welded component in a thread pool and are reduced by index, so thread count
never changes the numbers.

Orientation comes from the faces, never from signed areas: boundary loops
keep the interior on their left, so the outer loop runs counter-clockwise,
and a weld takes side A's loop in face order (counter-clockwise) and side
B's loop reversed (clockwise), both running the planner's directed arcs
forward. An error inside a weld names stage "weld" and its two label sets.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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
    WeldmapError,
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
from .welding import multiconnected_weld, partial_weld

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
    """Current planar position of every submesh boundary vertex: one per
    parent vertex per welded component (a frozenset of labels).

    Only boundary vertices ride, as passengers, through the welding and
    circularization maps; submesh interiors are recreated later by the
    Dirichlet solves. Each component keeps its parent ids sorted, so a
    lookup is one searchsorted.
    """

    def __init__(self, submeshes, charts):
        self.comps = {}
        for lab, (sub, chart) in enumerate(zip(submeshes, charts)):
            # boundary_vertices is sorted and to_parent increasing, so the
            # parent ids come out sorted.
            local = sub.mesh.boundary_vertices()
            uv = chart.uv[local]
            self.comps[frozenset({lab})] = (
                sub.to_parent[local], uv[:, 0] + 1j * uv[:, 1]
            )

    def _slots(self, comp, vids):
        ids = self.comps[comp][0]
        idx = np.minimum(np.searchsorted(ids, vids), len(ids) - 1)
        miss = np.flatnonzero(ids[idx] != vids)
        if len(miss):
            raise WrongTopology(
                f"parent vertex {int(vids[miss[0]])} has no tracked copy"
            )
        return idx

    def get(self, comp, vids):
        return self.comps[comp][1][self._slots(comp, vids)]

    def _layout(self, comp, loops):
        slots = [self._slots(comp, lp) for lp in loops]
        off = np.ones(len(self.comps[comp][0]), dtype=bool)
        for idx in slots:
            off[idx] = False
        return slots, off

    def take(self, comp, loops):
        """Positions of each loop (parent vids) of comp, and of comp's
        vertices off those loops."""
        pos = self.comps[comp][1]
        slots, off = self._layout(comp, loops)
        return [pos[idx] for idx in slots], pos[off]

    def put(self, comp, loops, images, others):
        """Store the images of take(comp, loops)."""
        slots, off = self._layout(comp, loops)
        pos = np.empty(len(off), dtype=np.complex128)
        pos[off] = others
        for idx, img in zip(slots, images):
            pos[idx] = img
        self.comps[comp] = (self.comps[comp][0], pos)

    def merge(self, left, right):
        """Join two welded components; a vertex of both (a weld arc vertex)
        gets the mean of its two positions."""
        ids_l, pos_l = self.comps.pop(left)
        ids_r, pos_r = self.comps.pop(right)
        ids = np.concatenate([ids_l, ids_r])
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        pos = np.concatenate([pos_l, pos_r])[order]
        dup = np.flatnonzero(ids[1:] == ids[:-1])
        pos[dup] = 0.5 * (pos[dup] + pos[dup + 1])
        keep = np.ones(len(ids), dtype=bool)
        keep[dup + 1] = False
        self.comps[left | right] = (ids[keep], pos[keep])

    def loops(self, submeshes):
        """Per-submesh boundary loops as (label, points) for snapshots."""
        comp_of = {lab: comp for comp in self.comps for lab in comp}
        return [
            (lab, self.get(comp_of[lab], sub.to_parent[lp]))
            for lab, sub in enumerate(submeshes)
            for lp in sub.mesh.boundary_loops
        ]


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


def _side_loop(loops, arc, reverse):
    """The boundary loop through arc[0], rotated to start there and, for side
    B, reversed; it must start with the arc."""
    for lp in loops:
        at = np.flatnonzero(lp == arc[0])
        if len(at):
            lp = np.roll(lp, -at[0])
            if reverse:
                lp = np.roll(lp[::-1], 1)
            if np.array_equal(lp[: len(arc)], arc):
                return lp
            break
    raise WrongTopology("weld arc is not on a side boundary loop in its direction")


def _run_weld(spec, mesh, labels, tracker):
    """Weld spec.right onto spec.left; an error without a stage is given
    stage "weld" and the weld's label sets."""
    try:
        _weld(spec, mesh, labels, tracker)
    except WeldmapError as err:
        if err.stage is None:
            err.stage = "weld"
            err.submesh = f"{sorted(spec.left)} and {sorted(spec.right)}"
        raise


def _weld(spec, mesh, labels, tracker):
    try:
        loops_l, loops_r = [
            walk_boundary_loops(
                mesh.faces[np.isin(labels.face_label, sorted(comp))], mesh.n_vertices
            )
            for comp in (spec.left, spec.right)
        ]
    except NonManifold as err:
        raise WrongTopology(f"weld side boundary: {err}") from err

    # The faces of the two sides run each cut edge in opposite directions,
    # so the face-ordered loop of side A (counter-clockwise) and the reversed
    # loop of side B (clockwise) both run the directed arcs forward.
    arc1 = spec.arcs[0]
    loop_a = _side_loop(loops_l, arc1, reverse=False)
    loop_b = _side_loop(loops_r, arc1, reverse=True)
    r = len(arc1) - 1
    runs_a = [(0, r)]
    runs_b = [(0, r)]
    two_arc = spec.arc_kind == "two-arc-multiply-connected"
    if two_arc:
        arc2 = spec.arcs[1]
        # argmax gives 0, where arcs[0] starts, when arc2[0] is missing.
        s_a, s_b = (int(np.argmax(lp == arc2[0])) for lp in (loop_a, loop_b))
        t_a, t_b = s_a + len(arc2) - 1, s_b + len(arc2) - 1
        if not (
            np.array_equal(loop_a[s_a : t_a + 1], arc2)
            and np.array_equal(loop_b[s_b : t_b + 1], arc2)
        ):
            raise MisorderedArc(
                "second weld arc is inconsistent between the two sides"
            )
        # Between the arcs, side A runs along its share of the hole rim (the
        # other gap is outer boundary).
        rim = mesh.boundary_loops[spec.hole_loop]
        if not np.isin(loop_a[r + 1 : s_a], rim).all():
            raise MisorderedArc("cannot order the two weld arcs around the hole rim")
        runs_a.append((s_a, t_a))
        runs_b.append((s_b, t_b))

    # Only the vertices off the two weld loops ride through the weld maps.
    (pos_a,), rest_a = tracker.take(spec.left, [loop_a])
    (pos_b,), rest_b = tracker.take(spec.right, [loop_b])
    failed = []
    for q in _DENSIFY:
        dp_a, sel_a = _subdivide_runs(pos_a, runs_a, q)
        dp_b, sel_b = _subdivide_runs(pos_b, runs_b, q)
        try:
            if two_arc:
                dn_a, dn_b, moved_a, moved_b = multiconnected_weld(
                    dp_a, dp_b, r * q, int(sel_a[s_a]), int(sel_a[t_a]),
                    s_b=int(sel_b[s_b]), t_b=int(sel_b[t_b]),
                    passengers_a=[rest_a], passengers_b=[rest_b],
                )
            else:
                st_a, st_b, moved_a, moved_b = partial_weld(
                    dp_a, dp_b, r * q,
                    passengers_a=[rest_a], passengers_b=[rest_b],
                )
                dn_a, dn_b = st_a.z[: len(dp_a)], st_b.z[: len(dp_b)]
        except NumericalBreakdown as err:
            failed.append((q, err))
            continue
        break
    else:
        raise failed[-1][1]
    new_a, new_b = dn_a[sel_a], dn_b[sel_b]
    if log.isEnabledFor(logging.INFO):
        # The seam gap: how far apart the two sides put each arc vertex
        # before merge averages them. Both sides send each arc entry to
        # exactly 0 and then through the same maps, so it reads 0; it is
        # logged so that a change breaking that shows.
        gap = max(
            float(np.abs(new_a[sa : ea + 1] - new_b[sb : eb + 1]).max())
            for (sa, ea), (sb, eb) in zip(runs_a, runs_b)
        )
        log.info(
            "weld %s and %s: densify q=%d, seam gap %.3e%s",
            sorted(spec.left), sorted(spec.right), q, gap,
            "".join(f"; q={fq} failed: {err.code} {err}" for fq, err in failed),
        )
    tracker.put(spec.left, [loop_a], [new_a], moved_a[0])
    tracker.put(spec.right, [loop_b], [new_b], moved_b[0])
    tracker.merge(spec.left, spec.right)


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


def _solve_submesh(sub, lab, chart, tracker, comp, mu_faces, qc_on):
    flat = TriangleMesh(
        vertices=chart.uv, faces=sub.mesh.faces,
        boundary_loops=sub.mesh.boundary_loops,
    )
    bidx = sub.mesh.boundary_vertices()
    boundary = tracker.get(comp, sub.to_parent[bidx])
    emb = laplace_dirichlet(flat, dict(zip(bidx.tolist(), boundary.tolist())))
    if qc_on:
        corrected = qc_correction(sub.mesh.vertices, sub.mesh.faces, emb, mu_faces)
        if corrected is not emb:
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
            (poly,), rest = tracker.take(comp, [rim])
            out_h, (out_p,) = circularize_hole(poly, [rest])
            return comp, rim, out_h, out_p

        for comp, rim, out_h, out_p in pool.map(circ_hole, hole_items):
            tracker.put(comp, [rim], [out_h], out_p)
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
        (whole,) = tracker.comps  # every weld has run: one component
        outer_ids = mesh.boundary_loops[0]
        (poly,), rest = tracker.take(whole, [outer_ids])
        out_o, (out_p,) = circularize_outer(poly, [rest])
        tracker.put(whole, [outer_ids], [out_o], out_p)
        toc("outer", t0)
        snap("outer")

        hole_loops = [mesh.boundary_loops[li] for li in sorted(plan.hole_owner)]
        refine_history = [
            [loop_circularity(tracker.get(whole, lp)) for lp in hole_loops]
        ]
        if koebe_passes > 0 and hole_loops:
            t0 = tic()
            loops = [outer_ids, *hole_loops]
            (outer_poly, *hole_polys), rest = tracker.take(whole, loops)
            out_o, out_h, (out_e,), history = koebe_refine(
                outer_poly, hole_polys, extras=[rest],
                passes=koebe_passes, target=0.0,
            )
            tracker.put(whole, loops, [out_o, *out_h], out_e)
            refine_history = history
            toc("refine", t0)
            snap("refine")

        t0 = tic()
        embeddings = list(
            pool.map(
                lambda args: _solve_submesh(*args),
                [
                    (sub, lab, charts[lab], tracker, whole, mu_subs[lab], qc)
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
