"""End-to-end orchestration of the parameterization stages.

Stage order: per-submesh flattening, the pre-planned welds that enclose each
hole, per-component hole circularization, the remaining welds, outer
circularization, optional cyclic refinement (the same hole and outer
roundings, repeated), per-submesh Dirichlet solves, and the sequential
global assembly. Flattening runs per submesh in a thread pool, where sparse
LU releases the GIL. The welds and circularizations run in plan order as
one task (the chain): their zipper steps hold the GIL, and a plan seldom
has two label-disjoint welds in a row. A weld reads only its WeldSpec,
which carries both sides' boundary loops and the hole rim, and the
tracker: nothing in the chain walks a boundary. Lanes on the other
workers (one lane, after the chain, at one thread) factor each submesh's
Dirichlet system beside the chain and solve it once the chain has run.
Results are reduced by index, so thread count never changes the numbers.

Orientation comes from the faces, never from signed areas: boundary loops
keep the interior on their left, so the outer loop runs counter-clockwise,
and a weld takes side A's loop in face order (counter-clockwise) and side
B's loop reversed (clockwise), both running the planner's directed arcs
forward. An error names its stage: "flatten" and "laplace" with the
submesh label, "weld" with the weld's two label sets, "koebe" with
"hole <loop> of <labels>", "outer", "refine pass <p>, hole <loop>" or
"refine pass <p>, outer", and "report".
"""

from __future__ import annotations

import logging
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .assemble import (
    GlobalParameterization,
    ParamReport,
    area_distortion,
    assemble_global,
    dirichlet_factor,
    laplace_dirichlet,
    mobius_area_correct,
    qc_correction,
)
from .errors import (
    MisorderedArc,
    MuOutOfRange,
    NumericalBreakdown,
    ParseError,
    WeldmapError,
    WrongTopology,
)
from .flatten import (
    EPS_MU,
    beltrami_per_face,
    compose_beltrami,
    dncp_flatten,
    lsqc_flatten,
)
from .koebe import circularize_hole, circularize_outer, loop_circularity
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
            uv = chart[local]
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

    def take(self, comp, loop):
        """Positions of a loop (parent vids) of comp and of comp's vertices
        off it, and the slots of both, which put takes back."""
        pos = self.comps[comp][1]
        idx = self._slots(comp, loop)
        off = np.ones(len(pos), dtype=bool)
        off[idx] = False
        return pos[idx], pos[off], (idx, off)

    def put(self, comp, slots, image, others):
        """Store the images of what take gave with these slots."""
        idx, off = slots
        pos = np.empty(len(off), dtype=np.complex128)
        pos[off] = others
        pos[idx] = image
        self.comps[comp] = (self.comps[comp][0], pos)

    def merge(self, left, right):
        """Join two welded components; a vertex of both (a weld arc vertex)
        keeps its left position. The weld gives both sides the same image
        of an arc vertex (the seam gap that _run_weld logs)."""
        ids_l, pos_l = self.comps.pop(left)
        ids_r, pos_r = self.comps.pop(right)
        ids = np.concatenate([ids_l, ids_r])
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        keep = np.append(True, ids[1:] != ids[:-1])
        pos = np.concatenate([pos_l, pos_r])[order]
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
    t = np.arange(q) / q
    sel = np.arange(len(pos))
    parts = []
    prev_end = 0
    for start, end in runs:
        a, b = pos[start:end, None], pos[start + 1 : end + 1, None]
        parts += [pos[prev_end:start], (a + (b - a) * t).ravel()]
        # Each run edge before an index moves it on by q - 1 new points.
        sel[start:] += (q - 1) * np.minimum(np.arange(len(pos) - start), end - start)
        prev_end = end
    parts.append(pos[prev_end:])
    return np.concatenate(parts), sel


def _weld_side(loops, arcs, reverse):
    """Lay out one side of a weld: its boundary loop through arcs[0][0],
    rotated to start there and, for side B, reversed, and the (start, end)
    run of each arc on that loop. The loop must start with arcs[0]
    (WrongTopology) and hold every later arc (MisorderedArc)."""
    arc = arcs[0]
    lp = next((lp for lp in loops if arc[0] in lp), None)
    if lp is not None:
        lp = np.roll(lp, -int(np.argmax(lp == arc[0])))
        if reverse:
            lp = np.roll(lp[::-1], 1)
    if lp is None or not np.array_equal(lp[: len(arc)], arc):
        raise WrongTopology("weld arc is not on a side boundary loop in its direction")
    runs = [(0, len(arc) - 1)]
    for arc in arcs[1:]:
        # argmax gives 0, where arcs[0] starts, when arc[0] is missing.
        s = int(np.argmax(lp == arc[0]))
        if not np.array_equal(lp[s : s + len(arc)], arc):
            raise MisorderedArc("second weld arc is inconsistent between the two sides")
        runs.append((s, s + len(arc) - 1))
    return lp, runs


@contextmanager
def _stage(stage, submesh=None):
    """An error without a stage raised in the block gets this stage and
    submesh. Its finished frames are cleared on the raising thread: a
    SuperLU factor they hold must die on the thread that made it."""
    try:
        yield
    except WeldmapError as err:
        if err.stage is None:
            err.stage, err.submesh = stage, submesh
        traceback.clear_frames(err.__traceback__)
        raise


def _run_weld(spec, tracker):
    """Weld spec.right onto spec.left, in stage "weld" with the weld's label
    sets."""
    with _stage("weld", f"{sorted(spec.left)} and {sorted(spec.right)}"):
        # The faces of the two sides run each cut edge in opposite
        # directions, so the face-ordered loop of side A (counter-clockwise)
        # and the reversed loop of side B (clockwise) both run the directed
        # arcs forward.
        loop_a, runs_a = _weld_side(spec.left_loops, spec.arcs, reverse=False)
        loop_b, runs_b = _weld_side(spec.right_loops, spec.arcs, reverse=True)
        r = runs_a[0][1]
        weld = partial_weld
        if spec.arc_kind == "two-arc-multiply-connected":
            # Between the arcs, side A runs along its share of the hole rim
            # (the other gap is outer boundary).
            if not np.isin(loop_a[r + 1 : runs_a[1][0]], spec.rim).all():
                raise MisorderedArc(
                    "cannot order the two weld arcs around the hole rim"
                )
            weld = multiconnected_weld

        # Only the vertices off the two weld loops ride through the weld maps.
        pos_a, rest_a, slots_a = tracker.take(spec.left, loop_a)
        pos_b, rest_b, slots_b = tracker.take(spec.right, loop_b)
        failed = []
        for q in _DENSIFY:
            dp_a, sel_a = _subdivide_runs(pos_a, runs_a, q)
            dp_b, sel_b = _subdivide_runs(pos_b, runs_b, q)
            # The (start, end) of each later arc on side A, then on side B.
            markers = [int(sel[i]) for sel, runs in ((sel_a, runs_a), (sel_b, runs_b))
                       for run in runs[1:] for i in run]
            try:
                dn_a, dn_b, moved_a, moved_b = weld(
                    dp_a, dp_b, r * q, *markers,
                    passengers_a=[rest_a], passengers_b=[rest_b],
                )
            except NumericalBreakdown as err:
                failed.append((q, err))
                continue
            break
        else:
            raise failed[-1][1]
        new_a, new_b = dn_a[sel_a], dn_b[sel_b]
        if log.isEnabledFor(logging.INFO):
            # The seam gap: how far apart the two sides put each arc
            # vertex. Both sides send each arc entry to exactly 0 and then
            # through the same maps, so it reads 0, and merge keeps side A's
            # copy; it is logged so that a change breaking that shows.
            gap = max(
                float(np.abs(new_a[sa : ea + 1] - new_b[sb : eb + 1]).max())
                for (sa, ea), (sb, eb) in zip(runs_a, runs_b)
            )
            log.info(
                "weld %s and %s: densify q=%d, seam gap %.3e%s",
                sorted(spec.left), sorted(spec.right), q, gap,
                "".join(
                    f"; q={fq} failed: {err.code} {err}" for fq, err in failed
                ),
            )
        tracker.put(spec.left, slots_a, new_a, moved_a[0])
        tracker.put(spec.right, slots_b, new_b, moved_b[0])
        tracker.merge(spec.left, spec.right)


# ---------------------------------------------------------------------------
# Per-submesh work


def _flatten_submesh(sub, mu_faces):
    with _stage("flatten", sub.label):
        chart = dncp_flatten(sub.mesh)
        if np.any(mu_faces != 0):
            nu = compose_beltrami(sub.mesh.vertices, sub.mesh.faces, chart, mu_faces)
            chart = lsqc_flatten(replace(sub.mesh, vertices=chart), nu)
    return chart


def _correct_submesh(sub, emb, mu_faces):
    """QC on one Dirichlet solve, kept if it leaves the welded boundary."""
    with _stage("laplace", sub.label):
        corrected = qc_correction(sub.mesh.vertices, sub.mesh.faces, emb, mu_faces)
        bidx = sub.mesh.boundary_vertices()
        move = float(np.linalg.norm(corrected[bidx] - emb[bidx], axis=1).max())
        diam = max(float(np.ptp(emb, axis=0).max()), 1e-300)
        # keep the seam budget: a correction that walks the welded
        # boundary would break cross-submesh consistency
        if move <= SEAM_SNAP * diam:
            return corrected
        log.debug("submesh %d: QC correction rejected (boundary moved %.2e)",
                  sub.label, move)
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
):
    """Run the full stage DAG on an already-loaded mesh and partition.

    mu is a per-face complex array on the parent mesh. Returns a
    PipelineResult, with its stage timings and its per-stage snapshots.
    """
    mu = np.asarray(mu, dtype=np.complex128)
    if mu.shape != (mesh.n_faces,):
        raise ParseError(
            f"mu has shape {mu.shape}, expected ({mesh.n_faces},)",
            hint="give one Beltrami coefficient per face of the mesh",
        )
    bad = np.flatnonzero(~(np.abs(mu) < 1.0 - EPS_MU))  # NaN fails this too
    if len(bad):
        f = int(bad[0])
        raise MuOutOfRange(
            f"prescribed mu={mu[f]} on face {f} (|mu|={abs(mu[f]):.6f})",
            hint="give every face a finite Beltrami coefficient with "
            f"|mu| < {1 - EPS_MU}",
        )
    submeshes = extract_submeshes(mesh, labels)
    plan = build_weld_specs(mesh, submeshes)
    mu_subs = [mu[sub.faces] for sub in submeshes]
    timings = {}
    snapshots = []

    @contextmanager
    def stage(name, snap=True):
        """Time the block into timings, then snapshot the tracked loops
        unless snap is off."""
        t0 = time.perf_counter()
        yield
        timings[name] = time.perf_counter() - t0
        if snap:
            snapshots.append((name, tracker.loops(submeshes)))

    # A worker per submesh and one for the chain at most: more get no work.
    workers = min(max(1, threads), len(submeshes) + 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        with stage("flatten"):
            charts = list(pool.map(_flatten_submesh, submeshes, mu_subs))
            tracker = _Tracker(submeshes, charts)

        def round_loop(comp, ids, circularize):
            """The one Koebe step: round loop ids of comp with circularize,
            which callers name by its module global as the chain runs."""
            poly, rest, slots = tracker.take(comp, ids)
            out, (moved,) = circularize(poly, [rest])
            tracker.put(comp, slots, out, moved)

        def weld_chain():
            """The chain, in plan order; returns the refinement history."""
            with stage("pre_weld"):
                for spec in plan.welds[: plan.n_pre]:
                    _run_weld(spec, tracker)
            with stage("koebe_holes"):
                for li, comp in sorted(plan.hole_owner.items()):
                    with _stage("koebe", f"hole {li} of {sorted(comp)}"):
                        round_loop(comp, mesh.boundary_loops[li], circularize_hole)
            with stage("post_weld"):
                for spec in plan.welds[plan.n_pre :]:
                    _run_weld(spec, tracker)
            with stage("outer"), _stage("koebe", "outer"):
                (whole,) = tracker.comps  # every weld has run: one component
                round_loop(whole, mesh.boundary_loops[0], circularize_outer)

            holes = [(li, mesh.boundary_loops[li]) for li in sorted(plan.hole_owner)]
            history = [[loop_circularity(tracker.get(whole, rim)) for _, rim in holes]]
            if koebe_passes > 0 and holes:
                with stage("refine"):  # Koebe's cyclic iteration
                    for p in range(1, koebe_passes + 1):
                        for li, rim in holes:
                            with _stage("koebe", f"refine pass {p}, hole {li}"):
                                round_loop(whole, rim, circularize_hole)
                        with _stage("koebe", f"refine pass {p}, outer"):
                            round_loop(whole, mesh.boundary_loops[0], circularize_outer)
                        history.append([loop_circularity(tracker.get(whole, r)) for _, r in holes])
            return history

        def dirichlet_lane(block):
            """Factor each block submesh's Dirichlet system while the chain
            runs; solve it once the chain has run, at once if it has."""
            held = []  # (submesh, chart mesh, factor)
            try:
                for k, i in enumerate(block):
                    if chain.done() and chain.exception() is not None:
                        return  # the chain failed: nothing to solve
                    sub = submeshes[i]
                    with _stage("laplace", sub.label):
                        flat = replace(sub.mesh, vertices=charts[i])
                        held.append((sub, flat, dirichlet_factor(flat)))
                    if k + 1 < len(block) and not chain.done():
                        continue
                    if chain.exception() is not None:  # waits for the chain
                        return
                    (whole,) = tracker.comps
                    while held:
                        sub, flat, factor = held.pop(0)
                        bidx = sub.mesh.boundary_vertices()
                        with _stage("laplace", sub.label):
                            boundary = tracker.get(whole, sub.to_parent[bidx])
                            embeddings[sub.label] = laplace_dirichlet(flat, boundary, factor)
                        factor = None  # at one thread, dropped before the next is made
            finally:
                # A SuperLU factor dies on the thread that made it.
                held.clear()
                factor = None

        # The chain runs on a pool thread: glibc keeps a malloc arena per
        # thread, and its transients in the calling thread's arena raised
        # beltrami's peak RSS by a quarter. Lanes of contiguous submeshes run
        # beside it on the other workers, or after it at one thread.
        chain = pool.submit(weld_chain)
        embeddings = [None] * len(submeshes)
        blocks = np.array_split(np.arange(len(submeshes)), max(1, workers - 1))
        lanes = [pool.submit(dirichlet_lane, block) for block in blocks]
        refine_history = chain.result()  # a chain error comes first
        with stage("laplace", snap=False):
            for lane in lanes:  # blocks ascend: the lowest failed submesh wins
                lane.result()
            if qc:
                embeddings = list(
                    pool.map(_correct_submesh, submeshes, embeddings, mu_subs)
                )

    with stage("assemble", snap=False):
        param = assemble_global(submeshes, embeddings, n_vertices=mesh.n_vertices)
    if area_correct:
        with stage("area_correct", snap=False):
            param.uv, alpha = mobius_area_correct(mesh.vertices, mesh.faces, param.uv)
            log.debug("area correction alpha = %s", alpha)

    with _stage("report"):
        report = _build_report(mesh, mu, submeshes, param, timings)
    return PipelineResult(
        param=param, report=report, snapshots=snapshots,
        refine_history=refine_history,
    )


def _build_report(mesh, mu, submeshes, param, timings):
    fd = beltrami_per_face(mesh.vertices, mesh.faces, param.uv)
    e_face = np.abs(fd.mu_face - mu)
    e_global = float(e_face.mean())
    flipped = int(np.count_nonzero(fd.jacobian_sign < 0))
    e_sub = [float(e_face[sub.faces].mean()) for sub in submeshes]
    d, summary = area_distortion(mesh.vertices, mesh.faces, param.uv)
    holes = [
        loop_circularity(param.uv[lp][:, 0] + 1j * param.uv[lp][:, 1])
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
