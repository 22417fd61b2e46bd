"""The benchmark's workloads: their inputs, one pass over their maps, the
correctness gate every successful map must pass, and the metrics.

A map is one partition plus parameterization. All meshes and Beltrami fields
come from the test suite's generators (tests/fixtures.py), unchanged.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

import fixtures
import layers
import weldmap.cli as cli
import weldmap.partition as partition
import weldmap.pipeline as pipeline
from spans import Recorder, union_length
from weldmap.errors import WeldmapError

THREADS = 2
# Set up at least SETUP_REPEATS times and until SETUP_MIN_S of set-up has
# been timed (at most SETUP_MAX_REPEATS times), so a set-up of a few
# milliseconds still gets a steady median.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 50
UNIT_TOL = 1e-9  # |uv| <= 1 + tol, and | |uv| - 1 | <= tol on the outer loop
E_GLOBAL_MAX = 0.05  # acceptance criterion 2's bound on the beltrami map
# Every smooth mu field is smooth_beltrami(mesh, MU_SEED): the field of the
# corpus sweep recorded in ROADMAP.md. A seed-driven field changes which maps
# fail and moves the quality metrics far beyond any regression bound; see
# README.md.
MU_SEED = 42


@dataclass
class Case:
    name: str
    mesh: object
    parts: int
    mu: np.ndarray
    qc: bool = True
    obj_path: str | None = None  # set: run weldmap.cli.run_pipeline on this file

    @property
    def mu_kind(self):
        return "smooth_mu" if np.any(self.mu) else "zero_mu"


@dataclass
class Outcome:
    code: str | None  # error code; None when the map succeeded
    start: float
    end: float
    uv: np.ndarray | None = None
    report: dict | None = None  # ParamReport.as_dict() of the map

    @property
    def wall(self):
        return self.end - self.start


# ---------------------------------------------------------------------------
# Inputs


def _zero(mesh):
    return np.zeros(mesh.n_faces, dtype=np.complex128)


def write_obj(path, mesh):
    """2D OBJ, so the mesh the CLI loads is the generated one, bit for bit."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"v {x!r} {y!r}\n" for x, y in mesh.vertices.tolist())
        fh.writelines(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in mesh.faces.tolist())


def conformal_grid(workdir):
    """Criterion 10's grid scaled to n = 300; mu = 0, QC off, via the CLI."""
    holes = fixtures.square_hole(59, 59, 34) | fixtures.square_hole(195, 178, 34)
    mesh = fixtures.grid_mesh(300, 300, width=3.0, height=3.0, hole_cells=holes)
    path = os.path.join(workdir, "grid300.obj")
    write_obj(path, mesh)
    return [Case("grid_mesh(300)/parts=4/mu=0", mesh, 4, _zero(mesh), qc=False, obj_path=path)]


def beltrami(workdir):
    """The acceptance scorecard's two-hole map; criterion 2 bounds its e_global."""
    mesh = fixtures.two_hole_grid(100)
    mu = fixtures.smooth_beltrami(mesh, MU_SEED)
    return [Case("two_hole_grid(100)/parts=4/mu=smooth", mesh, 4, mu)]


def warm_up(workdir):
    """One tiny map through the library and one through the CLI, untimed, so
    the first timed map does not pay for first calls into numpy and scipy."""
    mesh = fixtures.annulus_mesh(6, 32)
    path = os.path.join(workdir, "warm_up.obj")
    write_obj(path, mesh)
    for case in (
        Case("warm-up/lib", mesh, 2, fixtures.smooth_beltrami(mesh, MU_SEED)),
        Case("warm-up/cli", mesh, 2, _zero(mesh), obj_path=path),
    ):
        out = run_map(case, THREADS, workdir)
        if out.code is not None:
            raise RuntimeError(f"warm-up map failed with {out.code}")


CORPUS_MESHES = (
    ("two_hole_grid(40)", lambda: fixtures.two_hole_grid(40)),
    ("annulus_mesh(20,120)", lambda: fixtures.annulus_mesh(20, 120)),
    ("disk_mesh(16,64)", lambda: fixtures.disk_mesh(16, 64)),
    ("curved_annulus()", fixtures.curved_annulus),
    ("hemisphere_cap()", fixtures.hemisphere_cap),
)
CORPUS_PARTS = (1, 2, 3, 4, 6, 8)


def corpus(workdir):
    """The ROADMAP item-4 sweep: 5 meshes x 6 part counts x 2 mu fields."""
    cases = []
    for name, make in CORPUS_MESHES:
        mesh = make()
        fields = (("0", _zero(mesh)), ("smooth", fixtures.smooth_beltrami(mesh, MU_SEED)))
        for parts in CORPUS_PARTS:
            for tag, mu in fields:
                cases.append(Case(f"{name}/parts={parts}/mu={tag}", mesh, parts, mu))
    return cases


def _annulus_zero_mu(case):
    return case.mu_kind == "zero_mu" and case.name.startswith(
        ("annulus_mesh(20,120)/", "curved_annulus()/")
    )


@dataclass(frozen=True)
class Workload:
    build: Callable  # workdir -> list of Case, in ledger order
    e_global_max: float | None = None
    # Which successful maps run again at 1 thread (serial baseline and the
    # thread-count identity check).
    serial: Callable = lambda case: True


WORKLOADS = {
    "conformal_grid": Workload(conformal_grid),
    "beltrami": Workload(beltrami, E_GLOBAL_MAX),
    # All 39 successful maps at 1 thread would add about 25 s to every run.
    # The 12 mu = 0 maps of the two annuli add about 11 s: all of them
    # succeed, they span every part count, one is 3D, and at 0.3 to 1.8 s
    # each a short stall moves their median less than that of smaller maps.
    "corpus": Workload(corpus, serial=_annulus_zero_mu),
}


# ---------------------------------------------------------------------------
# One map


def _read_cli_output(out_dir):
    with open(os.path.join(out_dir, "parameterization.obj"), encoding="utf-8") as fh:
        uv = np.array([ln.split()[1:3] for ln in fh if ln.startswith("vt ")], dtype=np.float64)
    with open(os.path.join(out_dir, "metrics.json"), encoding="utf-8") as fh:
        return uv, json.load(fh)


def run_map(case, threads, workdir):
    """Run one map and time it; any exception becomes the outcome's code."""
    start = time.perf_counter()
    try:
        if case.obj_path is None:
            labels = partition.default_partition(case.mesh, case.parts)
            res = pipeline.compute_parameterization(
                case.mesh, labels, case.mu, qc=case.qc, threads=threads
            )
            return Outcome(None, start, time.perf_counter(), res.param.uv, res.report.as_dict())
        out_dir = os.path.join(workdir, f"out_{threads}t")
        cli.run_pipeline(
            cli.PipelineConfig(
                input_path=case.obj_path, partition=f"auto:{case.parts}",
                qc_correction=case.qc, threads=threads, out_dir=out_dir,
            )
        )
        end = time.perf_counter()
        return Outcome(None, start, end, *_read_cli_output(out_dir))
    except WeldmapError as exc:
        return Outcome(exc.code, start, time.perf_counter())
    except Exception:  # a crash in the program is a result here, not a benchmark error
        traceback.print_exc(file=sys.stderr)
        return Outcome("UNEXPECTED", start, time.perf_counter())


def check_map(case, out, e_global_max):
    """Problems with one successful map's output; empty when it is correct."""
    uv = out.uv
    if uv is None or uv.shape != (case.mesh.n_vertices, 2):
        return [f"{case.name}: uv has shape {None if uv is None else uv.shape}"]
    if not np.all(np.isfinite(uv)):
        return [f"{case.name}: uv is not finite"]
    problems = []
    r = np.hypot(uv[:, 0], uv[:, 1])
    if r.max() > 1 + UNIT_TOL:
        problems.append(f"{case.name}: |uv| reaches {r.max():.17g}")
    off = float(np.abs(r[case.mesh.boundary_loops[0]] - 1).max())
    if off > UNIT_TOL:
        problems.append(f"{case.name}: outer loop is {off:.3e} off the unit circle")
    if e_global_max is not None and out.report["e_global"] > e_global_max:
        problems.append(f"{case.name}: e_global {out.report['e_global']:.4g} > {e_global_max}")
    return problems


def check_identity(case, out2, out1):
    if out1.code is not None:
        return [f"{case.name}: succeeds at {THREADS} threads, fails at 1 ({out1.code})"]
    if not np.array_equal(out1.uv, out2.uv):
        return [f"{case.name}: uv at 1 and {THREADS} threads differ"]
    return []


# ---------------------------------------------------------------------------
# Passes and metrics


def ledger(cases, outs):
    return {c.name: (o.code or "ok") for c, o in zip(cases, outs)}


def failure_counts(outs):
    counts = dict.fromkeys(layers.FAILURE_CODES, 0)
    for o in outs:
        if o.code is not None:
            counts[o.code if o.code in counts else "OTHER"] += 1
    return {f"failed.{code}": n for code, n in counts.items()}


def ok_masks(cases, outs):
    """Bit i set when the i-th case of that mu kind succeeded (ledger order)."""
    masks = {"zero_mu": 0, "smooth_mu": 0}
    bits = {"zero_mu": 0, "smooth_mu": 0}
    for c, o in zip(cases, outs):
        if o.code is None:
            masks[c.mu_kind] |= 1 << bits[c.mu_kind]
        bits[c.mu_kind] += 1
    return {f"ledger.ok_mask.{k}": v for k, v in masks.items()}


def quality(cases, outs):
    """Quality of the successful maps of one pass; None when none succeeded."""
    ok = [(c, o) for c, o in zip(cases, outs) if o.code is None]
    if not ok:
        return None
    faces = sum(c.mesh.n_faces for c, _ in ok)
    flipped = sum(o.report["flipped_faces"] for _, o in ok)
    holes = [h for _, o in ok for h in o.report["hole_circularity"]]
    return {
        "ok_fraction": len(ok) / len(outs),
        "e_global": float(np.mean([o.report["e_global"] for _, o in ok])),
        "fold_free_share": 1.0 - flipped / faces,
        "hole_circularity_max": max(holes, default=0.0),
        "flipped_faces": flipped,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Session:
    """The maps of one benchmark run, with the checks applied as they finish."""

    def __init__(self, workload, cases, workdir):
        self.wl = workload
        self.cases = cases
        self.workdir = workdir
        self.problems = []
        self.attempted = 0
        self.unexpected = 0

    def _checked(self, case, out):
        self.attempted += 1
        self.unexpected += out.code == "UNEXPECTED"
        if out.code is None:
            self.problems.extend(check_map(case, out, self.wl.e_global_max))
        return out

    def run_pass(self):
        return [self._checked(c, run_map(c, THREADS, self.workdir)) for c in self.cases]

    def end_to_end(self, seconds):
        """Untraced passes for `seconds`: timings and quality. A pass starts
        only if one as long as the last still ends within `seconds`, so the
        number of passes does not hinge on a few seconds of machine speed; the
        first pass always runs."""
        first = None
        walls2, walls1, batches, pairs = [], [], [], []
        t_end = time.perf_counter() + seconds
        last = 0.0
        while first is None or time.perf_counter() + last <= t_end:
            t0 = time.perf_counter()
            outs = self.run_pass()
            batches.append(time.perf_counter() - t0)
            first = first or outs
            walls2 += [o.wall for o in outs]
            # Successful maps again at 1 thread: the serial baseline, and the
            # check that the thread count never changes the result.
            for case, out in zip(self.cases, outs):
                if out.code is None and self.wl.serial(case):
                    one = self._checked(case, run_map(case, 1, self.workdir))
                    self.problems.extend(check_identity(case, out, one))
                    walls1.append(one.wall)
                    pairs.append((one.wall, out.wall))
            last = time.perf_counter() - t0
        metrics = {
            "map_s": statistics.median(walls2),
            "map_p80_s": float(np.percentile(walls2, 80)),
            "batch_s": statistics.median(batches),
            "map_1t_s": statistics.median(walls1) if walls1 else 0.0,
            # Median of per-map ratios: a stall during one short map moves a
            # ratio of sums, not the median.
            "speedup_2t": statistics.median(one / two for one, two in pairs) if pairs else 0.0,
            "peak_rss_mb": peak_rss_mb(),
        }
        return metrics, first

    def per_layer(self):
        """One untraced and one traced pass: per-layer metrics and overhead."""
        plain = self.run_pass()
        rec = Recorder()
        with rec.installed(layers.patches(rec)):
            traced = self.run_pass()
        metrics = layers.layer_metrics(rec, THREADS)
        metrics.update(failure_counts(traced))
        metrics.update(ok_masks(self.cases, traced))
        spans = [(sp.start, sp.end) for sp in rec.spans]
        covered = sum(
            union_length([(max(s, o.start), min(e, o.end)) for s, e in spans if s < o.end and e > o.start])
            for o in traced
        )
        metrics["trace.overhead_s"] = statistics.median(o.wall for o in traced) - statistics.median(
            o.wall for o in plain
        )
        metrics["trace.coverage"] = covered / sum(o.wall for o in traced)
        return metrics, traced


def measure(name, seconds, trace, workdir):
    """Set up repeatedly (see SETUP_MIN_S), then measure. Returns (metrics,
    session, ledger, quality) with the end-to-end metrics, or with the
    per-layer metrics when trace is set."""
    wl = WORKLOADS[name]
    setup = []
    while len(setup) < SETUP_REPEATS or (
        sum(setup) < SETUP_MIN_S and len(setup) < SETUP_MAX_REPEATS
    ):
        t0 = time.perf_counter()
        cases = wl.build(workdir)
        setup.append(time.perf_counter() - t0)
    warm_up(workdir)
    session = Session(wl, cases, workdir)
    if trace:
        metrics, outs = session.per_layer()
    else:
        metrics, outs = session.end_to_end(seconds)
        metrics["setup_s"] = statistics.median(setup)
    q = quality(cases, outs)
    if q is None:
        session.problems.append(f"{name}: no map succeeded")
    elif trace:
        metrics["quality.flipped_faces"] = q["flipped_faces"]
    else:
        metrics.update({k: v for k, v in q.items() if k != "flipped_faces"})
    return metrics, session, ledger(cases, outs), q
