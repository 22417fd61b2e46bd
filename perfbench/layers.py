"""Which package functions the traced run wraps, and the per-layer metrics.

Each target is wrapped at the module attribute its caller looks it up under:
the pipeline finds its stage functions as ``weldmap.pipeline.<name>``, the
QC correction finds its flatten calls as ``weldmap.assemble.<name>``, and so
on. Stage calls (``flatten.dncp_flatten``) and the QC correction's inner calls
(``flatten.qc.lsqc_flatten``) therefore get separate names.
"""

from __future__ import annotations

import os
from collections import defaultdict

import weldmap.assemble as assemble
import weldmap.cli as cli
import weldmap.flatten as flatten
import weldmap.mesh as mesh
import weldmap.partition as partition
import weldmap.pipeline as pipeline

from spans import self_times

LAYERS = ("mesh", "partition", "flatten", "welding", "koebe", "assemble", "pipeline", "cli")

# Error codes of weldmap.errors; a code outside this list counts as OTHER,
# and an exception that is not a WeldmapError as UNEXPECTED.
FAILURE_CODES = (
    "PARSE_ERROR", "NON_MANIFOLD", "WRONG_TOPOLOGY", "DEGENERATE_FACE",
    "DISCONNECTED_SUBMESH", "SUBMESH_WITH_TWO_HOLES", "NO_VALID_PLAN",
    "SINGULAR_SYSTEM", "MU_OUT_OF_RANGE", "MISSING_BOUNDARY_VALUE",
    "NUMERICAL_BREAKDOWN", "MISORDERED_ARC", "BAD_AXIS_POINTS", "ZERO_XI",
    "PATH_INSIDE_POLYGON", "SEAM_MISMATCH", "CONFIG_ERROR", "IO_ERROR",
    "WELDMAP_ERROR", "OTHER", "UNEXPECTED",
)

STAGES = ("flatten", "pre_weld", "koebe_holes", "post_weld", "outer", "laplace", "assemble")

# Spans reported as wall time: they run on the calling thread only.
WALL_SPANS = ("pipeline.compute_parameterization", "cli.run_pipeline")
FAILABLE = ("welding.partial_weld", "welding.multiconnected_weld")
# Work done inside one stage of the pipeline's thread pool.
STAGE_WORK = {
    "flatten": ("flatten.dncp_flatten", "flatten.lsqc_flatten", "flatten.compose_beltrami"),
    "laplace": ("assemble.laplace_dirichlet", "assemble.qc_correction"),
}


def _file_bytes(counter):
    def after(rec, args, out):
        rec.add(counter, os.path.getsize(args[0]))
    return after


def _parts(rec, args, out):
    rec.add("partition.parts_asked", args[1])
    rec.add("partition.parts_returned", out.n_parts)


def _plan(rec, args, out):
    rec.add("partition.welds_planned", len(out.welds))


def _weld_points(rec, args):
    rec.add("welding.boundary_points", len(args[0]) + len(args[1]))


def _weld_done(rec, args, out):
    rec.add("welding.welds")


def _koebe_points(rec, args):
    passengers = args[1] if len(args) > 1 else ()
    rec.add("koebe.points", len(args[0]) + sum(len(p) for p in passengers))


def _qc_returned(rec, args, out):
    if out is not args[2]:  # a correction was computed, not the input handed back
        rec.kept.append(out)
        rec.add("assemble.qc_corrected")


def _qc_used(rec, args):
    corrected = {id(e) for e in rec.kept}
    rec.add("assemble.qc_used", sum(id(e) in corrected for e in args[1]))


def _stage_timings(rec, args, out):
    for stage, secs in out.report.timings.items():
        rec.add(f"pipeline.stage.{stage}_s", secs)


# (span name, owner, attribute, before hook, after hook)
TARGETS = (
    ("mesh.load_mesh", cli, "load_mesh", None, _file_bytes("mesh.bytes_read")),
    ("mesh.save_obj_with_uv", cli, "save_obj_with_uv", None, _file_bytes("mesh.bytes_written")),
    ("mesh.build_mesh", mesh, "build_mesh", None, None),
    ("mesh.build_mesh", partition, "build_mesh", None, None),
    ("partition.default_partition", cli, "default_partition", None, _parts),
    ("partition.default_partition", partition, "default_partition", None, _parts),
    ("partition.validate", partition.PartitionLabeling, "validate", None, None),
    ("partition.region_hole_count", partition, "region_hole_count", None, None),
    ("partition.extract_submeshes", pipeline, "extract_submeshes", None, None),
    ("partition.build_weld_specs", pipeline, "build_weld_specs", None, _plan),
    ("flatten.dncp_flatten", pipeline, "dncp_flatten", None, None),
    ("flatten.lsqc_flatten", pipeline, "lsqc_flatten", None, None),
    ("flatten.compose_beltrami", pipeline, "compose_beltrami", None, None),
    ("flatten.qc.lsqc_flatten", assemble, "lsqc_flatten", None, None),
    ("flatten.qc.compose_beltrami", assemble, "compose_beltrami", None, None),
    ("welding.partial_weld", pipeline, "partial_weld", _weld_points, _weld_done),
    ("welding.multiconnected_weld", pipeline, "multiconnected_weld", _weld_points, _weld_done),
    ("koebe.circularize_hole", pipeline, "circularize_hole", _koebe_points, None),
    ("koebe.circularize_outer", pipeline, "circularize_outer", _koebe_points, None),
    ("assemble.laplace_dirichlet", pipeline, "laplace_dirichlet", None, None),
    ("assemble.qc_correction", pipeline, "qc_correction", None, _qc_returned),
    ("assemble.assemble_global", pipeline, "assemble_global", _qc_used, None),
    ("assemble.area_distortion", pipeline, "area_distortion", None, None),
    ("assemble.beltrami_per_face", pipeline, "beltrami_per_face", None, None),
    ("assemble.beltrami_per_face", assemble, "beltrami_per_face", None, None),
    ("pipeline.compute_parameterization", pipeline, "compute_parameterization", None, _stage_timings),
    ("pipeline.compute_parameterization", cli, "compute_parameterization", None, _stage_timings),
    ("cli.run_pipeline", cli, "run_pipeline", None, None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))


class _CountingLinalg:
    """Stands in for scipy.sparse.linalg inside weldmap.flatten and counts
    the unknowns and the L+U fill of every LU factorization it hands back."""

    def __init__(self, real, rec):
        self._real = real
        self._rec = rec

    def __getattr__(self, name):
        return getattr(self._real, name)

    def splu(self, A, *args, **kwargs):
        lu = self._real.splu(A, *args, **kwargs)
        self._rec.add("flatten.unknowns", A.shape[0])
        self._rec.add("flatten.lu_fill_nnz", lu.L.nnz + lu.U.nnz)
        return lu


def patches(rec):
    """(owner, attribute, factory) triples for Recorder.installed()."""
    out = [
        (owner, attr, lambda fn, n=name, b=before, a=after: rec.wrap(n, fn, b, a))
        for name, owner, attr, before, after in TARGETS
    ]
    out.append((flatten, "spla", lambda real: _CountingLinalg(real, rec)))
    return out


def _self_name(layer):
    return "cli.overhead_s" if layer == "cli" else f"{layer}.self_s"


# Computed, not measured: one float64 value and one int32 row index per
# stored entry of L and U.
LU_BYTES_PER_NNZ = 12


def layer_metrics(rec, threads):
    """Per-layer metrics of one traced pass, except failed.*, ledger.*,
    quality.* and trace.*, which the workload adds. BENCHMARK.json lists
    them all with their units."""
    spans = rec.spans
    own = self_times(spans)
    busy = defaultdict(float)
    calls = defaultdict(int)
    failed = defaultdict(int)
    layer_self = defaultdict(float)
    for sp, s in zip(spans, own):
        busy[sp.name] += sp.duration
        calls[sp.name] += 1
        failed[sp.name] += sp.failed
        layer_self[sp.layer] += s

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.wall_s" if name in WALL_SPANS else f"{name}.busy_s"] = busy[name]
    for name in FAILABLE:
        out[f"{name}.failed"] = failed[name]
    for layer in LAYERS:
        out[_self_name(layer)] = layer_self[layer]

    c = rec.counts
    welds = c["welding.welds"]
    attempts = sum(calls[n] for n in FAILABLE)
    out.update({
        "mesh.bytes_read": c["mesh.bytes_read"],
        "mesh.bytes_written": c["mesh.bytes_written"],
        "partition.parts_ratio": _ratio(c["partition.parts_returned"], c["partition.parts_asked"]),
        "partition.welds_planned": c["partition.welds_planned"],
        "flatten.unknowns": c["flatten.unknowns"],
        "flatten.lu_fill_nnz": c["flatten.lu_fill_nnz"],
        "flatten.lu_bytes": LU_BYTES_PER_NNZ * c["flatten.lu_fill_nnz"],
        "welding.welds": welds,
        "welding.attempts_per_weld": _ratio(attempts, welds),
        "welding.boundary_points": c["welding.boundary_points"],
        "koebe.points": c["koebe.points"],
        "assemble.qc_corrected": c["assemble.qc_corrected"],
        "assemble.qc_used": c["assemble.qc_used"],
    })
    for stage in STAGES:
        out[f"pipeline.stage.{stage}_s"] = c[f"pipeline.stage.{stage}_s"]
    # Stage walls exist only for maps whose pipeline call returned, so the
    # work set against them must come from those maps too.
    done = _in_completed_map(spans)
    for stage, names in STAGE_WORK.items():
        work = sum(sp.duration for sp, ok in zip(spans, done) if ok and sp.name in names)
        out[f"pipeline.parallel_util.{stage}"] = _ratio(
            work, threads * c[f"pipeline.stage.{stage}_s"]
        )
    return out


def _in_completed_map(spans):
    """Per span: whether it ran inside a compute_parameterization call that
    returned. A parent span is always recorded before its children."""
    done = []
    for sp in spans:
        if sp.name == "pipeline.compute_parameterization":
            done.append(not sp.failed)
        else:
            done.append(sp.parent is not None and done[sp.parent])
    return done


def _ratio(num, den):
    return num / den if den else 0.0
