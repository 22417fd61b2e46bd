"""End-to-end pipeline and CLI tests."""

import gc
import importlib
import json
import logging
import os
import sys
import threading
import time
from pathlib import Path
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import weldmap.assemble as assemble
import weldmap.flatten as flatten
import weldmap.mesh as mesh_module
import weldmap.partition as partition
import weldmap.pipeline as pipeline
from weldmap.assemble import area_distortion
from weldmap.cli import (
    PipelineConfig,
    emit_snapshot,
    load_mu_csv,
    main,
    run_pipeline,
)
import weldmap.cli as cli
from weldmap.errors import (
    ConfigError,
    DegenerateFace,
    MisorderedArc,
    MuOutOfRange,
    NumericalBreakdown,
    ParseError,
    SingularSystem,
    WrongTopology,
)
from weldmap.flatten import EPS_MU
from weldmap.partition import (
    PartitionLabeling,
    build_weld_specs,
    default_partition,
    extract_submeshes,
)
from weldmap.pipeline import _DENSIFY, _run_weld, _subdivide_runs, compute_parameterization

from fixtures import (
    annulus_mesh,
    curved_annulus,
    grid_mesh,
    lifted,
    smooth_beltrami,
    two_hole_grid,
)
import koebe_reference


def _zero_mu(mesh):
    return np.zeros(mesh.n_faces, dtype=np.complex128)


def _untimed(report):
    """report.as_dict() without its wall-clock timings."""
    return {**report.as_dict(), "timings": {}}


def _write_obj(path, mesh):
    with open(path, "w", encoding="utf-8") as fh:
        for p in mesh.vertices:
            fh.write(f"v {float(p[0])!r} {float(p[1])!r} 0\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def test_annulus_conformal_error():
    mesh = annulus_mesh(20, 120)
    labels = default_partition(mesh, 2)
    res = compute_parameterization(mesh, labels, _zero_mu(mesh), threads=1)
    assert res.report.e_global <= 1e-3
    assert res.report.flipped_faces == 0
    # the hole is circularized and strictly inside the unit circle
    assert len(res.report.hole_circularity) == 1
    assert res.report.hole_circularity[0] <= 0.05
    assert np.hypot(res.param.uv[:, 0], res.param.uv[:, 1]).max() <= 1.0 + 1e-9


def test_two_hole_prescribed_mu():
    mesh = two_hole_grid(100)
    labels = default_partition(mesh, 4)
    assert labels.n_parts == 4
    mu = smooth_beltrami(mesh)
    res = compute_parameterization(mesh, labels, mu, threads=4)
    assert all(e <= 0.05 for e in res.report.e_submesh)
    assert res.report.e_global <= 0.05


@pytest.mark.parametrize(
    "n, parts",
    # two_hole_grid(40) at 8 parts has two label-disjoint welds in a row.
    [(60, 4), (40, 8)],
    ids=["grid60-4parts", "grid40-8parts"],
)
def test_serial_parallel_bitwise_identical(n, parts):
    # Two threads run the chain beside one Dirichlet lane, four beside three.
    mesh = two_hole_grid(n)
    labels = default_partition(mesh, parts)
    mu = smooth_beltrami(mesh, seed=5)
    r1 = compute_parameterization(mesh, labels, mu, threads=1)
    for threads in (2, 4):
        rt = compute_parameterization(mesh, labels, mu, threads=threads)
        assert np.array_equal(r1.param.uv, rt.param.uv), threads
        assert _untimed(r1.report) == _untimed(rt.report), threads


def test_outer_loop_lands_on_the_unit_circle():
    # Only vertices off the outer loop ride through circularize_outer, so
    # no copy of the loop sits on the circle to trigger its shrink.
    mesh = two_hole_grid(40)
    labels = default_partition(mesh, 4)
    res = compute_parameterization(mesh, labels, _zero_mu(mesh))
    uv = res.param.uv[mesh.boundary_loops[0]]
    z = uv[:, 0] + 1j * uv[:, 1]
    assert np.abs(np.abs(z) - 1.0).max() <= 4.5e-16


def test_refine_passes_recorded():
    mesh = annulus_mesh(12, 64)
    labels = default_partition(mesh, 2)
    res = compute_parameterization(
        mesh, labels, _zero_mu(mesh), koebe_passes=2, threads=1
    )
    assert len(res.refine_history) == 3  # initial verification + 2 passes


def test_refine_without_a_hole_does_nothing():
    mesh = grid_mesh(4, 4)
    res = compute_parameterization(mesh, _halves(mesh), _zero_mu(mesh), koebe_passes=2)
    assert res.refine_history == [[]]
    assert "refine" not in res.report.timings


def test_refine_matches_the_cyclic_reference_bit_for_bit():
    # The refine stage rounds one loop at a time on the tracker; the
    # reference takes every loop at once, with the other tracked vertices
    # as extras. Both must give the same bits.
    mesh = two_hole_grid(40)
    labels = default_partition(mesh, 4)
    res = compute_parameterization(mesh, labels, _zero_mu(mesh), koebe_passes=2)
    # Every map snapshots the tracked loops after the flatten and each
    # chain stage.
    assert [name for name, _ in res.snapshots] == [
        "flatten", "pre_weld", "koebe_holes", "post_weld", "outer", "refine"
    ]
    subs = extract_submeshes(mesh, labels)

    def positions(stage):
        (loops,) = [loops for name, loops in res.snapshots if name == stage]
        pos = {}
        for (lab, pts), lp in zip(loops, (lp for s in subs for lp in s.mesh.boundary_loops)):
            pos.update(zip(subs[lab].to_parent[lp].tolist(), pts))
        return pos

    before, after = positions("outer"), positions("refine")
    assert before.keys() == after.keys()
    on_loops = set(np.concatenate(mesh.boundary_loops).tolist())
    extras = sorted(set(before) - on_loops)
    holes = mesh.boundary_loops[1:]

    def pick(pos, ids):
        return np.array([pos[v] for v in ids])

    outer, hs, (ex,), history = koebe_reference.koebe_refine(
        pick(before, mesh.boundary_loops[0]), [pick(before, h) for h in holes],
        [pick(before, extras)], passes=2,
    )
    assert len(holes) == 2 and len(extras) > 0
    assert np.array_equal(outer, pick(after, mesh.boundary_loops[0]))
    for h, ids in zip(hs, holes):
        assert np.array_equal(h, pick(after, ids))
    assert np.array_equal(ex, pick(after, extras))
    assert history == res.refine_history


def test_cli_end_to_end(tmp_path):
    obj = tmp_path / "annulus.obj"
    _write_obj(obj, annulus_mesh(10, 48))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        cfg = PipelineConfig(
            input_path=str(obj),
            partition="auto:2",
            deterministic=True,
            snapshots=True,
            out_dir=str(out),
        )
        assert run_pipeline(cfg) == 0
    metrics = json.loads((out1 / "metrics.json").read_text())
    assert metrics["schema_version"] == 1
    assert metrics["e_global"] <= 0.01
    assert metrics["timings"] == {}  # deterministic mode omits timings
    # deterministic runs are byte-identical across all artifacts
    for name in sorted(os.listdir(out1)):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    # snapshots parse as SVG with one path per boundary loop
    root = ET.fromstring((out1 / "snapshot_outer.svg").read_text())
    assert root.tag.endswith("svg")
    assert len(root) >= 2


def test_cli_missing_mu_csv(tmp_path, capsys):
    obj = tmp_path / "annulus.obj"
    _write_obj(obj, annulus_mesh(6, 24))
    rc = main(
        ["--input", str(obj), "--mu", str(tmp_path / "missing.csv"),
         "--out", str(tmp_path / "out")]
    )
    assert rc != 0
    assert "CONFIG_BELTRAMI_NOT_FOUND" in capsys.readouterr().err


def test_cli_missing_input():
    cfg = PipelineConfig(input_path="/nonexistent/mesh.obj")
    with pytest.raises(ConfigError) as ei:
        run_pipeline(cfg)
    assert ei.value.code == "CONFIG_INPUT_NOT_FOUND"


def _mapping_forbidden(monkeypatch):
    """Make reading a mesh or mapping one fail the test."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the run went past its config check")

    monkeypatch.setattr(cli, "load_mesh", forbidden)
    monkeypatch.setattr(cli, "compute_parameterization", forbidden)


@pytest.mark.parametrize(
    "flags, code, named",
    [
        (["--partition", "auto:x"], "CONFIG_BAD_PARTITION", "'auto:x'"),
        (["--partition", "{tmp}/labels.txt"], "CONFIG_PARTITION_NOT_FOUND", "labels.txt"),
        (["--koebe-passes", "-1"], "CONFIG_BAD_PASSES", "got -1"),
        (["--threads", "0"], "CONFIG_BAD_THREADS", "got 0"),
        # An existing regular file, and a path inside one.
        (["--out", "{tmp}/annulus.obj"], "CONFIG_BAD_OUT", "annulus.obj"),
        (["--out", "{tmp}/annulus.obj/out"], "CONFIG_BAD_OUT", "annulus.obj/out"),
    ],
    ids=["partition-spec", "label-file", "koebe-passes", "threads", "out-file", "out-in-file"],
)
def test_cli_refuses_a_bad_flag_before_it_reads_the_mesh(
    tmp_path, capsys, monkeypatch, flags, code, named
):
    obj = tmp_path / "annulus.obj"
    _write_obj(obj, annulus_mesh(6, 32))
    _mapping_forbidden(monkeypatch)
    argv = ["--input", str(obj), *(f.format(tmp=tmp_path) for f in flags)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {code} | ") and named in err


@pytest.mark.parametrize(
    "writer, name",
    [
        ("save_obj_with_uv", "parameterization.obj"),
        ("_write_json", "metrics.json"),
        ("emit_snapshot", "snapshot_"),
    ],
)
def test_cli_failing_to_write_an_output_is_an_io_error(tmp_path, capsys, monkeypatch, writer, name):
    obj = tmp_path / "annulus.obj"
    _write_obj(obj, annulus_mesh(6, 32))

    def full_disk(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, writer, full_disk)
    argv = ["--input", str(obj), "--partition", "auto:2", "--snapshots", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: IO_ERROR | ")
    assert f"{tmp_path / 'out' / name}" in err and "No space left on device" in err


def test_cli_with_a_label_file_and_a_mu_csv_maps_like_the_library(tmp_path):
    # The user-input branches of run_pipeline: labels read from a file and
    # mu from a CSV written with repr give the library's uv, bit for bit.
    mesh = annulus_mesh(6, 32)
    obj = tmp_path / "annulus.obj"
    obj.write_text("".join(f"v {x!r} {y!r}\n" for x, y in mesh.vertices.tolist())
                   + "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in mesh.faces.tolist()))
    cent = mesh.vertices[mesh.faces].mean(axis=1)
    labels = PartitionLabeling(face_label=(cent[:, 0] > 0).astype(np.int64))
    (tmp_path / "labels.txt").write_text("".join(f"{lab}\n" for lab in labels.face_label.tolist()))
    mu = smooth_beltrami(mesh)
    (tmp_path / "mu.csv").write_text("face_index,re,im\n" + "".join(
        f"{f},{z.real!r},{z.imag!r}\n" for f, z in enumerate(mu.tolist())
    ))
    argv = [
        "--input", str(obj), "--partition", str(tmp_path / "labels.txt"),
        "--mu", str(tmp_path / "mu.csv"), "--deterministic", "--out", str(tmp_path / "out"),
    ]
    assert main(argv) == 0
    vt = [line.split()[1:] for line in (tmp_path / "out" / "parameterization.obj").open()
          if line.startswith("vt ")]
    want = compute_parameterization(mesh, labels, mu).param.uv
    assert np.array_equal(np.array(vt, dtype=np.float64), want)


@pytest.mark.parametrize(
    "text, code, named",
    [
        (None, "CONFIG_BELTRAMI_NOT_FOUND", "cannot read"),  # a directory
        (b"0.1,0.2\xff\n", "CONFIG_BAD_BELTRAMI", "not UTF-8"),
        (b"# no rows\n\n", "CONFIG_BAD_BELTRAMI", "has no rows"),
        (b"0,0.1,0.2,0.3\n", "CONFIG_BAD_BELTRAMI", "rows of [4] columns"),
    ],
    ids=["unreadable", "not-utf8", "empty", "four-columns"],
)
def test_mu_csv_that_cannot_be_read_names_itself(tmp_path, text, code, named):
    path = tmp_path / "mu.csv"
    if text is None:
        path.mkdir()
    else:
        path.write_bytes(text)
    with pytest.raises(ConfigError) as ei:
        load_mu_csv(str(path), 3)
    assert ei.value.code == code
    assert repr(str(path)) in str(ei.value) and named in str(ei.value)


def test_main_builds_the_config_from_the_flags(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_pipeline", lambda config: seen.append(config) or 0)
    assert main(["--input", "m.obj"]) == 0
    assert seen[-1] == PipelineConfig(input_path="m.obj")
    argv = [
        "--input", "m.obj", "--partition", "auto:3", "--mu", "mu.csv",
        "--koebe-passes", "2", "--no-qc-correction", "--area-correct",
        "--threads", "4", "--deterministic", "--out", "res", "--snapshots",
    ]
    assert main(argv) == 0
    assert seen[-1] == PipelineConfig(
        input_path="m.obj", partition="auto:3", mu="mu.csv", koebe_passes=2,
        qc_correction=False, area_correct=True, threads=4, deterministic=True,
        out_dir="res", snapshots=True,
    )


def test_benchmark_hooks_find_their_targets(monkeypatch):
    # perfbench/layers.py wraps these attributes and reads these stage
    # timings; a refactor that drops one breaks only the traced benchmark.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    missing = [
        f"{owner.__name__}.{attr}"
        for _, owner, attr, _, _ in layers.TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing
    mesh = annulus_mesh(6, 32)
    labels = default_partition(mesh, 2)
    stages = list(layers.STAGES)
    res = compute_parameterization(mesh, labels, _zero_mu(mesh))
    assert list(res.report.timings) == stages
    res = compute_parameterization(
        mesh, labels, _zero_mu(mesh), koebe_passes=1, area_correct=True
    )
    stages.insert(stages.index("outer") + 1, "refine")
    assert list(res.report.timings) == [*stages, "area_correct"]


def test_benchmark_warm_up_maps_succeed(monkeypatch, tmp_path):
    # perfbench/workloads.warm_up raises when one of its two small maps
    # fails, which stops the benchmark before it times anything; welds
    # amplify rounding, so a change that moves the charts slightly can do
    # that.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    workloads.warm_up(str(tmp_path))


def test_mu_csv_formats(tmp_path):
    p3 = tmp_path / "mu3.csv"
    p3.write_text("face_index,re,im\n1,0.25,-0.5\n")
    mu = load_mu_csv(str(p3), 3)
    assert mu[0] == 0 and mu[1] == 0.25 - 0.5j and mu[2] == 0
    # The header is the first line that is not blank or a comment.
    p3.write_text("# mu field\n\nface,re,im\n1,0.25,-0.5\n")
    assert np.array_equal(load_mu_csv(str(p3), 3), mu)
    p3.write_text("face,re,im\nface,re,im\n1,0.25,-0.5\n")
    with pytest.raises(ConfigError, match="bad Beltrami CSV row 2"):
        load_mu_csv(str(p3), 3)
    p2 = tmp_path / "mu2.csv"
    p2.write_text("0.1,0.2\n0.3,0.4\n")
    mu = load_mu_csv(str(p2), 2)
    assert np.allclose(mu, [0.1 + 0.2j, 0.3 + 0.4j])
    with pytest.raises(ConfigError):
        load_mu_csv(str(p2), 5)  # row count mismatch
    # A face index is an integer and names one face once.
    bad = tmp_path / "bad.csv"
    for rows, line, what in (
        ("0,0.1,0\n2.7,0.2,0\n0,0.3,0\n", 2, "2.7 is not an integer"),
        ("0,0.1,0\n2,0.2,0\n0,0.3,0\n", 3, "0 is repeated"),
        ("0,0.1,0\n7,0.2,0\n", 2, "7 is out of range"),
    ):
        bad.write_text(rows)
        with pytest.raises(ConfigError, match=f"line {line}: face index {what}") as ei:
            load_mu_csv(str(bad), 5)
        assert ei.value.code == "CONFIG_BAD_BELTRAMI"


@pytest.mark.parametrize("value", [np.nan, 1.5, 0.9995])
def test_mu_out_of_range_names_its_parent_face(value):
    # The error names the face of the parent mesh and the value as given,
    # not a submesh face and the composed coefficient. The entry check uses
    # the flatten's own limit, 1 - EPS_MU, so 0.9995 stops there too.
    mesh = grid_mesh(4, 4)
    mu = np.zeros(mesh.n_faces, dtype=np.complex128)
    mu[6] = value
    with pytest.raises(MuOutOfRange, match=f"prescribed mu=\\({value}\\+0j\\) on face 6") as ei:
        compute_parameterization(mesh, _halves(mesh), mu)
    assert ei.value.stage is None
    assert f"|mu| < {1 - EPS_MU}" in ei.value.hint


def test_mu_just_inside_the_flatten_limit_passes_the_entry_check():
    mesh = grid_mesh(4, 4)
    mu = np.zeros(mesh.n_faces, dtype=np.complex128)
    mu[6] = 0.998
    result = compute_parameterization(mesh, _halves(mesh), mu)
    assert np.all(np.isfinite(result.param.uv))


@pytest.mark.parametrize("extra", [-1, 1])
def test_mu_of_the_wrong_length_is_a_parse_error(extra):
    # One value too few used to give a raw IndexError; one too many ran the
    # whole map and then failed on a numpy broadcast in the report.
    mesh = grid_mesh(4, 4)
    mu = np.zeros(mesh.n_faces + extra, dtype=np.complex128)
    with pytest.raises(ParseError, match=f"expected \\({mesh.n_faces},\\)") as ei:
        compute_parameterization(mesh, _halves(mesh), mu)
    assert ei.value.hint


def test_snapshot_empty_is_valid_svg(tmp_path):
    path = tmp_path / "empty.svg"
    emit_snapshot(str(path), [])
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")
    assert len(root) == 0


def test_snapshot_deterministic(tmp_path):
    loops = [
        (0, np.exp(1j * np.linspace(0, 2 * np.pi, 40, endpoint=False))),
        (1, 0.3 * np.exp(1j * np.linspace(0, 2 * np.pi, 20, endpoint=False))),
    ]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_snapshot(str(a), loops)
    emit_snapshot(str(b), loops)
    assert a.read_bytes() == b.read_bytes()


def _halves(mesh):
    cent = mesh.vertices[mesh.faces].mean(axis=1)
    return PartitionLabeling(face_label=(cent[:, 0] > 0.5).astype(np.int64))


def test_weld_arc_against_the_face_direction_is_wrong_topology():
    mesh = grid_mesh(4, 4)
    labels = _halves(mesh)
    (spec,) = build_weld_specs(mesh, extract_submeshes(mesh, labels)).welds
    spec.arcs = [spec.arcs[0][::-1]]
    with pytest.raises(WrongTopology, match="direction") as info:
        _run_weld(spec, tracker=None)
    assert info.value.stage == "weld"
    assert info.value.submesh == "[0] and [1]"


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize(
    "make, parts",
    [(lambda: annulus_mesh(20, 120), 4), (lambda: two_hole_grid(40), 8)],
    ids=["annulus_mesh(20,120)", "two_hole_grid(40)"],
)
def test_the_planner_cuts_no_union_and_the_chain_walks_no_boundary(monkeypatch, make, parts, threads):
    # The planner tracks each welded component by its boundary loops: it
    # cuts no twin table for a union and Euler-counts none. The weld chain
    # reads the loops from the plan, so once the plan is made nothing walks
    # or chains a boundary (QC, off here, walks its own image mesh).
    calls = []

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in [
        (mesh_module, "_walk_loops"), (mesh_module, "chain_loops"),
        (partition, "chain_loops"), (partition, "region_twins"),
        (partition, "region_hole_count"),
    ]:
        count(owner, name)
    plan = pipeline.build_weld_specs
    welds = []

    def planned(*args):
        calls.append("plan")
        out = plan(*args)
        calls.append("planned")
        welds.extend(out.welds)
        return out

    monkeypatch.setattr(pipeline, "build_weld_specs", planned)
    mesh = make()
    labels = default_partition(mesh, parts)
    compute_parameterization(mesh, labels, _zero_mu(mesh), qc=False, threads=threads)
    start, end = calls.index("plan"), calls.index("planned")
    inside, after = calls[start + 1 : end], calls[end + 1 :]
    assert "chain_loops" in inside
    assert "region_twins" not in inside and "region_hole_count" not in inside
    assert after == []
    if mesh.n_holes == 1:
        assert any(w.arc_kind == "two-arc-multiply-connected" for w in welds)


def _annulus_two_arc_weld():
    """An annulus cut in two by the y axis, and its one weld: two arcs
    around the hole."""
    mesh = annulus_mesh()
    cent = mesh.vertices[mesh.faces].mean(axis=1)
    labels = PartitionLabeling(face_label=(cent[:, 0] > 0).astype(np.int64))
    (spec,) = build_weld_specs(mesh, extract_submeshes(mesh, labels)).welds
    assert spec.arc_kind == "two-arc-multiply-connected"
    return spec


def test_weld_second_arc_off_the_sides_is_misordered():
    spec = _annulus_two_arc_weld()
    spec.arcs[1] = spec.arcs[1][::-1]
    with pytest.raises(MisorderedArc, match="^second weld arc is inconsistent between the two sides$") as info:
        _run_weld(spec, tracker=None)
    assert info.value.stage == "weld"
    assert info.value.submesh == "[0] and [1]"


def test_weld_arcs_out_of_rim_order_are_misordered():
    # Swapped, the arcs still lie on both sides, but side A runs along the
    # outer boundary, not the hole rim, from the end of the first to the
    # start of the second.
    spec = _annulus_two_arc_weld()
    spec.arcs.reverse()
    with pytest.raises(MisorderedArc, match="^cannot order the two weld arcs around the hole rim$") as info:
        _run_weld(spec, tracker=None)
    assert info.value.stage == "weld"
    assert info.value.submesh == "[0] and [1]"


def test_weld_failure_names_its_weld(monkeypatch):
    def misordered(*args, **kwargs):
        raise MisorderedArc("arc images on the upper axis are not ordered")

    monkeypatch.setattr(pipeline, "partial_weld", misordered)
    mesh = grid_mesh(4, 4)
    with pytest.raises(MisorderedArc) as info:
        compute_parameterization(mesh, _halves(mesh), _zero_mu(mesh))
    assert info.value.stage == "weld"
    assert info.value.submesh == "[0] and [1]"


def test_flatten_failure_names_its_stage_and_submesh(monkeypatch):
    # A prescribed mu the flatten cannot take stops at the entry check, so
    # the composed coefficient's failure is injected; only submesh 1 has a
    # nonzero mu and composes one.
    def inadmissible(*args, **kwargs):
        raise MuOutOfRange("composed coefficient |nu|=0.999500 on face 2")

    monkeypatch.setattr(pipeline, "compose_beltrami", inadmissible)
    mesh = grid_mesh(4, 4)
    labels = _halves(mesh)
    mu = _zero_mu(mesh)
    mu[np.flatnonzero(labels.face_label == 1)[0]] = 0.5
    with pytest.raises(MuOutOfRange) as info:
        compute_parameterization(mesh, labels, mu)
    assert info.value.stage == "flatten"
    assert info.value.submesh == 1
    assert "stage=flatten | submesh=1" in info.value.describe()


@pytest.mark.parametrize("fail_at, stage", [(2, "flatten"), (4, "laplace")])
def test_solver_failures_name_their_stage_and_submesh(monkeypatch, fail_at, stage):
    # At one thread, with mu = 0 and QC off, the four factorizations run in
    # order: the flattens of submeshes 0 and 1, then their Dirichlet solves.
    # The grid is lifted to 3D, where the flatten is solved.
    splu = flatten.spla.splu
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == fail_at:
            raise RuntimeError("Factor is exactly singular")
        return splu(*args, **kwargs)

    monkeypatch.setattr(flatten.spla, "splu", failing)
    mesh = lifted(grid_mesh(4, 4))
    with pytest.raises(SingularSystem) as info:
        compute_parameterization(mesh, _halves(mesh), _zero_mu(mesh), qc=False)
    assert (info.value.stage, info.value.submesh) == (stage, 1)
    assert info.value.describe().startswith(
        f"SINGULAR_SYSTEM | stage={stage} | submesh=1 | sparse LU factorization failed"
    )


@pytest.mark.parametrize(
    "target, error, stage, submesh",
    [
        ("laplace_dirichlet", SingularSystem, "laplace", 0),
        ("area_distortion", DegenerateFace, "report", None),
    ],
)
def test_failures_after_the_welds_name_their_stage(monkeypatch, target, error, stage, submesh):
    def failing(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(pipeline, target, failing)
    mesh = grid_mesh(4, 4)
    with pytest.raises(error) as info:
        compute_parameterization(mesh, _halves(mesh), _zero_mu(mesh))
    assert (info.value.stage, info.value.submesh) == (stage, submesh)


@pytest.mark.parametrize(
    "target, call, where",
    [
        ("circularize_hole", 1, "hole"),
        ("circularize_outer", 1, "outer"),
        ("circularize_hole", 2, "refine pass 1, hole 1"),
        ("circularize_outer", 2, "refine pass 1, outer"),
    ],
    ids=[
        "circularize_hole-hole",
        "circularize_outer-outer",
        "circularize_hole-refine-hole",
        "circularize_outer-refine-outer",
    ],
)
def test_koebe_failures_name_their_hole_and_component(monkeypatch, target, call, where):
    # The map fails on its call-th call: the chain's rounding first, then
    # the refine passes' roundings.
    real = getattr(pipeline, target)
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == call:
            raise NumericalBreakdown("anchor left the unit disk")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, target, failing)
    mesh = annulus_mesh(6, 32)
    labels = default_partition(mesh, 2)
    if where == "hole":
        plan = build_weld_specs(mesh, extract_submeshes(mesh, labels))
        ((loop, comp),) = plan.hole_owner.items()
        where = f"hole {loop} of {sorted(comp)}"
    with pytest.raises(NumericalBreakdown, match="^anchor left the unit disk$") as info:
        compute_parameterization(mesh, labels, _zero_mu(mesh), koebe_passes=1)
    assert (info.value.stage, info.value.submesh) == ("koebe", where)
    assert f"stage=koebe | submesh={where} | anchor" in info.value.describe()


def test_area_distortion_names_the_first_zero_area_face():
    mesh = grid_mesh(2, 1)
    uv = mesh.vertices.copy()
    uv[mesh.faces[1]] = uv[mesh.faces[1][0]]  # face 1 and its neighbours collapse
    with pytest.raises(DegenerateFace, match="zero-area face 0 in area distortion"):
        area_distortion(mesh.vertices, mesh.faces, uv)


class _Factor:
    """An LU factor that records the threads that made and freed it."""

    def __init__(self, lu, freed):
        self._lu = lu
        self._freed = freed
        self._made = threading.get_ident()

    def solve(self, *args, **kwargs):
        return self._lu.solve(*args, **kwargs)

    def __del__(self):
        self._freed.append((self._made, threading.get_ident()))


class _FactorLinalg:
    """scipy.sparse.linalg as weldmap.flatten sees it, with splu handing
    back recording factors. live holds, per splu call, how many factors
    were alive when it came."""

    def __init__(self, real, made, freed):
        self._real = real
        self._made = made
        self._freed = freed
        self.live = []

    def __getattr__(self, name):
        return getattr(self._real, name)

    def splu(self, *args, **kwargs):
        self.live.append(len(self._made) - len(self._freed))
        self._made.append(threading.get_ident())
        return _Factor(self._real.splu(*args, **kwargs), self._freed)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_lu_factors_are_freed_on_the_thread_that_factored_them(monkeypatch, threads):
    # With scipy 1.17.1 a SuperLU object freed on another thread than the
    # one that factored it leaks its memory (45 MB over 10 rounds of a
    # 6,488-unknown LU). Every factor must die on its own pool thread.
    # Every factor, the Dirichlet ones included, is made by
    # flatten.factor_fixed; a Dirichlet lane holds its factors until the
    # chain has run.
    made, freed = [], []
    monkeypatch.setattr(flatten, "spla", _FactorLinalg(flatten.spla, made, freed))
    mesh = two_hole_grid(40)
    labels = default_partition(mesh, 4)
    compute_parameterization(mesh, labels, smooth_beltrami(mesh), threads=threads)
    gc.collect()
    # Flatten (LSQC; the planar DNCP chart is a closed form), Dirichlet and
    # QC factor on pool threads.
    assert len(made) >= 3 * labels.n_parts
    assert threading.get_ident() not in made
    assert len(freed) == len(made)
    assert all(maker == freer for maker, freer in freed)


def test_one_thread_drops_each_dirichlet_factor_before_the_next(monkeypatch):
    # At one thread the lane runs after the chain and solves each system as
    # soon as it is factored, so no factor may outlive its solve. With
    # mu = 0 on a planar mesh and QC off, every factor is a Dirichlet one.
    linalg = _FactorLinalg(flatten.spla, [], [])
    monkeypatch.setattr(flatten, "spla", linalg)
    mesh = two_hole_grid(40)
    labels = default_partition(mesh, 4)
    compute_parameterization(mesh, labels, _zero_mu(mesh), qc=False, threads=1)
    assert linalg.live == [0] * labels.n_parts


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_lu_factors_are_freed_on_their_thread_when_the_chain_fails(monkeypatch, threads):
    # MisorderedArc is not retried, so the first continuous weld ends the
    # chain. Beside it, each Dirichlet lane drops the factors it holds.
    made, freed = [], []
    monkeypatch.setattr(flatten, "spla", _FactorLinalg(flatten.spla, made, freed))
    mesh = two_hole_grid(40)
    labels = default_partition(mesh, 4)
    flattens = labels.n_parts  # LSQC; the planar DNCP chart is a closed form

    def failing(*args, **kwargs):
        # With a lane beside the chain, fail once it holds a factor.
        deadline = time.monotonic() + 20
        while threads > 1 and len(made) <= flattens and time.monotonic() < deadline:
            time.sleep(0.005)
        raise MisorderedArc("injected")

    monkeypatch.setattr(pipeline, "partial_weld", failing)
    with pytest.raises(MisorderedArc) as info:
        compute_parameterization(mesh, labels, smooth_beltrami(mesh), threads=threads)
    assert info.value.stage == "weld"
    del info
    gc.collect()
    assert len(made) > flattens if threads > 1 else len(made) == flattens
    assert threading.get_ident() not in made
    assert len(freed) == len(made)
    assert all(maker == freer for maker, freer in freed)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize(
    "module, bound, stage",
    [(flatten, "SOLVE_RTOL", "flatten"), (assemble, "LAPLACE_RTOL", "laplace")],
)
def test_lu_factors_of_failed_solves_are_freed_on_their_thread(
    monkeypatch, module, bound, stage, threads
):
    # A negative residual bound fails every flatten (or every Dirichlet)
    # solve after its factor is made. The error leaves the pool task with
    # its traceback, whose frames must not carry the factor to the thread
    # that drops the error. The grid is lifted to 3D, where the flatten is
    # solved.
    made, freed = [], []
    monkeypatch.setattr(flatten, "spla", _FactorLinalg(flatten.spla, made, freed))
    monkeypatch.setattr(module, bound, -1.0)
    mesh = lifted(two_hole_grid(40))
    labels = default_partition(mesh, 4)
    with pytest.raises(SingularSystem) as info:
        compute_parameterization(mesh, labels, _zero_mu(mesh), qc=False, threads=threads)
    assert info.value.stage == stage
    del info
    gc.collect()
    assert made
    assert threading.get_ident() not in made
    assert len(freed) == len(made)
    assert all(maker == freer for maker, freer in freed)


def _factored_sizes(monkeypatch):
    """The unknown count of every splu call of weldmap.flatten, as a list
    that fills while the test runs."""
    sizes = []
    splu = flatten.spla.splu

    def counting(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(flatten.spla, "splu", counting)
    return sizes


def _interior_counts(subs):
    counts = (s.mesh.n_vertices - len(s.mesh.boundary_vertices()) for s in subs)
    return [k for k in counts if k]


@pytest.mark.parametrize("threads", [1, 2])
def test_planar_conformal_maps_factor_only_their_dirichlet_systems(monkeypatch, threads):
    # A planar submesh's DNCP chart is the similarity its two pins fix, so a
    # mu = 0 map of a 2D mesh factors nothing in the flatten: one Dirichlet
    # system per submesh with interior vertices, and no other.
    sizes = _factored_sizes(monkeypatch)
    mesh = two_hole_grid(40)
    labels = default_partition(mesh, 4)
    compute_parameterization(mesh, labels, _zero_mu(mesh), qc=False, threads=threads)
    assert sorted(sizes) == sorted(_interior_counts(extract_submeshes(mesh, labels)))


def test_3d_conformal_maps_factor_their_flatten(monkeypatch):
    # A 3D submesh's DNCP chart is solved: a 2n-unknown system with two
    # pinned vertices, beside its Dirichlet system.
    sizes = _factored_sizes(monkeypatch)
    mesh = curved_annulus()
    labels = default_partition(mesh, 2)
    compute_parameterization(mesh, labels, _zero_mu(mesh), qc=False, threads=2)
    subs = extract_submeshes(mesh, labels)
    flattens = [2 * s.mesh.n_vertices - 4 for s in subs]
    assert sorted(sizes) == sorted(flattens + _interior_counts(subs))


def test_dirichlet_lanes_under_a_short_switch_interval_match_one_thread():
    # Five workers, the chain and four one-submesh lanes, switching often.
    # A lost embedding, or a solve before the chain has run, would fail the
    # map or change it.
    mesh = two_hole_grid(40)
    labels = default_partition(mesh, 4)
    mu = _zero_mu(mesh)
    r1 = compute_parameterization(mesh, labels, mu, qc=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            r5 = compute_parameterization(mesh, labels, mu, qc=False, threads=5)
            assert np.array_equal(r1.param.uv, r5.param.uv)
    finally:
        sys.setswitchinterval(interval)


def test_dirichlet_factors_start_while_the_welds_run(monkeypatch):
    # With mu = 0 and QC off, every factorization after the flattens is a
    # Dirichlet one. At two threads one must come while the chain still
    # runs, before the outer circularization ends it. The grid is lifted to
    # 3D, where the flatten factors too.
    mesh = lifted(grid_mesh(4, 4))
    labels = _halves(mesh)
    splu = flatten.spla.splu
    calls = []
    dirichlet = threading.Event()

    def counting(*args, **kwargs):
        calls.append(1)
        if len(calls) > labels.n_parts:
            dirichlet.set()
        return splu(*args, **kwargs)

    outer = pipeline.circularize_outer
    came = []

    def waiting(*args, **kwargs):
        came.append(dirichlet.wait(timeout=20))
        return outer(*args, **kwargs)

    monkeypatch.setattr(flatten.spla, "splu", counting)
    monkeypatch.setattr(pipeline, "circularize_outer", waiting)
    compute_parameterization(mesh, labels, _zero_mu(mesh), qc=False, threads=2)
    assert came == [True]


def test_dirichlet_failures_beside_the_chain_name_their_submesh(monkeypatch):
    # At two threads one lane factors both halves' Dirichlet systems beside
    # the chain, after the two flattens (mu = 0, QC off). The grid is lifted
    # to 3D, where the flatten factors too.
    mesh = lifted(grid_mesh(4, 4))
    labels = _halves(mesh)
    splu = flatten.spla.splu
    calls = []
    dirichlet_failed = threading.Event()

    def failing_from(first):
        def factor(*args, **kwargs):
            calls.append(1)
            if len(calls) >= first:
                dirichlet_failed.set()
                raise RuntimeError("Factor is exactly singular")
            return splu(*args, **kwargs)
        return factor

    monkeypatch.setattr(flatten.spla, "splu", failing_from(4))
    with pytest.raises(SingularSystem) as info:
        compute_parameterization(mesh, labels, _zero_mu(mesh), qc=False, threads=2)
    assert info.value.describe().startswith(
        "SINGULAR_SYSTEM | stage=laplace | submesh=1 | sparse LU factorization failed"
    )

    # When a weld fails after a Dirichlet factorization has, the weld's
    # error is raised.
    def failing_weld(*args, **kwargs):
        dirichlet_failed.wait(timeout=20)
        raise MisorderedArc("injected")

    calls.clear()
    dirichlet_failed.clear()
    monkeypatch.setattr(flatten.spla, "splu", failing_from(3))
    monkeypatch.setattr(pipeline, "partial_weld", failing_weld)
    with pytest.raises(MisorderedArc) as info:
        compute_parameterization(mesh, labels, _zero_mu(mesh), qc=False, threads=2)
    assert dirichlet_failed.is_set()
    assert info.value.stage == "weld"


def test_the_pool_starts_no_thread_without_work(monkeypatch):
    # Two submeshes give work to at most three threads: the chain and two
    # Dirichlet lanes (the flatten uses two of them).
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    mesh = annulus_mesh(6, 32)
    labels = default_partition(mesh, 2)
    assert labels.n_parts == 2
    compute_parameterization(mesh, labels, _zero_mu(mesh), threads=8)
    assert 0 < len(started) <= 3, started


def _subdivide_runs_reference(pos, runs, q):
    """_subdivide_runs as an edge-by-edge loop."""
    n = len(pos)
    parts = []
    sel = np.empty(n, dtype=np.int64)
    cursor = 0
    prev_end = 0
    for start, end in runs:
        if prev_end < start:
            parts.append(pos[prev_end:start])
            sel[prev_end:start] = cursor + np.arange(start - prev_end)
            cursor += start - prev_end
        for j in range(start, end):
            t = np.arange(q) / q
            parts.append(pos[j] + (pos[j + 1] - pos[j]) * t)
            sel[j] = cursor
            cursor += q
        sel[end] = cursor
        prev_end = end
    sel[prev_end:] = cursor + np.arange(n - prev_end)
    parts.append(pos[prev_end:])
    return np.concatenate(parts), sel


@pytest.mark.parametrize("q", _DENSIFY)
def test_subdivided_runs_match_the_edge_loop_bit_for_bit(q):
    rng = np.random.default_rng(q)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        xy = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-3, 4, size=(n, 2))
        # Signed zeros: pos[j] + (pos[j + 1] - pos[j]) * 0 is not a copy of them.
        xy[rng.random((n, 2)) < 0.3] = -0.0
        pos = xy.view(np.complex128)[:, 0]
        cuts = np.sort(rng.choice(n, size=4, replace=False))
        runs = [(int(cuts[0]), int(cuts[1]))]
        if rng.random() < 0.5:
            runs.append((int(cuts[2]), int(cuts[3])))
        got, sel = _subdivide_runs(pos, runs, q)
        want, want_sel = _subdivide_runs_reference(pos, runs, q)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(sel, want_sel)


def test_auto_partition_with_more_holes_than_parts_is_logged(tmp_path, caplog):
    mesh = two_hole_grid(40)
    assert default_partition(mesh, 1).n_parts == 2  # one part per hole
    obj = tmp_path / "two_hole.obj"
    _write_obj(obj, mesh)
    cfg = PipelineConfig(
        input_path=str(obj), partition="auto:1", qc_correction=False,
        deterministic=True, out_dir=str(tmp_path / "out"),
    )
    with caplog.at_level(logging.INFO, logger="weldmap"):
        assert run_pipeline(cfg) == 0
    assert "partition auto:1 gave 2 parts (mesh has 2 holes)" in caplog.messages


def test_each_weld_logs_its_attempts_and_seam_gap(caplog):
    # The acceptance map retries one of its three welds at a finer
    # subdivision. Logging it must not change the map.
    mesh = two_hole_grid(100)
    labels = default_partition(mesh, 4)
    mu = smooth_beltrami(mesh)
    with caplog.at_level(logging.INFO, logger="weldmap"):
        logged = compute_parameterization(mesh, labels, mu)
    welds = [m for m in caplog.messages if m.startswith("weld ")]
    print("\n".join(welds))
    assert len(welds) == 3
    assert all("seam gap" in m for m in welds)
    retried = [m for m in welds if "failed" in m]
    assert len(retried) == 1
    assert retried[0].startswith("weld [0] and [1, 2]: densify q=2,")
    assert "; q=1 failed: NUMERICAL_BREAKDOWN weld pair" in retried[0]
    quiet = compute_parameterization(mesh, labels, mu)
    assert np.array_equal(logged.param.uv, quiet.param.uv)
    assert _untimed(logged.report) == _untimed(quiet.report)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="a weld of the curved annulus reverses its chains",
)
def test_weld_keeps_the_orientation_of_its_chains(monkeypatch):
    # Known defect: the first weld of this map takes a counter-clockwise
    # chain A and a clockwise chain B and returns A clockwise and B
    # counter-clockwise, so the next weld rejects chain A.
    welds = []

    def recording(name):
        real = getattr(pipeline, name)

        def weld(a_points, b_points, *args, **kwargs):
            out = real(a_points, b_points, *args, **kwargs)
            out_a, out_b = out[:2]
            welds.append([_signed_area(c) for c in (a_points, b_points, out_a, out_b)])
            return out

        monkeypatch.setattr(pipeline, name, weld)

    recording("partial_weld")
    recording("multiconnected_weld")
    mesh = curved_annulus()
    try:
        compute_parameterization(mesh, default_partition(mesh, 3), smooth_beltrami(mesh, 42))
    except MisorderedArc:
        pass
    # Setup checks fail the test outright; only the orientation assert below
    # is the expected failure.
    if not welds:
        pytest.fail("no weld was recorded")
    in_a, in_b, out_a, out_b = welds[0]
    print(f"signed areas in: A {in_a:+.3g}, B {in_b:+.3g}; out: A {out_a:+.3g}, B {out_b:+.3g}")
    if not in_a > 0 > in_b:
        pytest.fail(f"the first weld got chains of signed areas {in_a:+.3g}, {in_b:+.3g}")
    assert out_a > 0 > out_b


def _signed_area(pts):
    x, y = np.real(pts), np.imag(pts)
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
