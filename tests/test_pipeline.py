"""End-to-end pipeline and CLI tests."""

import json
import logging
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import weldmap.pipeline as pipeline
from weldmap.cli import (
    PipelineConfig,
    emit_snapshot,
    load_mu_csv,
    main,
    run_pipeline,
)
from weldmap.errors import ConfigError, MisorderedArc, WrongTopology
from weldmap.partition import (
    PartitionLabeling,
    WeldSpec,
    build_weld_specs,
    default_partition,
    extract_submeshes,
)
from weldmap.pipeline import _run_weld, compute_parameterization

from fixtures import annulus_mesh, curved_annulus, grid_mesh, smooth_beltrami, two_hole_grid


def _zero_mu(mesh):
    return np.zeros(mesh.n_faces, dtype=np.complex128)


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
    assert np.abs(res.param.complex_view).max() <= 1.0 + 1e-9


def test_two_hole_prescribed_mu():
    mesh = two_hole_grid(100)
    labels = default_partition(mesh, 4)
    assert labels.n_parts == 4
    mu = smooth_beltrami(mesh)
    res = compute_parameterization(mesh, labels, mu, threads=4)
    assert all(e <= 0.05 for e in res.report.e_submesh)
    assert res.report.e_global <= 0.05


def test_serial_parallel_bitwise_identical():
    mesh = two_hole_grid(60)
    labels = default_partition(mesh, 4)
    mu = smooth_beltrami(mesh, seed=5)
    r1 = compute_parameterization(
        mesh, labels, mu, threads=1, deterministic=True
    )
    r4 = compute_parameterization(
        mesh, labels, mu, threads=4, deterministic=True
    )
    assert np.array_equal(r1.param.uv, r4.param.uv)
    assert r1.report.as_dict() == r4.report.as_dict()


def test_outer_loop_lands_on_the_unit_circle():
    # Only vertices off the outer loop ride through circularize_outer, so
    # no copy of the loop sits on the circle to trigger its shrink.
    mesh = two_hole_grid(40)
    labels = default_partition(mesh, 4)
    res = compute_parameterization(mesh, labels, _zero_mu(mesh), deterministic=True)
    z = res.param.complex_view[mesh.boundary_loops[0]]
    assert np.abs(np.abs(z) - 1.0).max() <= 4.5e-16


def test_refine_passes_recorded():
    mesh = annulus_mesh(12, 64)
    labels = default_partition(mesh, 2)
    res = compute_parameterization(
        mesh, labels, _zero_mu(mesh), koebe_passes=2, threads=1
    )
    assert len(res.refine_history) == 3  # initial verification + 2 passes


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


def test_mu_csv_formats(tmp_path):
    p3 = tmp_path / "mu3.csv"
    p3.write_text("face_index,re,im\n1,0.25,-0.5\n")
    mu = load_mu_csv(str(p3), 3)
    assert mu[0] == 0 and mu[1] == 0.25 - 0.5j and mu[2] == 0
    p2 = tmp_path / "mu2.csv"
    p2.write_text("0.1,0.2\n0.3,0.4\n")
    mu = load_mu_csv(str(p2), 2)
    assert np.allclose(mu, [0.1 + 0.2j, 0.3 + 0.4j])
    with pytest.raises(ConfigError):
        load_mu_csv(str(p2), 5)  # row count mismatch


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


def test_weld_side_with_branching_boundary_is_wrong_topology():
    # 2x2 grid; each side is two diagonal cells that touch only at the centre
    # vertex, so both side boundaries branch there.
    mesh = grid_mesh(2, 2)
    labels = PartitionLabeling(face_label=np.array([0, 0, 1, 1, 1, 1, 0, 0]))
    # 1 -> 4 -> 3 is the way the label-0 faces run the cut.
    spec = WeldSpec(
        left=frozenset({0}), right=frozenset({1}),
        arcs=[np.array([1, 4, 3])], arc_kind="continuous",
    )
    with pytest.raises(WrongTopology, match="branch|outgoing"):
        _run_weld(spec, mesh, labels, tracker=None)


def _halves(mesh):
    cent = mesh.vertices[mesh.faces].mean(axis=1)
    return PartitionLabeling(face_label=(cent[:, 0] > 0.5).astype(np.int64))


def test_weld_arc_against_the_face_direction_is_wrong_topology():
    mesh = grid_mesh(4, 4)
    labels = _halves(mesh)
    (spec,) = build_weld_specs(mesh, labels, extract_submeshes(mesh, labels)).welds
    spec.arcs = [spec.arcs[0][::-1]]
    with pytest.raises(WrongTopology, match="direction") as info:
        _run_weld(spec, mesh, labels, tracker=None)
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
        logged = compute_parameterization(mesh, labels, mu, deterministic=True)
    welds = [m for m in caplog.messages if m.startswith("weld ")]
    print("\n".join(welds))
    assert len(welds) == 3
    assert all("seam gap" in m for m in welds)
    retried = [m for m in welds if "failed" in m]
    assert len(retried) == 1
    assert retried[0].startswith("weld [0] and [1, 2]: densify q=2,")
    assert "; q=1 failed: NUMERICAL_BREAKDOWN weld pair" in retried[0]
    quiet = compute_parameterization(mesh, labels, mu, deterministic=True)
    assert np.array_equal(logged.param.uv, quiet.param.uv)
    assert logged.report.as_dict() == quiet.report.as_dict()


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
            if name == "partial_weld":
                out_a, out_b = out_a.z[: len(a_points)], out_b.z[: len(b_points)]
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
