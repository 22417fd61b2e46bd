"""Tests of the benchmark's own machinery, on tiny inputs.

    python3 -m pytest perfbench
"""

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import run

run._use_checkout()

import fixtures  # noqa: E402
import layers  # noqa: E402
import weldmap.flatten  # noqa: E402
import weldmap.pipeline  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span, self_times, union_length  # noqa: E402


def test_union_counts_overlap_once():
    assert union_length([(1, 5), (2, 6), (8, 9)]) == 6
    assert union_length([]) == 0


def test_self_time_of_parent_with_overlapping_pool_children():
    # Two pool threads work at once under one parent: the parent is charged
    # for the time neither covered, not for 10 - 4 - 4.
    spans = [
        Span("pipeline.run", 0.0, 10.0, None),
        Span("flatten.a", 1.0, 5.0, 0),
        Span("flatten.b", 2.0, 6.0, 0),
        Span("koebe.c", 8.0, 9.0, 0),
        Span("flatten.d", 2.5, 3.0, 2),
    ]
    assert self_times(spans) == [4.0, 4.0, 3.5, 1.0, 0.5]


def test_pool_thread_spans_hang_under_the_submitting_span():
    rec = Recorder()
    barrier = threading.Barrier(2)

    def work(_):
        barrier.wait(timeout=10)  # both workers are inside their spans at once

    inner = rec.wrap("flatten.work", work)

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(inner, range(2)))

    rec.wrap("pipeline.outer", outer)()
    root, a, b = rec.spans
    assert a.parent == 0 and b.parent == 0
    assert max(a.start, b.start) < min(a.end, b.end)  # they overlapped
    own = self_times(rec.spans)
    assert 0.0 <= own[0] <= root.duration - max(a.duration, b.duration)


def _targets():
    return [(owner, attr) for _, owner, attr, _, _ in layers.TARGETS] + [
        (weldmap.flatten, "spla")
    ]


def test_wrappers_exist_only_inside_the_traced_block():
    before = [getattr(o, a) for o, a in _targets()]
    rec = Recorder()
    with pytest.raises(RuntimeError):
        with rec.installed(layers.patches(rec)):
            inside = [getattr(o, a) for o, a in _targets()]
            assert all(x is not y for x, y in zip(inside, before))
            raise RuntimeError("leave the block early")
    assert all(getattr(o, a) is x for (o, a), x in zip(_targets(), before))


def test_smooth_mu_is_the_fixture_field_at_the_fixed_seed():
    (case,) = workloads.beltrami(None)
    assert np.array_equal(case.mu, fixtures.smooth_beltrami(case.mesh, workloads.MU_SEED))
    assert workloads.MU_SEED == 42  # the field of the corpus sweep in ROADMAP.md


def _tiny_cases(workdir):
    mesh = fixtures.annulus_mesh(6, 32)
    path = os.path.join(workdir, "annulus.obj")
    workloads.write_obj(path, mesh)
    zero = np.zeros(mesh.n_faces, dtype=np.complex128)
    return [
        workloads.Case("annulus/lib", mesh, 2, fixtures.smooth_beltrami(mesh, 1)),
        workloads.Case("annulus/cli", mesh, 2, zero, qc=False, obj_path=path),
    ]


def test_ledger_counts_a_crash_as_one_unexpected_failure(tmp_path, monkeypatch):
    cases = _tiny_cases(str(tmp_path))
    real = weldmap.pipeline.compute_parameterization

    def crash_on_smooth(mesh, labels, mu, **kw):
        if np.any(mu):
            raise ValueError("not a WeldmapError")
        return real(mesh, labels, mu, **kw)

    monkeypatch.setattr(weldmap.pipeline, "compute_parameterization", crash_on_smooth)
    session = workloads.Session(workloads.WORKLOADS["corpus"], cases, str(tmp_path))
    outs = session.run_pass()
    assert workloads.ledger(cases, outs) == {"annulus/lib": "UNEXPECTED", "annulus/cli": "ok"}
    counts = workloads.failure_counts(outs)
    assert counts["failed.UNEXPECTED"] == 1 and sum(counts.values()) == 1
    assert (session.attempted, session.unexpected, session.problems) == (2, 1, [])
    assert workloads.ok_masks(cases, outs) == {
        "ledger.ok_mask.zero_mu": 1, "ledger.ok_mask.smooth_mu": 0,
    }


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_exactly_the_declared_metrics(tmp_path, monkeypatch, trace):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", workloads.Workload(_tiny_cases))
    metrics, session, ledger, q = workloads.measure("tiny", 0.0, trace, str(tmp_path))
    assert session.problems == []
    assert set(ledger.values()) == {"ok"}
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(metrics) == declared
    if trace:
        assert metrics["cli.run_pipeline.calls"] == 1
        assert metrics["pipeline.compute_parameterization.calls"] == 2
        assert metrics["flatten.qc.lsqc_flatten.calls"] >= 1  # QC on the lib case only
        assert metrics["welding.welds"] == 2  # one weld per two-part map
        assert metrics["flatten.lu_fill_nnz"] > metrics["flatten.unknowns"] > 0
        assert 0.9 < metrics["trace.coverage"] <= 1.0
        assert 0.0 < metrics["pipeline.parallel_util.flatten"] <= 1.0
    else:
        assert metrics["ok_fraction"] == 1.0
        assert metrics["speedup_2t"] > 0
