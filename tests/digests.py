"""Print a digest of every benchmark map's output, to check that a change
keeps the outputs bit-identical.

    python tests/digests.py > digests.txt

Run it on two trees and compare the files. One line per map and thread count
(1 and 2): the map's name and threads, then, in deterministic mode, the
sha256 of its uv and of report.as_dict() or, for a failed map, the error's
code and describe(). The maps are the beltrami workload, the conformal_grid
mesh as a library call, and the 60 corpus maps, all taken read-only from
perfbench/workloads.py; then the conformal_grid mesh again at 8, 12, 16 and
24 parts; then the many-hole maps of tests/test_ledger.py; then the beltrami
map and one many-hole map at koebe_passes 1 and 2, whose lines also hash the
refinement history; then the tiny annulus map that perfbench/workloads.py
runs to warm up and perfbench/test_perfbench.py runs as its library map, at
three mu fields; then one 3D many-hole map at koebe_passes 1 and 2; then the
maps of tests/test_ledger.py at other resolutions (the 6-hole grid at n = 40
and 60, and annulus_mesh(10,60) with mu = 0). Each group comes after the
ones before it, so that older digest files still compare line by line. The
file name keeps pytest from collecting it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE, os.path.join(ROOT, "perfbench")]

import fixtures  # noqa: E402
import workloads  # noqa: E402
from weldmap.errors import WeldmapError  # noqa: E402
from weldmap.partition import default_partition  # noqa: E402
from weldmap.pipeline import compute_parameterization  # noqa: E402

THREADS = (1, 2)
GRID_PARTS = (8, 12, 16, 24)  # the conformal_grid mesh at many parts
KOEBE_PASSES = (1, 2)


def many_hole_cases():
    """The many-hole maps of tests/test_ledger.py, in its row order."""
    out = []
    for k in (3, 6, 9):
        for make in (fixtures.many_hole_grid, fixtures.many_hole_sphere):
            mesh = make(30, k)
            fields = (("0", np.zeros(mesh.n_faces, complex)),
                      ("smooth", fixtures.smooth_beltrami(mesh, 42)))
            for parts in (1, 4, 8):
                for tag, mu in fields:
                    name = f"{make.__name__}(30,{k})/parts={parts}/mu={tag}"
                    out.append(workloads.Case(name, mesh, parts, mu))
    return out


def cases(workdir):
    """The maps to digest at koebe_passes 0, all through the library."""
    grid = workloads.conformal_grid(workdir)
    out = workloads.beltrami(workdir) + grid + workloads.corpus(workdir)
    return out + [
        dataclasses.replace(grid[0], name=f"grid_mesh(300)/parts={parts}/mu=0", parts=parts)
        for parts in GRID_PARTS
    ] + many_hole_cases()


def refined_cases(workdir):
    """The maps to digest again at each of KOEBE_PASSES."""
    mesh = fixtures.many_hole_grid(30, 9)
    zero = np.zeros(mesh.n_faces, complex)
    return workloads.beltrami(workdir) + [
        workloads.Case("many_hole_grid(30,9)/parts=4/mu=0", mesh, 4, zero)
    ]


def refined_3d_cases():
    """A many-hole sphere map, to digest the refinement on a 3D mesh too."""
    mesh = fixtures.many_hole_sphere(30, 9)
    zero = np.zeros(mesh.n_faces, complex)
    return [workloads.Case("many_hole_sphere(30,9)/parts=4/mu=0", mesh, 4, zero)]


def warm_up_cases():
    """annulus_mesh(6,32) at 2 parts with the warm-up library map's mu
    (smooth_beltrami with seed 42), the warm-up CLI map's (0) and the
    perfbench tests' library map's (seed 1)."""
    mesh = fixtures.annulus_mesh(6, 32)
    fields = (
        ("smooth42", fixtures.smooth_beltrami(mesh, workloads.MU_SEED)),
        ("0", np.zeros(mesh.n_faces, complex)),
        ("smooth1", fixtures.smooth_beltrami(mesh, 1)),
    )
    return [workloads.Case(f"annulus_mesh(6,32)/parts=2/mu={tag}", mesh, 2, mu) for tag, mu in fields]


def resolution_cases():
    """The maps of tests/test_ledger.py that mesh a domain of the other
    groups at another resolution."""
    out = []
    for make, args, parts_list, tags in (
        (fixtures.many_hole_grid, (40, 6), (1, 4, 8), ("0", "smooth")),
        (fixtures.many_hole_grid, (60, 6), (1, 4, 8), ("0", "smooth")),
        (fixtures.annulus_mesh, (10, 60), (1, 2, 3, 4, 6, 8), ("0",)),
    ):
        mesh = make(*args)
        fields = {"0": np.zeros(mesh.n_faces, complex),
                  "smooth": fixtures.smooth_beltrami(mesh, 42)}
        for parts in parts_list:
            for tag in tags:
                name = f"{make.__name__}({args[0]},{args[1]})/parts={parts}/mu={tag}"
                out.append(workloads.Case(name, mesh, parts, fields[tag]))
    return out


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def digest(case, threads, koebe_passes=0):
    """The line of one map at the given thread count and Koebe passes; a
    line with passes also hashes the refinement history as floats."""
    head = f"{case.name} threads={threads}"
    if koebe_passes:
        head += f" koebe_passes={koebe_passes}"
    try:
        labels = default_partition(case.mesh, case.parts)
        res = compute_parameterization(
            case.mesh, labels, case.mu, koebe_passes=koebe_passes, qc=case.qc,
            threads=threads, deterministic=True,
        )
    except WeldmapError as err:
        return f"{head} error {err.code} {err.describe()}"
    report = json.dumps(res.report.as_dict(), sort_keys=True)
    line = f"{head} uv {_sha(res.param.uv.tobytes())} report {_sha(report.encode())}"
    if koebe_passes:
        history = [[float(c) for c in row] for row in res.refine_history]
        line += f" refine {_sha(np.array(history, dtype=float).tobytes())}"
    return line


def main():
    with tempfile.TemporaryDirectory() as workdir:
        for case in cases(workdir):
            for threads in THREADS:
                print(digest(case, threads), flush=True)
        for case in refined_cases(workdir):
            for koebe_passes in KOEBE_PASSES:
                for threads in THREADS:
                    print(digest(case, threads, koebe_passes), flush=True)
        for case in warm_up_cases():
            for threads in THREADS:
                print(digest(case, threads), flush=True)
        for case in refined_3d_cases():
            for koebe_passes in KOEBE_PASSES:
                for threads in THREADS:
                    print(digest(case, threads, koebe_passes), flush=True)
        for case in resolution_cases():
            for threads in THREADS:
                print(digest(case, threads), flush=True)


if __name__ == "__main__":
    main()
