"""Print a digest of every benchmark map's output, to check that a change
keeps the outputs bit-identical.

    python tests/digests.py > digests.txt

Run it on two trees and compare the files. One line per map and thread count
(1 and 2): the map's name and threads, then, in deterministic mode, the
sha256 of its uv and of report.as_dict() or, for a failed map, the error's
code and describe(). The maps are the beltrami workload, the conformal_grid
mesh as a library call, and the 60 corpus maps, all taken read-only from
perfbench/workloads.py; then the conformal_grid mesh again at 8, 12, 16 and
24 parts, after the others so that older digest files still compare line by
line. The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE, os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from weldmap.errors import WeldmapError  # noqa: E402
from weldmap.partition import default_partition  # noqa: E402
from weldmap.pipeline import compute_parameterization  # noqa: E402

THREADS = (1, 2)
GRID_PARTS = (8, 12, 16, 24)  # the conformal_grid mesh at many parts


def cases(workdir):
    """The maps to digest, all through the library."""
    grid = workloads.conformal_grid(workdir)
    out = workloads.beltrami(workdir) + grid + workloads.corpus(workdir)
    return out + [
        dataclasses.replace(grid[0], name=f"grid_mesh(300)/parts={parts}/mu=0", parts=parts)
        for parts in GRID_PARTS
    ]


def digest(case, threads):
    """The line of one map at the given thread count."""
    head = f"{case.name} threads={threads}"
    try:
        labels = default_partition(case.mesh, case.parts)
        res = compute_parameterization(
            case.mesh, labels, case.mu, qc=case.qc, threads=threads, deterministic=True
        )
    except WeldmapError as err:
        return f"{head} error {err.code} {err.describe()}"
    uv = hashlib.sha256(res.param.uv.tobytes()).hexdigest()
    report = json.dumps(res.report.as_dict(), sort_keys=True)
    return f"{head} uv {uv} report {hashlib.sha256(report.encode()).hexdigest()}"


def main():
    with tempfile.TemporaryDirectory() as workdir:
        for case in cases(workdir):
            for threads in THREADS:
                print(digest(case, threads), flush=True)


if __name__ == "__main__":
    main()
