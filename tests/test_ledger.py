"""Outcome ledger: which small maps succeed and how the others fail.

Each case is default_partition plus compute_parameterization at one thread,
with mu = 0 or smooth_beltrami(mesh, 42). A change that turns a failure into
a success (or the reverse) updates these tables on purpose.
"""

import numpy as np
import pytest

from weldmap.errors import WeldmapError
from weldmap.partition import default_partition
from weldmap.pipeline import compute_parameterization

from fixtures import (
    annulus_mesh,
    curved_annulus,
    disk_mesh,
    hemisphere_cap,
    many_hole_grid,
    many_hole_sphere,
    smooth_beltrami,
)

MESHES = {
    "disk_mesh(16,64)": lambda: disk_mesh(16, 64),
    "hemisphere_cap()": hemisphere_cap,
    "curved_annulus()": curved_annulus,
    **{f"many_hole_grid(30,{k})": (lambda k=k: many_hole_grid(30, k)) for k in (3, 6, 9)},
    **{f"many_hole_sphere(30,{k})": (lambda k=k: many_hole_sphere(30, k)) for k in (3, 6, 9)},
    **{f"many_hole_grid({n},6)": (lambda n=n: many_hole_grid(n, 6)) for n in (40, 60)},
    "annulus_mesh(10,60)": lambda: annulus_mesh(10, 60),
}

MIS = "MISORDERED_ARC"
NUM = "NUMERICAL_BREAKDOWN"
ZXI = "ZERO_XI"
PARTS = (1, 2, 3, 4, 6, 8)
CAP_SMOOTH = {3: MIS, 6: ZXI, 8: ZXI}
LEDGER = [
    *[("disk_mesh(16,64)", p, mu, "ok" if p == 4 else MIS)
      for p in (4, 6, 8) for mu in ("0", "smooth")],
    *[("hemisphere_cap()", p, "0", "ok" if p in (1, 3) else MIS) for p in PARTS],
    *[("hemisphere_cap()", p, "smooth", CAP_SMOOTH.get(p, NUM)) for p in PARTS],
    ("curved_annulus()", 2, "smooth", "PATH_INSIDE_POLYGON"),
    *[("curved_annulus()", p, "smooth", MIS) for p in (3, 4)],
]


# Many holes, 2D and lifted onto a sphere: a success pins its flipped-face
# count, a failure its code and stage.
MANY_HOLES = [
    ("many_hole_grid(30,3)", 1, "0", 0),
    ("many_hole_grid(30,3)", 1, "smooth", 0),
    ("many_hole_grid(30,3)", 4, "0", 0),
    ("many_hole_grid(30,3)", 4, "smooth", 0),
    ("many_hole_grid(30,3)", 8, "0", 0),
    ("many_hole_grid(30,3)", 8, "smooth", 0),
    ("many_hole_sphere(30,3)", 1, "0", 0),
    ("many_hole_sphere(30,3)", 1, "smooth", (MIS, "weld")),
    ("many_hole_sphere(30,3)", 4, "0", 0),
    ("many_hole_sphere(30,3)", 4, "smooth", (ZXI, "weld")),
    ("many_hole_sphere(30,3)", 8, "0", 0),
    ("many_hole_sphere(30,3)", 8, "smooth", (MIS, "weld")),
    ("many_hole_grid(30,6)", 1, "0", 0),
    ("many_hole_grid(30,6)", 1, "smooth", 0),
    ("many_hole_grid(30,6)", 4, "0", 0),
    ("many_hole_grid(30,6)", 4, "smooth", 0),
    ("many_hole_grid(30,6)", 8, "0", 0),
    ("many_hole_grid(30,6)", 8, "smooth", 2),
    ("many_hole_sphere(30,6)", 1, "0", 0),
    ("many_hole_sphere(30,6)", 1, "smooth", (MIS, "weld")),
    ("many_hole_sphere(30,6)", 4, "0", 0),
    ("many_hole_sphere(30,6)", 4, "smooth", (MIS, "weld")),
    ("many_hole_sphere(30,6)", 8, "0", 1),
    ("many_hole_sphere(30,6)", 8, "smooth", ("PATH_INSIDE_POLYGON", "weld")),
    *[("many_hole_grid(30,9)", p, mu, 0) for p in (1, 4, 8) for mu in ("0", "smooth")],
    *[("many_hole_sphere(30,9)", p, "0", 0) for p in (1, 4, 8)],
    *[("many_hole_sphere(30,9)", p, "smooth", (NUM, "koebe")) for p in (1, 4, 8)],
    # The same domains at other resolutions: a finer or coarser mesh of the
    # 6-hole lattice, or a coarse annulus, changes the outcome.
    *[("many_hole_grid(40,6)", p, mu, (MIS, "weld")) for p in (1, 4, 8) for mu in ("0", "smooth")],
    *[("many_hole_grid(60,6)", p, "0", (MIS, "weld")) for p in (1, 4, 8)],
    *[("many_hole_grid(60,6)", p, "smooth", 0) for p in (1, 4, 8)],
    *[("annulus_mesh(10,60)", p, "0", 0 if p in (1, 2, 8) else (MIS, "weld")) for p in PARTS],
]


@pytest.mark.parametrize(
    "name, parts, mu_kind, want", MANY_HOLES,
    ids=[f"{n}/parts={p}/mu={m}" for n, p, m, _ in MANY_HOLES],
)
def test_many_hole_ledger(name, parts, mu_kind, want):
    mesh = MESHES[name]()
    mu = np.zeros(mesh.n_faces, complex)
    if mu_kind == "smooth":
        mu = smooth_beltrami(mesh, 42)
    labels = default_partition(mesh, parts)
    try:
        res = compute_parameterization(mesh, labels, mu, threads=1)
    except WeldmapError as err:
        assert (err.code, err.stage) == want, err.describe()
        return
    assert res.report.flipped_faces == want


@pytest.mark.parametrize(
    "name, parts, mu_kind, want", LEDGER,
    ids=[f"{n}/parts={p}/mu={m}" for n, p, m, _ in LEDGER],
)
def test_ledger(name, parts, mu_kind, want):
    mesh = MESHES[name]()
    mu = np.zeros(mesh.n_faces, complex)
    if mu_kind == "smooth":
        mu = smooth_beltrami(mesh, 42)
    labels = default_partition(mesh, parts)
    try:
        compute_parameterization(mesh, labels, mu, threads=1)
    except WeldmapError as err:
        assert err.code == want, err.describe()
        assert "stage=" in err.describe()
        if err.stage == "weld":
            assert " and " in (err.submesh or ""), err.describe()
        return
    assert want == "ok"
