"""Outcome ledger: which small maps succeed and how the others fail.

Each case is default_partition plus compute_parameterization at one thread,
with mu = 0 or smooth_beltrami(mesh, 42). A change that turns a failure into
a success (or the reverse) updates this table on purpose.
"""

import numpy as np
import pytest

from weldmap.errors import WeldmapError
from weldmap.partition import default_partition
from weldmap.pipeline import compute_parameterization

from fixtures import curved_annulus, disk_mesh, hemisphere_cap, smooth_beltrami

MESHES = {
    "disk_mesh(16,64)": lambda: disk_mesh(16, 64),
    "hemisphere_cap()": hemisphere_cap,
    "curved_annulus()": curved_annulus,
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
