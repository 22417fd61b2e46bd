"""Exact oracles for the quasi-conformal path: maps whose answer is known
without the package's own numerics.

Affine oracle. A(z) = z + k conj(z) has the constant Beltrami coefficient
k, so a map of a planar mesh M with mu = k is a conformal map of A(M)
composed with A. Both maps land on circle domains that differ by a Moebius
map, and the pairwise inversive distances of their boundary circles, which
Moebius maps keep, must agree.

Lifted-plane oracle. A planar mesh taken as a 3D one (fixtures.lifted) is
the same surface, so with the same mu it must map to the same uv as its 2D
twin.

Circle-domain oracles (mu = 0). A round annulus of radii r0 and 1 maps
onto concentric circles of radius ratio r0, whatever the part count, with
an O(h^2) error. Partitioning and welding do not change the answer, so the
inversive distances of a two-hole map do not depend on its part count.
"""

import itertools

import numpy as np
import pytest

from weldmap.errors import WeldmapError
from weldmap.mesh import build_mesh
from weldmap.partition import default_partition
from weldmap.pipeline import compute_parameterization

from fixtures import annulus_mesh, complex_uv, fit_circle, lifted, two_hole_grid

MESHES = [("two_hole_grid(40)", lambda: two_hole_grid(40)),
          ("annulus_mesh(20,120)", lambda: annulus_mesh(20, 120))]
PARTS = (1, 2, 4)


def _inversive_distances(loops, uv):
    """(|c1 - c2|^2 - r1^2 - r2^2) / (2 r1 r2) of the circles fitted to the
    images of each pair of the boundary loops, in loop order."""
    z = complex_uv(uv)
    circles = [fit_circle(z[loop])[:2] for loop in loops]
    return np.array([
        (abs(c1 - c2) ** 2 - r1 * r1 - r2 * r2) / (2 * r1 * r2)
        for (c1, r1), (c2, r2) in itertools.combinations(circles, 2)
    ])


@pytest.mark.parametrize("k", [0.3, -0.3, 0.2 + 0.2j], ids=["0.3", "-0.3", "0.2+0.2i"])
@pytest.mark.parametrize("parts", PARTS)
@pytest.mark.parametrize("make", [make for _, make in MESHES], ids=[name for name, _ in MESHES])
def test_a_constant_mu_map_is_a_conformal_map_of_the_affine_image(make, parts, k):
    mesh = make()
    labels = default_partition(mesh, parts)
    z = complex_uv(mesh.vertices)
    image = z + k * np.conj(z)
    stretched = build_mesh(np.column_stack([image.real, image.imag]), mesh.faces)
    # The same loops in the same order, so the circles pair up.
    assert [lp.tolist() for lp in stretched.boundary_loops] == [
        lp.tolist() for lp in mesh.boundary_loops
    ]
    mu = np.full(mesh.n_faces, k, dtype=np.complex128)
    qc_map = compute_parameterization(mesh, labels, mu, qc=False).param.uv
    conformal = compute_parameterization(
        stretched, labels, np.zeros(mesh.n_faces, dtype=np.complex128), qc=False
    ).param.uv
    got = _inversive_distances(mesh.boundary_loops, qc_map)
    want = _inversive_distances(mesh.boundary_loops, conformal)
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=0)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: mu on a 3D face is read in a frame set by its first "
    "edge, and all six lifted maps fail",
)
def test_a_lifted_plane_maps_like_its_planar_twin():
    outcomes = []
    for name, make in MESHES:
        mesh = make()
        flat3d = lifted(mesh)
        mu = np.full(mesh.n_faces, 0.3, dtype=np.complex128)
        for parts in PARTS:
            labels = default_partition(mesh, parts)
            want = compute_parameterization(mesh, labels, mu, qc=False).param.uv
            try:
                got = compute_parameterization(flat3d, labels, mu, qc=False).param.uv
            except WeldmapError as exc:
                outcomes.append((f"{name}, {parts} parts: {exc.code} in {exc.stage}", False))
                continue
            diff = float(np.abs(got - want).max())
            outcomes.append((f"{name}, {parts} parts: uv differs by {diff:.3g}", diff <= 1e-9))
    report = "\n".join(line for line, _ in outcomes)
    print(report)
    assert all(ok for _, ok in outcomes), report


def _zero_mu_map(mesh, parts):
    labels = default_partition(mesh, parts)
    mu = np.zeros(mesh.n_faces, dtype=np.complex128)
    return compute_parameterization(mesh, labels, mu, qc=False).param.uv


def test_a_round_annulus_keeps_its_radius_ratio_at_every_part_count():
    # Nested circles have an inversive distance delta <= -1, and concentric
    # ones of radius ratio rho have delta = -(rho + 1/rho) / 2; the ratio
    # is Moebius-invariant. Measured: -1.681e-4 on the coarse mesh, and
    # -4.244e-5 (-3.360e-5 at 8 parts) on the fine one.
    errors = {}
    for args, bound in (((20, 120), 2e-4), ((40, 240), 5e-5)):
        mesh = annulus_mesh(*args)
        for parts in (1, 2, 4, 8):
            (delta,) = _inversive_distances(mesh.boundary_loops, _zero_mu_map(mesh, parts))
            ratio = -delta - np.sqrt(delta * delta - 1)
            errors[args, parts] = ratio / 0.4 - 1
            assert abs(errors[args, parts]) <= bound, (args, parts, errors[args, parts])
    # Halving h quarters the error (measured 3.96).
    for parts in (1, 2, 4):
        assert 3.5 <= errors[(20, 120), parts] / errors[(40, 240), parts] <= 4.5, parts


def test_the_circle_domain_does_not_depend_on_the_part_count():
    # Measured: at most 8.6e-6 relative, at 5 parts.
    mesh = two_hole_grid(80)
    want = _inversive_distances(mesh.boundary_loops, _zero_mu_map(mesh, 2))
    for parts in range(3, 9):
        got = _inversive_distances(mesh.boundary_loops, _zero_mu_map(mesh, parts))
        np.testing.assert_allclose(got, want, rtol=2e-5, atol=0, err_msg=f"{parts} parts")
