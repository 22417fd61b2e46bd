import numpy as np
import pytest

from weldmap.errors import MisorderedArc, NumericalBreakdown
from weldmap.koebe import circularize_hole, circularize_outer, loop_circularity
from weldmap.welding import _interior_point
from fixtures import grid_mesh

import koebe_reference
from koebe_reference import koebe_refine


def square_loop(n_side=50, size=1.0, corner=0j):
    t = np.linspace(0, size, n_side + 1)[:-1]
    return corner + np.concatenate(
        [t, size + 1j * t, size + 1j * size - t, 1j * (size - t)]
    )


def circle_loop(n=120, r=1.0, c=0j):
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return c + r * np.exp(1j * th)


def test_circularity_report_exact_circle():
    assert loop_circularity(circle_loop(200, r=2.5, c=1 - 1j)) < 1e-12


def test_disk_map_square():
    sq = square_loop()
    inner = np.array([0.5 + 0.5j, 0.2 + 0.7j, 0.9 + 0.1j])
    b, (p, anchor) = circularize_outer(sq, [inner, [0.5 + 0.5j]])
    assert np.abs(np.abs(b) - 1.0).max() < 1e-12
    assert np.abs(p).max() < 1.0
    # anchor (polygon centroid) went to the origin
    assert abs(anchor[0]) < 1e-9


def test_disk_map_circle_is_near_rotation():
    n = 100
    circ = circle_loop(n)
    inner = np.array([0.3 + 0.2j, -0.5j, 0.6 - 0.1j])
    b, (p,) = circularize_outer(circ, [inner])
    # uniform samples of a circle stay uniformly spread; the largest local
    # deviation sits next to the unzip start and shrinks with density
    steps = np.diff(np.unwrap(np.angle(b)))
    assert np.abs(steps - 2 * np.pi / n).max() < 0.3 * 2 * np.pi / n
    # radii of interior points are preserved by a rotation about 0
    assert np.abs(np.abs(p) - np.abs(inner)).max() < 2e-3


def test_disk_map_rejects_clockwise():
    with pytest.raises(MisorderedArc):
        circularize_outer(square_loop()[::-1], [])


def test_hole_square_circularity():
    sq = square_loop()
    h, _ = circularize_hole(sq, [])
    assert loop_circularity(h) <= 0.02
    assert np.abs(np.abs(h - 0) - 1.0).max() < 1e-12  # exactly the unit circle


def test_hole_circle_moves_passengers_by_similarity():
    circ = circle_loop(120)
    far = np.array([10 + 3j, -8 + 2j, 5 - 9j, 20 + 0j])
    _, (img,) = circularize_hole(circ, [far])
    A = np.column_stack([far, np.ones(len(far))])
    coef, *_ = np.linalg.lstsq(A, img, rcond=None)
    resid = np.abs(A @ coef - img).max()
    dist = np.abs(far[:, None] - far[None, :]).max()
    assert resid <= 1e-3 * dist


def test_hole_fixes_infinity():
    # Passengers ever farther out stay ever farther out, at a fixed scale:
    # the exterior map sends infinity to infinity.
    sq = square_loop()
    far = np.array([1e4, 1e6 * 1j, -1e8, 1e10 * (1 - 1j)])
    _, (img,) = circularize_hole(sq, [far])
    ratio = np.abs(img) / np.abs(far)
    assert np.all(np.isfinite(img))
    assert np.abs(ratio / ratio[-1] - 1.0).max() < 1e-3


def test_hole_passenger_at_inversion_centre_raises():
    # The inversion about the hole's interior point sends a passenger there
    # to infinity, where it has no planar image.
    sq = square_loop()
    with pytest.raises(NumericalBreakdown, match="infinity"):
        circularize_hole(sq, [[0.2 + 0.1j, _interior_point(sq)]])


def test_hole_passenger_inside_the_hole_raises():
    # Off the inversion centre, a passenger inside the hole would come back
    # as a finite point with no meaning; it is rejected like the centre.
    sq = np.array([0, 1, 1 + 1j, 1j])
    with pytest.raises(NumericalBreakdown, match="inside the hole"):
        circularize_hole(sq, [[2 + 2j], [0.3 + 0.2j]])


def test_hole_orientation_agnostic():
    sq = square_loop()
    h1, _ = circularize_hole(sq, [])
    h2, _ = circularize_hole(sq[::-1], [])
    assert loop_circularity(h2) <= 0.02
    # same points, opposite traversal
    assert np.abs(np.abs(h2) - 1.0).max() < 1e-12


def test_outer_snap_and_containment():
    sq = square_loop()
    inner = np.array([0.5 + 0.5j, 0.1 + 0.1j, 0.95 + 0.5j])
    ob, (p,) = circularize_outer(sq, [inner])
    assert np.abs(np.abs(ob) - 1.0).max() < 1e-12
    assert np.abs(p).max() < 1.0 - 1e-12


def test_outer_shrinks_a_passenger_on_the_loop_into_the_disk():
    # A passenger on an edge of the loop maps to |w| >= 1 - 1e-12 (here
    # just outside the unit circle), so the loop and every passenger are
    # scaled by one real factor until the farthest passenger sits at
    # 1 - 1e-12. That leaves the loop itself just inside the circle.
    sq = square_loop()
    inner = np.array([0.01 + 0j, 0.5 + 0.5j])
    ob, (p,) = circularize_outer(sq, [inner])
    b0, (p0,) = koebe_reference.disk_map_interior(sq, [inner])
    assert np.abs(p0).max() >= 1.0 - 1e-12
    assert np.abs(p).max() < 1.0
    factor = (1.0 - 1e-12) / np.abs(p0).max()
    assert np.array_equal(ob, factor * b0)
    assert np.array_equal(p, factor * p0)


def test_outer_map_matches_the_reference_when_nothing_shrinks():
    # With every passenger well inside, the one-state map gives the images
    # of the reference interior map bit for bit.
    rng = np.random.default_rng(5)
    sq = square_loop()
    inner = 0.1 + 0.8 * (rng.random(30) + 1j * rng.random(30))
    ob, (p,) = circularize_outer(sq, [inner])
    b0, (p0,) = koebe_reference.disk_map_interior(sq, [inner])
    assert np.abs(p0).max() < 1.0 - 1e-12
    assert np.array_equal(ob, b0)
    assert np.array_equal(p, p0)


def test_refine_two_blob_holes():
    # Two moderately distorted holes in a big square: after 3 cycles both
    # are visually circular.
    outer = square_loop(60, size=8.0, corner=-4 - 4j)
    th = np.linspace(0, 2 * np.pi, 140, endpoint=False)
    h1 = -1.6 + (0.7 + 0.08 * np.cos(2 * th)) * np.exp(1j * th)
    h2 = 1.7 + 0.4j + (0.5 + 0.06 * np.sin(3 * th)) * np.exp(1j * th)
    o, hs, _, hist = koebe_refine(outer, [h1, h2], passes=3)
    assert len(hist) == 4
    for circularity in hist[-1]:
        assert circularity <= 1e-2
    assert np.abs(np.abs(o) - 1.0).max() < 1e-12


def test_refine_runs_every_pass_on_circular_input():
    # Round input does not stop the refinement early: each pass runs and
    # leaves the outer loop on the unit circle.
    outer = circle_loop(160, r=3.0)
    hole = circle_loop(100, r=0.5, c=1.0 + 0j)
    extra = np.array([0.5j, -2.0 + 1j])
    o, hs, (ex,), hist = koebe_refine(outer, [hole], [extra], passes=5)
    assert len(hist) == 6
    assert np.abs(np.abs(o) - 1.0).max() < 1e-12


def test_refine_without_holes_maps_the_outer_loop():
    o, hs, _, hist = koebe_refine(square_loop(), [], passes=2)
    assert hs == [] and hist == [[], [], []]
    assert np.abs(np.abs(o) - 1.0).max() < 1e-12


def test_refine_history_non_increasing():
    outer = square_loop(60, size=8.0, corner=-4 - 4j)
    th = np.linspace(0, 2 * np.pi, 140, endpoint=False)
    h1 = -1.6 + (0.7 + 0.1 * np.cos(2 * th)) * np.exp(1j * th)
    h2 = 1.7 + 0.4j + (0.5 + 0.08 * np.sin(3 * th)) * np.exp(1j * th)
    _, _, _, hist = koebe_refine(outer, [h1, h2], passes=5)
    for prev, cur in zip(hist[1:], hist[2:]):
        for a, b in zip(prev, cur):
            assert b <= a + 1e-5


def test_refine_default_zero_passes():
    outer = square_loop()
    hole = circle_loop(60, r=0.2, c=0.5 + 0.5j)
    extra = np.array([0.5 + 0.1j])
    o, hs, (ex,), hist = koebe_refine(outer, [hole], [extra])
    assert np.array_equal(o, outer) and np.array_equal(hs[0], hole)
    assert np.array_equal(ex, extra)
    assert len(hist) == 1


def test_refine_preserves_beltrami():
    # All circularization maps are conformal, so a mesh carried through the
    # refinement as a passenger keeps per-face mu at the noise level.
    from weldmap.flatten import beltrami_per_face

    outer = circle_loop(800, r=4.0)
    hole = circle_loop(560, r=0.7, c=-1.6 + 0j)
    mesh = grid_mesh(10, 10, width=1.2, height=1.2)
    verts = mesh.vertices + np.array([0.8, 0.6])
    z = verts[:, 0] + 1j * verts[:, 1]
    _, _, (img,), hist = koebe_refine(outer, [hole], [z], passes=1)
    assert len(hist) == 2  # one pass ran
    fd = beltrami_per_face(verts, mesh.faces, np.column_stack([img.real, img.imag]))
    assert np.abs(fd.mu_face).max() <= 1e-6


def _hole_outcome(fn, hole, passengers):
    """The images of fn(hole, passengers), or the type and message of the
    error it raised."""
    try:
        return fn(hole, passengers)
    except (MisorderedArc, NumericalBreakdown) as err:
        return type(err), str(err)


def test_hole_map_matches_the_three_state_reference():
    # One packed state through both inversions and the interior map gives
    # the bits of three states packed and unpacked in turn.
    rng = np.random.default_rng(11)
    for trial in range(6):
        th = np.sort(rng.uniform(0.0, 2 * np.pi, 80))
        r = 1 + 0.15 * np.sin(3 * th + rng.uniform(0, 6)) + 0.075 * np.cos(5 * th)
        hole = (0.4 + 0.2j) + r * np.exp(1j * th)
        if trial % 2:
            hole = hole[::-1]
        near = hole.mean() + 1.6 * np.exp(2j * np.pi * rng.random(20))
        far = 10.0 ** rng.uniform(1, 8, 10) * np.exp(2j * np.pi * rng.random(10))
        for passengers in ([near, far], [hole[:1], near], []):
            want = _hole_outcome(koebe_reference.circularize_hole, hole, passengers)
            got = _hole_outcome(circularize_hole, hole, passengers)
            assert got[0].tobytes() == want[0].tobytes()
            assert [p.tobytes() for p in got[1]] == [p.tobytes() for p in want[1]]
        inside = [near, [hole.mean() + 0.1]]
        want = _hole_outcome(koebe_reference.circularize_hole, hole, inside)
        assert want[0] is NumericalBreakdown
        assert _hole_outcome(circularize_hole, hole, inside) == want
