import numpy as np
import pytest

from weldmap.errors import MisorderedArc
from weldmap.koebe import (
    CircularityReport,
    circularize_hole,
    circularize_outer,
    disk_map_interior,
    koebe_refine,
    loop_circularity,
)
from fixtures import grid_mesh


def square_loop(n_side=50, size=1.0, corner=0j):
    t = np.linspace(0, size, n_side + 1)[:-1]
    return corner + np.concatenate(
        [t, size + 1j * t, size + 1j * size - t, 1j * (size - t)]
    )


def circle_loop(n=120, r=1.0, c=0j):
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return c + r * np.exp(1j * th)


def test_circularity_report_exact_circle():
    rep = loop_circularity(circle_loop(200, r=2.5, c=1 - 1j))
    assert rep.circularity < 1e-12
    assert abs(rep.center - (1 - 1j)) < 1e-12
    assert abs(rep.mean_radius - 2.5) < 1e-12


def test_disk_map_square():
    sq = square_loop()
    inner = np.array([0.5 + 0.5j, 0.2 + 0.7j, 0.9 + 0.1j])
    b, (p, anchor) = disk_map_interior(sq, [inner, [0.5 + 0.5j]])
    assert np.abs(np.abs(b) - 1.0).max() < 1e-12
    assert np.abs(p).max() < 1.0
    # anchor (polygon centroid) went to the origin
    assert abs(anchor[0]) < 1e-9


def test_disk_map_circle_is_near_rotation():
    n = 100
    circ = circle_loop(n)
    inner = np.array([0.3 + 0.2j, -0.5j, 0.6 - 0.1j])
    b, (p,) = disk_map_interior(circ, [inner], anchor=0.0)
    # uniform samples of a circle stay uniformly spread; the largest local
    # deviation sits next to the unzip start and shrinks with density
    steps = np.diff(np.unwrap(np.angle(b)))
    assert np.abs(steps - 2 * np.pi / n).max() < 0.3 * 2 * np.pi / n
    # radii of interior points are preserved by a rotation about 0
    assert np.abs(np.abs(p) - np.abs(inner)).max() < 2e-3


def test_disk_map_rejects_clockwise():
    with pytest.raises(MisorderedArc):
        disk_map_interior(square_loop()[::-1])


def test_hole_square_circularity():
    sq = square_loop()
    h, _ = circularize_hole(sq)
    assert loop_circularity(h).circularity <= 0.02
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


def test_hole_orientation_agnostic():
    sq = square_loop()
    h1, _ = circularize_hole(sq)
    h2, _ = circularize_hole(sq[::-1])
    assert loop_circularity(h2).circularity <= 0.02
    # same points, opposite traversal
    assert np.abs(np.abs(h2) - 1.0).max() < 1e-12


def test_outer_snap_and_containment():
    sq = square_loop()
    inner = np.array([0.5 + 0.5j, 0.1 + 0.1j, 0.95 + 0.5j])
    ob, (p,) = circularize_outer(sq, [inner])
    assert np.abs(np.abs(ob) - 1.0).max() < 1e-12
    assert np.abs(p).max() < 1.0 - 1e-12


def test_refine_two_blob_holes():
    # Two moderately distorted holes in a big square: after 3 cycles both
    # are visually circular.
    outer = square_loop(60, size=8.0, corner=-4 - 4j)
    th = np.linspace(0, 2 * np.pi, 140, endpoint=False)
    h1 = -1.6 + (0.7 + 0.08 * np.cos(2 * th)) * np.exp(1j * th)
    h2 = 1.7 + 0.4j + (0.5 + 0.06 * np.sin(3 * th)) * np.exp(1j * th)
    o, hs, _, hist = koebe_refine(outer, [h1, h2], passes=3, target=0.0)
    assert len(hist) == 4
    for rep in hist[-1]:
        assert rep.circularity <= 1e-2
    assert np.abs(np.abs(o) - 1.0).max() < 1e-12


def test_refine_already_circular_is_noop():
    outer = circle_loop(160, r=3.0)
    hole = circle_loop(100, r=0.5, c=1.0 + 0j)
    extra = np.array([0.5j, -2.0 + 1j])
    o, hs, (ex,), hist = koebe_refine(outer, [hole], [extra], passes=5)
    assert len(hist) == 1  # verification only, no transforms
    assert np.array_equal(o, outer) and np.array_equal(hs[0], hole)
    assert np.array_equal(ex, extra)


def test_refine_history_non_increasing():
    outer = square_loop(60, size=8.0, corner=-4 - 4j)
    th = np.linspace(0, 2 * np.pi, 140, endpoint=False)
    h1 = -1.6 + (0.7 + 0.1 * np.cos(2 * th)) * np.exp(1j * th)
    h2 = 1.7 + 0.4j + (0.5 + 0.08 * np.sin(3 * th)) * np.exp(1j * th)
    _, _, _, hist = koebe_refine(outer, [h1, h2], passes=5, target=0.0)
    for prev, cur in zip(hist[1:], hist[2:]):
        for a, b in zip(prev, cur):
            assert b.circularity <= a.circularity + 1e-5


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
    _, _, (img,), hist = koebe_refine(outer, [hole], [z], passes=1, target=0.0)
    assert len(hist) == 2  # one pass ran
    fd = beltrami_per_face(verts, mesh.faces, np.column_stack([img.real, img.imag]))
    assert np.abs(fd.mu_face).max() <= 1e-6
