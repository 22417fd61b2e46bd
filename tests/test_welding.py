import numpy as np
import pytest

from weldmap.errors import (
    MisorderedArc,
    PathInsidePolygon,
    ZeroXi,
)
from weldmap.welding import (
    BoundaryChain,
    auxiliary_path,
    geodesic_basic,
    intermediate_form,
    multiconnected_weld,
    partial_weld,
    point_in_polygon,
)

from fixtures import grid_mesh


def polygon_area(pts):
    x, y = pts.real, pts.imag
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def is_simple_polygon(poly):
    """O(n^2) segment intersection test for non-adjacent edges."""
    p = np.asarray(poly)
    q = np.roll(p, -1)
    n = len(p)

    def cross(o, a, b):
        return (a - o).real * (b - o).imag - (a - o).imag * (b - o).real

    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            d1 = cross(p[i], q[i], p[j])
            d2 = cross(p[i], q[i], q[j])
            d3 = cross(p[j], q[j], p[i])
            d4 = cross(p[j], q[j], q[i])
            if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
                return False
    return True


def disk_halves(ns=51, n_free=60):
    """Two half-disk chains cut along the vertical diameter; shared arc first.

    Chain A is the right half (counter-clockwise), chain B the left half
    (clockwise), with a_j = b_j on the diameter.
    """
    ys = np.linspace(-1.0, 1.0, ns)
    arc = (1j * ys)[::-1]  # +i down to -i
    th = np.linspace(-np.pi / 2, np.pi / 2, n_free)[1:-1]
    a = np.concatenate([arc, np.exp(1j * th)])
    tb = np.linspace(-np.pi / 2, -3 * np.pi / 2, n_free)[1:-1]
    b = np.concatenate([arc, np.exp(1j * tb)])
    return a, b, ns - 1


def chord_split_disk(c=0.35, ns=41):
    """Disk cut along the chord x = c; returns (A right piece, B left, k)."""
    t0 = np.arccos(c)
    ys = np.linspace(np.sin(t0), -np.sin(t0), ns)
    seam = c + 1j * ys
    ta = np.linspace(-t0, t0, 50)[1:-1]
    a = np.concatenate([seam, np.exp(1j * ta)])
    tb = np.linspace(-t0, -(2 * np.pi - t0), 140)[1:-1]
    b = np.concatenate([seam, np.exp(1j * tb)])
    return a, b, ns - 1


def annulus_halves(r0=0.4, r1=1.0, nseam=13, nrim=17, nout=33):
    """Right/left halves of an annulus with markers (r, s, t).

    The chains run: first seam (top, outward to inward), inner rim, second
    seam (bottom, inward to outward), outer arc.
    """
    top = 1j * np.linspace(r1, r0, nseam)
    th_r = np.linspace(np.pi / 2, -np.pi / 2, nrim + 2)[1:-1]
    bot = 1j * np.linspace(-r0, -r1, nseam)
    th_o = np.linspace(-np.pi / 2, np.pi / 2, nout + 2)[1:-1]
    a = np.concatenate([top, r0 * np.exp(1j * th_r), bot, r1 * np.exp(1j * th_o)])
    b = np.concatenate(
        [top, r0 * np.exp(1j * (np.pi - th_r)), bot, r1 * np.exp(1j * (np.pi - th_o))]
    )
    r = nseam - 1
    s = r + nrim + 1
    t = s + nseam - 1
    return a, b, r, s, t


# ---------------------------------------------------------------------------
# geodesic_basic / intermediate_form


def test_geodesic_zeroes_xi():
    for xi in (1.0 + 0j, 0.5 + 2j, 3.0 - 1j):
        g = geodesic_basic(xi, +1)
        # sqrt halves the achievable precision at its zero
        assert abs(g.apply_state(BoundaryChain.from_points([xi])).z[0]) < 1e-7


def test_geodesic_rejects_zero():
    with pytest.raises(ZeroXi):
        geodesic_basic(0.0, +1)


def test_geodesic_infinity_limit():
    g = geodesic_basic(1.0 + 1j, +1)
    st = BoundaryChain.from_points([0j])
    st.set_inf(0)
    out = g.apply_state(st)
    assert not out.at_inf[0]
    # Mobius limit: L(inf) = re/(i*im) = -i, so the image is sqrt(-2) on
    # the imaginary axis.
    assert abs(out.z[0].real) < 1e-14
    assert abs(abs(out.z[0]) - np.sqrt(2)) < 1e-14


def test_intermediate_form_three_points():
    pts = np.exp(1j * np.array([2.0, 1.0, 0.0, -1.5]))
    st = intermediate_form(BoundaryChain.from_points(pts), 1, +1)
    assert st.at_inf[0] and st.on_axis[0]
    assert st.z[1] == 0 and st.on_axis[1]


def test_intermediate_form_semicircle_monotone():
    th = np.linspace(np.pi, 0.0, 50)
    pts = np.concatenate([np.exp(1j * th), [2.0 - 1j]])
    st = intermediate_form(BoundaryChain.from_points(pts), 49, +1)
    ys = st.z[1:50].imag
    assert np.all(st.on_axis[1:50])
    assert np.all(ys[:-1] > ys[1:])  # strictly decreasing to 0
    assert ys[-1] == 0
    # lower half-axis for the other branch
    st2 = intermediate_form(BoundaryChain.from_points(pts), 49, -1)
    ys2 = st2.z[1:50].imag
    assert np.all(ys2[:-1] < ys2[1:]) and ys2[-1] == 0


def test_intermediate_form_right_half_plane():
    a, _, k = disk_halves()
    ext = np.concatenate([a - 0.5, [0.0]])
    st = intermediate_form(BoundaryChain.from_points(ext), k, +1)
    fin = ~st.at_inf & ~st.on_axis
    assert np.all(st.z[fin].real >= -1e-8 * st.diameter())


# ---------------------------------------------------------------------------
# partial_weld


def test_weld_disk_halves():
    a, b, k = disk_halves()
    st_a, st_b, _, _ = partial_weld(a, b, k)
    scale = st_a.diameter()
    assert np.abs(st_a.z[: k + 1] - st_b.z[: k + 1]).max() <= 1e-8 * scale
    # interior markers of the normalization
    m, n = len(a), len(b)
    assert abs(st_a.z[m] - (-1)) < 1e-9
    assert abs(st_b.z[n] - 1) < 1e-9
    # welded outer boundary is a Jordan curve
    boundary = np.concatenate([st_a.z[k:m], [st_a.z[0]], st_b.z[k + 1 : n][::-1]])
    assert is_simple_polygon(boundary)
    # the seam lies inside it
    inside = [point_in_polygon(z, boundary) for z in st_a.z[1:k]]
    assert all(inside)


def test_weld_two_triangles():
    a = np.array([0j, 1.0 + 0j, 0.5 + 1j])  # CCW, shared edge 0-1
    b = np.array([0j, 1.0 + 0j, 0.5 - 1j])  # CW
    st_a, st_b, _, _ = partial_weld(a, b, 1)
    scale = st_a.diameter()
    assert np.abs(st_a.z[:2] - st_b.z[:2]).max() <= 1e-8 * scale


def test_weld_reflected_pair_symmetric():
    xs = np.linspace(-1.0, 1.0, 31)
    th = np.linspace(0.0, np.pi, 40)[1:-1]
    a = np.concatenate([xs + 0j, np.exp(1j * th)])
    b = np.conj(a)
    st_a, st_b, _, _ = partial_weld(a, b, 30)
    scale = st_a.diameter()
    # The normalization pins the A marker at -1 and the B marker at +1, so
    # swapping the chains by reflection must negate the picture: the mirror
    # symmetry axis of the welded result is the imaginary axis.
    asym = np.abs(st_a.z + np.conj(st_b.z)).max()
    assert asym <= 1e-6 * scale
    # the seam lies on the symmetry axis
    assert np.abs(st_a.z[:31].real).max() <= 1e-6 * scale


def test_weld_identity_correspondence_is_mobius():
    # Both pieces come from one disk with the identity correspondence, so the
    # welded picture must reproduce the disk up to a Mobius transformation.
    a, b, k = chord_split_disk()
    st_a, st_b, _, _ = partial_weld(a, b, k)
    m, n = len(a), len(b)
    w = np.concatenate([st_a.z[k:m], [st_a.z[0]], st_b.z[k + 1 : n][::-1]])
    o = np.concatenate([a[k:], [a[0]], b[k + 1 :][::-1]])
    # Mobius maps preserve cross-ratios; check random quadruples.
    rng = np.random.default_rng(0)

    def cross_ratio(z):
        return (z[0] - z[2]) * (z[1] - z[3]) / ((z[0] - z[3]) * (z[1] - z[2]))

    for _ in range(200):
        idx = rng.choice(len(o), 4, replace=False)
        c1, c2 = cross_ratio(o[idx]), cross_ratio(w[idx])
        assert abs(c1 - c2) <= 1e-9 * max(abs(c1), 1.0)


def test_weld_frame_independent_pairs():
    # Chain B given in a different Mobius coordinate frame still welds with
    # exactly coincident correspondence points.
    a, b, k = chord_split_disk()
    b = (2 * b + 0.3 + 0.2j) / (1 + (0.1 - 0.3j) * b)
    st_a, st_b, _, _ = partial_weld(a, b, k)
    scale = st_a.diameter()
    assert np.abs(st_a.z[: k + 1] - st_b.z[: k + 1]).max() <= 1e-8 * scale


def test_weld_rejects_wrong_orientation():
    a, b, k = disk_halves()
    with pytest.raises(MisorderedArc):
        partial_weld(a, b[::-1], k)  # B made counter-clockwise


def test_chain_preserves_beltrami():
    # The weld maps carry a mesh as passengers without changing per-face mu.
    from weldmap.flatten import beltrami_per_face

    a, b, k = chord_split_disk()
    mesh = grid_mesh(10, 10, width=0.4, height=0.6)
    verts = mesh.vertices + np.array([0.45, -0.3])
    z = verts[:, 0] + 1j * verts[:, 1]
    _, _, (img,), _ = partial_weld(a, b, k, passengers_a=[z])
    fd = beltrami_per_face(verts, mesh.faces, np.column_stack([img.real, img.imag]))
    assert np.abs(fd.mu_face).max() <= 1e-6


def test_passenger_on_boundary_point_lands_on_its_welded_image():
    # A passenger sitting on a side-A boundary point off the weld arcs goes
    # through the same maps as that point, so it lands on its welded image.
    a, b, k = chord_split_disk()
    st_a, _, (moved,), _ = partial_weld(a, b, k, passengers_a=[a[k + 1 :]])
    welded = st_a.z[k + 1 : len(a)]
    diam = st_a.diameter(len(a))
    assert np.abs(moved - welded).max() <= 1e-12 * diam

    a, b, r, s, t = annulus_halves()
    off_arcs = np.r_[r + 1 : s, t + 1 : len(a)]  # hole rim share, outer arc
    out_a, _, (moved,), _ = multiconnected_weld(
        a, b, r, s, t, passengers_a=[a[off_arcs]]
    )
    diam = np.abs(out_a[:, None] - out_a[None, :]).max()
    assert np.abs(moved - out_a[off_arcs]).max() <= 1e-12 * diam


# ---------------------------------------------------------------------------
# auxiliary_path / multiconnected_weld


def test_auxiliary_path_formula():
    poly = np.array([2 + 1j, 3 + 1j, 3 + 2j, 2 + 2j])  # far away square
    pts = auxiliary_path(0.0, 1.0, 3, poly)
    np.testing.assert_allclose(pts, [0.75, 0.5, 0.25], atol=1e-15)


def test_auxiliary_path_empty():
    poly = np.array([2 + 1j, 3 + 1j, 3 + 2j])
    assert auxiliary_path(0.0, 1.0, 0, poly) == []


def test_auxiliary_path_rejects_crossing():
    square = np.array([0j, 1 + 0j, 1 + 1j, 0 + 1j])
    with pytest.raises(PathInsidePolygon):
        auxiliary_path(-0.5 + 0.5j, 1.5 + 0.5j, 3, square)


def test_auxiliary_path_convex_hole_chord():
    a, _, r, s, t = annulus_halves()
    pts = auxiliary_path(a[r], a[s], 7, a)
    assert all(not point_in_polygon(p, a) for p in pts)


def test_multiconnected_weld_annulus():
    a, b, r, s, t = annulus_halves()
    # Put B in its own coordinate frame, as separate flattenings would.
    b = (b - 0.05 + 0.1j) / (1 + 0.2j * b) * 1.5
    out_a, out_b, _, _ = multiconnected_weld(a, b, r, s, t)
    seam = list(range(r + 1)) + list(range(s, t + 1))
    scale = np.abs(out_a).max()
    assert np.abs(out_a[seam] - out_b[seam]).max() <= 1e-8 * scale
    # hole bounded by the two rim images, inside the outer boundary
    hole = np.concatenate([out_a[r : s + 1], out_b[r + 1 : s][::-1]])
    outer = np.concatenate([out_a[t:], [out_a[0]], out_b[t + 1 :][::-1]])
    assert abs(polygon_area(hole)) > 0
    assert abs(polygon_area(outer)) > abs(polygon_area(hole))
    assert all(point_in_polygon(z, outer) for z in hole)
    # welded domain is multiply connected: seam interior avoids the hole
    mids = out_a[1:r]
    assert all(not point_in_polygon(z, hole) for z in mids)


def test_multiconnected_weld_uneven_rims():
    a, b, r, s, t = annulus_halves(nrim=17)
    a2, b2, _, s2, t2 = annulus_halves(nrim=9)
    out_a, out_b, _, _ = multiconnected_weld(
        a, b2, r, s, t, s_b=s2, t_b=t2
    )
    seam = list(range(r + 1))
    scale = np.abs(out_a).max()
    assert np.abs(out_a[seam] - out_b[seam]).max() <= 1e-8 * scale
    assert len(out_a) == len(a) and len(out_b) == len(b2)


def test_multiconnected_weld_tiny_hole():
    # Hole rim of a single vertex per side still leaves a hole polygon.
    a, b, r, s, t = annulus_halves(r0=0.15, nrim=1, nseam=9)
    out_a, out_b, _, _ = multiconnected_weld(a, b, r, s, t)
    hole = np.concatenate([out_a[r : s + 1], out_b[r + 1 : s][::-1]])
    assert len(hole) == 4
    assert abs(polygon_area(hole)) > 0
