import numpy as np
import pytest

from weldmap import koebe, welding
from weldmap.errors import (
    MisorderedArc,
    PathInsidePolygon,
    WeldmapError,
    ZeroXi,
)
from weldmap.koebe import circularize_hole, circularize_outer
from weldmap.partition import default_partition
from weldmap.pipeline import compute_parameterization
from weldmap.welding import (
    BoundaryChain,
    auxiliary_path,
    intermediate_form,
    multiconnected_weld,
    partial_weld,
    point_in_polygon,
)

import zipper_reference
from fixtures import annulus_mesh, grid_mesh, hemisphere_cap, smooth_beltrami


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


def diameter(*parts):
    """Diameter of the points of all parts together."""
    z = np.concatenate([np.ravel(p) for p in parts])
    return float(np.hypot(np.ptp(z.real), np.ptp(z.imag)))


def weld_with_markers(a, b, k):
    """partial_weld of a and b with each side's interior point riding as a
    passenger. The weld recentres each side on that point and appends a
    normalization marker at the new origin, so the passenger starts at the
    marker's value and takes its path. Returns the welded chains and the
    images of the A and B markers."""
    wa, wb, (ca,), (cb,) = partial_weld(
        a, b, k,
        passengers_a=[[welding._interior_point(a)]],
        passengers_b=[[welding._interior_point(b)]],
    )
    return wa, wb, ca[0], cb[0]


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
# geodesic steps / intermediate_form


def _unzip_points(pts, k, branch=+1, scale=1.0):
    return welding._unzip(BoundaryChain.from_points(pts), k, branch, scale=scale)


def test_geodesic_zeroes_xi():
    # Entry 3 copies arc entry 2, so the step that sends entry 2 to 0 sends
    # entry 3 there too, through the tail formula.
    for p in (1.0 + 0j, 0.5 + 2j, 3.0 - 1j):
        st = _unzip_points([-1.0 - 1j, -1.0 + 1j, p, p, 2.0 - 2j], 2)
        assert st.z[2] == 0 and st.on_axis[2]
        # sqrt halves the achievable precision at its zero
        assert abs(st.z[3]) < 1e-7


def test_geodesic_rejects_zero():
    # Entry 2 on entry 1: the initial root sends both to 0, so the first
    # geodesic step would go through 0.
    pts = np.exp(1j * np.array([2.0, 1.0, 1.0, 0.0, -1.5, -3.0]))
    with pytest.raises(ZeroXi):
        intermediate_form(BoundaryChain.from_points(pts), 3, +1, len(pts))


def test_geodesic_rejects_near_zero_relative_to_scale():
    # Entry 2 a distance d above entry 1 = 0, with entry 0 at 1: the initial
    # root sends it to sqrt(-i d / (1 - i d)), about 2e-14 for d = 4e-28.
    # The step refuses it when that is below 1e-14 times the chain's scale.
    pts = [1.0, 0.0, 4e-28j, -1.0 + 1j, -1.0 - 1j]
    xi = abs(welding._initial_root(
        BoundaryChain.from_points(pts), pts[0], pts[1], +1).z[2])
    assert 1.5e-14 < xi < 2.5e-14
    with pytest.raises(ZeroXi):
        _unzip_points(pts, 2, scale=1.01 * xi / 1e-14)
    st = _unzip_points(pts, 2, scale=0.99 * xi / 1e-14)
    assert st.z[2] == 0 and st.on_axis[2]


def test_geodesic_infinity_limit():
    # Entry 3 sits on entry 0, so the initial root sends it to infinity;
    # entry 4 sits next to entry 0 and goes far out. The geodesic step maps
    # infinity to the limit of its finite images: L(inf) = re/(i*im) is
    # imaginary, so the image is on the imaginary axis.
    pts = [0j, 1.0, 1.0 + 1j, 0j, 1e-20 + 0j, -1.0 - 1j]
    st = _unzip_points(pts, 2)
    assert not st.at_inf[3]
    assert st.z[3].real == 0
    assert abs(st.z[3] - st.z[4]) < 1e-8 * abs(st.z[3])


@pytest.mark.parametrize(
    "q, z",
    [
        (None, 2e200 + 1e200j),
        # One ulp off q: z / (1 - z/q) is about 4.5e155.
        (1e140, 1e140 * (1 + 2.0**-52)),
    ],
)
def test_square_closing_sends_an_overflowing_square_to_infinity(q, z):
    # The square passes the largest double. The entry goes to infinity, as
    # a pole does, with no overflow warning (warnings from weldmap code fail
    # the test).
    st = welding._square_closing(BoundaryChain.from_points([0.5, z, 3.0]), q)
    assert st.at_inf.tolist() == [False, True, False]
    assert st.z[1] == 0
    plain = welding._square_closing(BoundaryChain.from_points([0.5, 3.0]), q)
    assert np.array_equal(st.z[[0, 2]], plain.z)
    assert not plain.at_inf.any()


@pytest.mark.parametrize("q", [None, 4.0])
def test_square_closing_leaves_a_nan_entry_as_it_came(q):
    # Only a square that overflows is sent to infinity; an entry that is
    # already NaN is not taken for a pole.
    st = welding._square_closing(
        BoundaryChain.from_points([0.5, complex(np.nan, 0.0), 3.0]), q
    )
    assert not st.at_inf.any()
    assert np.isnan(st.z[1])


def test_intermediate_form_three_points():
    pts = np.exp(1j * np.array([2.0, 1.0, 0.0, -1.5]))
    st = intermediate_form(BoundaryChain.from_points(pts), 1, +1, len(pts))
    assert st.at_inf[0] and st.on_axis[0]
    assert st.z[1] == 0 and st.on_axis[1]


def test_intermediate_form_semicircle_monotone():
    th = np.linspace(np.pi, 0.0, 50)
    pts = np.concatenate([np.exp(1j * th), [2.0 - 1j]])
    st = intermediate_form(BoundaryChain.from_points(pts), 49, +1, len(pts))
    ys = st.z[1:50].imag
    assert np.all(st.on_axis[1:50])
    assert np.all(ys[:-1] > ys[1:])  # strictly decreasing to 0
    assert ys[-1] == 0
    # lower half-axis for the other branch
    st2 = intermediate_form(BoundaryChain.from_points(pts), 49, -1, len(pts))
    ys2 = st2.z[1:50].imag
    assert np.all(ys2[:-1] < ys2[1:]) and ys2[-1] == 0


def test_intermediate_form_right_half_plane():
    a, _, k = disk_halves()
    ext = np.concatenate([a - 0.5, [0.0]])
    st = intermediate_form(BoundaryChain.from_points(ext), k, +1, len(ext))
    fin = ~st.at_inf & ~st.on_axis
    assert np.all(st.z[fin].real >= -1e-8 * st.diameter())


# ---------------------------------------------------------------------------
# partial_weld


def test_weld_disk_halves():
    a, b, k = disk_halves()
    wa, wb, ca, cb = weld_with_markers(a, b, k)
    scale = diameter(wa, ca)
    assert np.abs(wa[: k + 1] - wb[: k + 1]).max() <= 1e-8 * scale
    # interior markers of the normalization
    assert abs(ca - (-1)) < 1e-9
    assert abs(cb - 1) < 1e-9
    # welded outer boundary is a Jordan curve
    boundary = np.concatenate([wa[k:], [wa[0]], wb[k + 1 :][::-1]])
    assert is_simple_polygon(boundary)
    # the seam lies inside it
    inside = [point_in_polygon(z, boundary) for z in wa[1:k]]
    assert all(inside)


def test_weld_two_triangles():
    a = np.array([0j, 1.0 + 0j, 0.5 + 1j])  # CCW, shared edge 0-1
    b = np.array([0j, 1.0 + 0j, 0.5 - 1j])  # CW
    wa, wb, ca, _ = weld_with_markers(a, b, 1)
    scale = diameter(wa, ca)
    assert np.abs(wa[:2] - wb[:2]).max() <= 1e-8 * scale


def test_weld_reflected_pair_symmetric():
    xs = np.linspace(-1.0, 1.0, 31)
    th = np.linspace(0.0, np.pi, 40)[1:-1]
    a = np.concatenate([xs + 0j, np.exp(1j * th)])
    b = np.conj(a)
    wa, wb, ca, cb = weld_with_markers(a, b, 30)
    scale = diameter(wa, ca)
    # The normalization pins the A marker at -1 and the B marker at +1, so
    # swapping the chains by reflection must negate the picture: the mirror
    # symmetry axis of the welded result is the imaginary axis.
    asym = max(np.abs(wa + np.conj(wb)).max(), abs(ca + np.conj(cb)))
    assert asym <= 1e-6 * scale
    # the seam lies on the symmetry axis
    assert np.abs(wa[:31].real).max() <= 1e-6 * scale


def test_weld_identity_correspondence_is_mobius():
    # Both pieces come from one disk with the identity correspondence, so the
    # welded picture must reproduce the disk up to a Mobius transformation.
    a, b, k = chord_split_disk()
    wa, wb, _, _ = partial_weld(a, b, k, passengers_a=[], passengers_b=[])
    w = np.concatenate([wa[k:], [wa[0]], wb[k + 1 :][::-1]])
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
    wa, wb, ca, _ = weld_with_markers(a, b, k)
    scale = diameter(wa, ca)
    assert np.abs(wa[: k + 1] - wb[: k + 1]).max() <= 1e-8 * scale


def test_weld_rejects_wrong_orientation():
    a, b, k = disk_halves()
    with pytest.raises(MisorderedArc):
        partial_weld(a, b[::-1], k, passengers_a=[], passengers_b=[])  # B made counter-clockwise


def test_chain_preserves_beltrami():
    # The weld maps carry a mesh as passengers without changing per-face mu.
    from weldmap.flatten import beltrami_per_face

    a, b, k = chord_split_disk()
    mesh = grid_mesh(10, 10, width=0.4, height=0.6)
    verts = mesh.vertices + np.array([0.45, -0.3])
    z = verts[:, 0] + 1j * verts[:, 1]
    _, _, (img,), _ = partial_weld(a, b, k, passengers_a=[z], passengers_b=[])
    fd = beltrami_per_face(verts, mesh.faces, np.column_stack([img.real, img.imag]))
    assert np.abs(fd.mu_face).max() <= 1e-6


def test_passenger_on_boundary_point_lands_on_its_welded_image():
    # A passenger sitting on a side-A boundary point off the weld arcs goes
    # through the same maps as that point, so it lands on its welded image.
    a, b, k = chord_split_disk()
    wa, _, (moved,), _ = partial_weld(a, b, k, passengers_a=[a[k + 1 :]], passengers_b=[])
    welded = wa[k + 1 :]
    diam = diameter(wa)
    assert np.abs(moved - welded).max() <= 1e-12 * diam

    a, b, r, s, t = annulus_halves()
    off_arcs = np.r_[r + 1 : s, t + 1 : len(a)]  # hole rim share, outer arc
    out_a, _, (moved,), _ = multiconnected_weld(
        a, b, r, s, t, s, t, passengers_a=[a[off_arcs]], passengers_b=[]
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
    out_a, out_b, _, _ = multiconnected_weld(a, b, r, s, t, s, t, passengers_a=[], passengers_b=[])
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


def test_multiconnected_weld_raises_when_the_mouth_chord_clips_a_side():
    # Push chain A's middle rim vertex across the mouth chord (the imaginary
    # axis from a[r] to a[s]): the straight bridge then clips chain A.
    a, b, r, s, t = annulus_halves()
    a[(r + s) // 2] = -0.1
    with pytest.raises(PathInsidePolygon) as info:
        multiconnected_weld(a, b, r, s, t, s, t, passengers_a=[], passengers_b=[])
    err = info.value
    assert f"side A's rim share (chain indices {r}..{s})" in str(err)
    assert "fewer parts" in err.hint and "clear straight bridge" in err.hint


def test_auxiliary_path_rejects_a_chord_that_clips_a_corner():
    # Both sample points lie outside the square, but the chord cuts across
    # its corner at 1 + 1j.
    square = np.array([0j, 1 + 0j, 1 + 1j, 0 + 1j])
    a_r, a_s = 0.5 + 1.45j, 1.45 + 0.45j
    samples = [a_r + (a_s - a_r) * f for f in (1 / 3, 2 / 3)]
    assert not point_in_polygon(np.array(samples), square).any()
    with pytest.raises(PathInsidePolygon, match="crosses a polygon edge"):
        auxiliary_path(a_r, a_s, 2, square)


def test_multiconnected_weld_uneven_rims():
    a, b, r, s, t = annulus_halves(nrim=17)
    a2, b2, _, s2, t2 = annulus_halves(nrim=9)
    out_a, out_b, _, _ = multiconnected_weld(
        a, b2, r, s, t, s_b=s2, t_b=t2, passengers_a=[], passengers_b=[]
    )
    seam = list(range(r + 1))
    scale = np.abs(out_a).max()
    assert np.abs(out_a[seam] - out_b[seam]).max() <= 1e-8 * scale
    assert len(out_a) == len(a) and len(out_b) == len(b2)


def test_multiconnected_weld_tiny_hole():
    # Hole rim of a single vertex per side still leaves a hole polygon.
    a, b, r, s, t = annulus_halves(r0=0.15, nrim=1, nseam=9)
    out_a, out_b, _, _ = multiconnected_weld(a, b, r, s, t, s, t, passengers_a=[], passengers_b=[])
    hole = np.concatenate([out_a[r : s + 1], out_b[r + 1 : s][::-1]])
    assert len(hole) == 4
    assert abs(polygon_area(hole)) > 0


# ---------------------------------------------------------------------------
# The zipper kernel against the per-primitive reference loops


@pytest.fixture
def zipper_paths(monkeypatch):
    """Run the reference loops of zipper_reference beside every call of the
    kernel (welding._unzip, welding._weld_pairs), on copies of its inputs,
    and require the same bytes of z, at_inf and on_axis, or the same error.
    Yields the set of rare paths the reference took."""
    paths = set()
    kernel_unzip, kernel_pairs = welding._unzip, welding._weld_pairs

    def unzip(st, k, branch, scale=1.0):
        want = _outcome(zipper_reference.unzip, _copy(st), k, branch, scale, paths)
        got = _outcome(kernel_unzip, st, k, branch, scale)
        _assert_same(got, want)
        return _result(got)

    def weld_pairs(st_a, st_b, k, na, nb):
        want = _outcome(
            zipper_reference.weld_pairs, _copy(st_a), _copy(st_b), k, na, nb, paths
        )
        got = _outcome(kernel_pairs, st_a, st_b, k, na, nb)
        _assert_same(got, want)
        return _result(got)

    monkeypatch.setattr(welding, "_unzip", unzip)
    monkeypatch.setattr(koebe, "_unzip", unzip)
    monkeypatch.setattr(welding, "_weld_pairs", weld_pairs)
    yield paths


def _copy(st):
    return BoundaryChain(st.z.copy(), st.at_inf.copy(), st.on_axis.copy())


def _outcome(fn, *args):
    try:
        return fn(*args)
    except WeldmapError as err:
        return err


def _assert_same(got, want):
    if isinstance(want, WeldmapError):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    chains = (got,) if isinstance(got, BoundaryChain) else got
    refs = (want,) if isinstance(want, BoundaryChain) else want
    for st, ref in zip(chains, refs, strict=True):
        for name in ("z", "at_inf", "on_axis"):
            assert getattr(st, name).tobytes() == getattr(ref, name).tobytes(), name


def _result(out):
    if isinstance(out, WeldmapError):
        raise out
    return out


def smooth_chain(rng, n):
    """Counter-clockwise closed chain of n random points on a smoothly
    perturbed unit circle."""
    th = np.sort(rng.uniform(0.0, 2 * np.pi, n))
    r = 1 + 0.15 * np.sin(3 * th + rng.uniform(0, 6)) + 0.075 * np.cos(5 * th)
    return r * np.exp(1j * th)


def test_zipper_matches_reference_on_smooth_chains_with_passengers(zipper_paths):
    rng = np.random.default_rng(7)
    for _ in range(3):
        loop = smooth_chain(rng, 90)
        inner = 0.3 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
        inner = inner[np.abs(inner) < 0.6]
        outside = loop.mean() + 2.5 * np.exp(2j * np.pi * rng.random(30))
        st, _ = welding._pack_state(np.append(loop, 0.1 + 0.05j), [inner])
        intermediate_form(st, 40, +1, len(loop) + 1)
        circularize_hole(loop, [outside])
        circularize_outer(loop, [inner])
    a, b, k = chord_split_disk()
    b = (2 * b + 0.3 + 0.2j) / (1 + (0.1 - 0.3j) * b)
    partial_weld(a, b, k, passengers_a=[0.6 + 0.1 * rng.standard_normal(20)],
                 passengers_b=[-0.5 + 0.1j * rng.standard_normal(20)])
    a, b, r, s, t = annulus_halves()
    multiconnected_weld(a, b, r, s, t, s, t, passengers_a=[a[r + 1 : s]], passengers_b=[])


def test_zipper_matches_reference_with_passengers_at_the_first_point(zipper_paths):
    # A passenger on point 0 is the initial root's pole: it starts the
    # geodesic steps at infinity.
    loop = smooth_chain(np.random.default_rng(3), 60)
    st, _ = welding._pack_state(np.append(loop, 0.0), [loop[:1]])
    intermediate_form(st, 20, -1, len(loop) + 1)
    circularize_outer(loop, [loop[:1]])
    circularize_hole(loop, [loop[-1:]])
    a, b, k = disk_halves()
    partial_weld(a, b, k, passengers_a=[a[:1]], passengers_b=[b[:1]])
    assert {
        "unzip: entry at infinity after the initial root",
        "unzip: generic entry at infinity",
    } <= zipper_paths


def test_zipper_matches_reference_in_corpus_maps(zipper_paths):
    # Maps of the benchmark corpus (smooth mu) whose welds take the rare
    # paths: symmetric annulus holes whose unzip puts axis entries on a
    # step's pole, axis entries welded before their turn, crowded pairs
    # after _monotonize_axis nudged them, and retried weld attempts.
    for mesh, parts in ((annulus_mesh(20, 120), 4), (hemisphere_cap(), 8)):
        try:
            compute_parameterization(
                mesh, default_partition(mesh, parts), smooth_beltrami(mesh, 42)
            )
        except WeldmapError:
            pass
    assert {
        "unzip: entry at infinity after the initial root",
        "unzip: axis entry at infinity",
        "unzip: axis entry hits a pole",
        "unzip: generic entry at infinity",
        "unzip: generic entry hits a pole",
        "weld: axis entry welded out of turn",
        "weld: crowded pair",
    } <= zipper_paths


def _axis_state(ys, tail):
    """A state laid out as an intermediate form: entries 0..k on the
    imaginary axis at the ordinates ys, then the generic entries tail; None
    puts an entry at infinity."""
    vals = [0j if y is None else 1j * y for y in ys] + [0j if w is None else w for w in tail]
    st = BoundaryChain.from_points(vals)
    st.on_axis[: len(ys)] = True
    st.at_inf[[i for i, v in enumerate([*ys, *tail]) if v is None]] = True
    return st


def test_zipper_weld_steps_match_reference_off_the_layout(zipper_paths):
    # Hand-made intermediate forms whose entries leave the kernel's layout
    # in every way a weld step allows. The first pair (a = 1, b = -0.5) has
    # c1 = 2/3 and c2 = 1/3, so -2i is the pole of its generic entries and
    # the ordinate -2 the pole of its axis entries.
    tail = [0.3 + 0.4j, 1.0 - 0.2j]
    b_run = [None, -5.0, -4.0, -3.0, -2.5, -0.5, 0.0]
    for a_run, a_tail in (
        # far end finite, welded off the axis by the first step; a generic
        # entry at infinity, and one on the first step's pole
        ([0.5, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0], [None, -2j, *tail]),
        # an axis entry at infinity
        ([None, 5.0, None, 3.0, 2.0, 1.0, 0.0], tail),
        # an axis entry on the first step's pole
        ([None, 5.0, -2.0, 3.0, 2.0, 1.0, 0.0], tail),
    ):
        st_a, st_b = _axis_state(a_run, a_tail), _axis_state(b_run, tail)
        try:
            welding._weld_pairs(st_a, st_b, 6, len(st_a.z), len(st_b.z))
        except WeldmapError:
            pass
    assert {
        "weld: far end off the axis",
        "weld: far end welded off the axis",
        "weld: generic entry at infinity",
        "weld: generic entry hits a pole",
        "weld: axis entry at infinity",
        "weld: axis entry welded out of turn",
        "weld: axis entry hits a pole",
    } <= zipper_paths


def _random_layout(rng, n, t, inf_share=0.1):
    """A state with entries below t on the imaginary axis and the rest
    generic in the right half-plane; about inf_share of them at infinity."""
    z = rng.uniform(0.05, 3.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
    z[:t] = 1j * rng.uniform(-3.0, 3.0, t)
    st = BoundaryChain.from_points(z)
    st.on_axis[:t] = True
    for i in np.flatnonzero(rng.random(n) < inf_share):
        st.set_inf(i, on_axis=i < t)
    return st


def test_zipper_geodesic_step_matches_the_masked_step():
    # One step on random states, with axis and generic entries on the
    # step's poles (exact: im is a power of two) and at infinity.
    rng = np.random.default_rng(11)
    for trial in range(200):
        n, j = 60, 20
        st = _random_layout(rng, n, j)
        st.set_exact(j, complex(rng.uniform(0.1, 2), rng.uniform(-2, 2)))
        re = rng.uniform(-2, 2)
        im = [0.5, -0.25, 1e-160][trial % 3] if trial % 4 else rng.uniform(-2, 2)
        branch = (-1, 1)[trial % 2]
        if abs(im) > 1e-100:
            st.set_exact(3, 1j / im, on_axis=True)
            st.set_exact(j + 5, 1j / im)
        st.set_exact(j - 1, 0.0, on_axis=True)  # the previous step's zero
        want = zipper_reference.GeodesicStep(re, im, branch).apply_state(_copy(st))
        want.set_exact(j, 0.0, on_axis=True)
        zipper = welding._Zipper(_copy(st), j)
        zipper.geodesic(j, re, im, branch)
        _assert_same(zipper.chain(), want)


def test_zipper_weld_step_matches_the_masked_step():
    # One step on random states: axis entries on both sides of the pole,
    # off the axis before their turn and at infinity; generic entries on
    # the pole and at infinity; the far end off the axis; and, as at a first
    # step, the next entry at exactly 0 on the axis.
    rng = np.random.default_rng(12)
    for trial in range(40):
        n, j = 60, 20
        st = _random_layout(rng, n, j + 2)
        st.set_exact(j + 1, 0.0, on_axis=trial % 2 == 0)
        a, b = rng.uniform(0.1, 2.0), -rng.uniform(0.1, 2.0)
        st.set_exact(j, 1j * (a if trial % 2 else b), on_axis=True)
        step = zipper_reference.WeldStep(a, b, (-1, 1)[trial % 2])
        if trial % 3 == 0:
            step.c1, step.c2 = 0.5, 0.25  # poles at ordinate -2 and at -2i
            st.set_exact(5, -2j, on_axis=True)
            st.set_exact(j + 7, -2j)
        if trial % 5 == 0:
            step.c2 = 1e-160
        if trial % 4 == 0:
            st.set_exact(0, complex(rng.uniform(0.1, 1.0), 0.0))
        if trial % 4 == 1:
            st.set_exact(7, complex(rng.uniform(0.1, 1.0), rng.uniform(-1, 1)))
        want = step.apply_state(_copy(st))
        want.set_exact(j, 0.0)
        zipper = welding._Zipper(_copy(st), j + 1)
        zipper.weld(j, step.c1, step.c2, step.branch)
        assert zipper.span(n - 3) == welding._span(want, n - 3)
        assert zipper.far_magnitude() == (np.inf if want.at_inf[0] else abs(want.z[0]))
        _assert_same(zipper.chain(), want)
