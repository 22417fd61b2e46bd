"""The three-state hole map, kept as the reference for
weldmap.koebe.circularize_hole, and the unshrunk outer map, the reference
for weldmap.koebe.circularize_outer.

Here the map packs and unpacks its points three times: once for the
inversion 1/(z - c), once for the interior map of the inverted hole with the
anchor appended at 0, and once for the inversion 1/z back, the way the
package computed it before one state carried the hole, the anchor and the
passengers through every step. `circularize_hole` takes the same arguments
and returns the same images, so a test can compare the two bit for bit.

`disk_map_interior` is the interior map that circularize_outer makes before
it shrinks: the package's outer map once called it and repacked its images
to shrink them, so a test can check the shrink against it.

`koebe_refine` is Koebe's cyclic iteration on every loop at once, the way
the package ran its refine passes before the pipeline repeated its own hole
and outer roundings on the tracked positions. It calls the package's two
maps, so a test can pin the pipeline's refine stage to it bit for bit.
"""

import numpy as np

from weldmap import koebe
from weldmap.errors import MisorderedArc, NumericalBreakdown
from weldmap.koebe import _closed_geodesic, loop_circularity
from weldmap.welding import (
    _interior_point,
    _mobius,
    _pack_state,
    _polygon_area,
    _unpack,
    point_in_polygon,
)


def disk_map_interior(boundary, passengers=()):
    """Riemann map of the interior of a closed counter-clockwise boundary
    onto the unit disk, a representative interior point of the polygon to 0.

    Returns (boundary images, passenger images).
    """
    boundary = np.asarray(boundary, dtype=np.complex128)
    n = len(boundary)
    if n < 3:
        raise MisorderedArc("closed boundary needs at least 3 points")
    if _polygon_area(boundary) <= 0:
        raise MisorderedArc("boundary must be counter-clockwise")
    st, offsets = _pack_state(np.append(boundary, _interior_point(boundary)), passengers)
    return _unpack(_closed_geodesic(st, n), n, offsets)


def _disk_map_about_origin(boundary, passengers):
    """Interior map of a counter-clockwise boundary onto the unit disk with
    the origin (the anchor) sent to 0."""
    n = len(boundary)
    if _polygon_area(boundary) <= 0:
        raise MisorderedArc("boundary must be counter-clockwise")
    st, offsets = _pack_state(np.append(boundary, 0.0), passengers)
    return _unpack(_closed_geodesic(st, n), n, offsets)


def circularize_hole(hole, passengers=()):
    """weldmap.koebe.circularize_hole through three packed states."""
    hole = np.asarray(hole, dtype=np.complex128)
    n = len(hole)
    if n < 3:
        raise MisorderedArc("hole boundary needs at least 3 points")
    st, offsets = _pack_state(hole, passengers)
    if point_in_polygon(st.z[n:], hole).any():
        raise NumericalBreakdown(
            "a passenger inside the hole has no image: the exterior map "
            "sends the hole's centre to infinity"
        )
    c = _interior_point(hole)
    inv, inv_p = _unpack(_mobius(st, 0.0, 1.0, 1.0, -c), n, offsets)
    flipped = _polygon_area(inv) < 0
    if flipped:
        inv = inv[::-1]
    out, out_p = _disk_map_about_origin(inv, inv_p)
    if flipped:
        out = out[::-1]
    st, offsets = _pack_state(out, out_p)
    return _unpack(_mobius(st, 0.0, 1.0, 1.0, 0.0), n, offsets)


def koebe_refine(outer, holes, extras=(), passes=0):
    """Cyclic refinement: circularize each hole in turn, then the outer
    boundary, for `passes` full cycles.

    Returns (outer, holes, extras, history) where history holds, after each
    pass, the list of the holes' loop_circularity floats (history[0] is the
    state before any refinement).
    """
    outer = np.asarray(outer, dtype=np.complex128)
    holes = [np.asarray(h, dtype=np.complex128) for h in holes]
    extras = [np.asarray(e, dtype=np.complex128) for e in extras]
    history = [[loop_circularity(h) for h in holes]]
    for _ in range(passes):
        for j in range(len(holes)):
            others = [outer] + holes[:j] + holes[j + 1 :] + extras
            holes[j], moved = koebe.circularize_hole(holes[j], others)
            outer = moved[0]
            for i, h in enumerate(moved[1 : len(holes)]):
                holes[i if i < j else i + 1] = h
            extras = moved[len(holes) :]
        outer, moved = koebe.circularize_outer(outer, holes + extras)
        holes = moved[: len(holes)]
        extras = moved[len(holes) :]
        history.append([loop_circularity(h) for h in holes])
    return outer, holes, extras, history
