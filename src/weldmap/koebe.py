"""Circularization of boundary loops via the closed-curve geodesic map.

The two building blocks are an interior Riemann map of the outer loop onto
the unit disk (circularize_outer) and its exterior counterpart for inner
holes (circularize_hole), which conjugates the interior map by an inversion
so that infinity stays fixed. Each maps one packed state: the loop, an
anchor and the passengers. The pipeline rounds one loop at a time with
them; its refine stage repeats the holes and then the outer loop, Koebe's
cyclic iteration, which drives every boundary toward a perfect circle.
"""

import numpy as np

from .errors import MisorderedArc, NumericalBreakdown
from .welding import (
    BoundaryChain,
    _check_passengers,
    _interior_point,
    _mobius,
    _pack_state,
    _polygon_area,
    _square_closing,
    _unpack,
    _unzip,
    point_in_polygon,
    sqrt_branch,
)


def loop_circularity(points):
    """How circular a boundary loop is: std/mean of the distances to its
    centroid."""
    points = np.asarray(points, dtype=np.complex128)
    r = np.abs(points - points.mean())
    return float(r.std()) / float(r.mean())


def _slit_to_disk(st, side):
    """Map the plane slit along the negative real ray onto the unit disk:
    w = sqrt(z) (principal), d = (1 - w)/(1 + w).

    Points stored exactly on the closed ray (the two boundary sides collapsed
    by the preceding square map) take the root on the half-axis given by
    `side`; infinity maps to -1.
    """
    w = sqrt_branch(st.z, side)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = (1.0 - w) / (1.0 + w)
    d = np.where(st.at_inf, -1.0 + 0j, d)
    return BoundaryChain(d, np.zeros_like(st.at_inf), np.zeros_like(st.on_axis))


def _closed_geodesic(st, n):
    """Unzip the closed boundary (state entries 0..n-1, counter-clockwise)
    and map the enclosed domain onto the unit disk with the anchor (entry n)
    at the origin. Returns the mapped state."""
    st = _unzip(st, n - 1, +1)
    if st.at_inf[0]:
        q = None
    else:
        if not st.on_axis[0]:
            raise NumericalBreakdown("closing point left the imaginary axis")
        q = st.z[0]
    st = _slit_to_disk(_square_closing(st, q), +1)
    a = st.z[n]
    if st.at_inf[n] or abs(a) >= 1.0:
        raise NumericalBreakdown("anchor left the unit disk")
    st = _mobius(st, 1.0, -a, -np.conj(a), 1.0)
    # The boundary samples are on the unit circle up to roundoff; project
    # them exactly (marker-style snap, the interior is untouched).
    mags = np.abs(st.z[:n])
    if np.any(mags == 0) or np.abs(mags - 1.0).max() > 1e-6:
        raise NumericalBreakdown("boundary images strayed off the circle")
    st.z[:n] = st.z[:n] / mags
    return st


def circularize_hole(hole, passengers):
    """Normalized conformal map of the hole's exterior onto the exterior of
    the unit disk: the hole boundary goes to the unit circle and infinity
    stays at infinity (up to a similarity far away).

    The exterior problem is conjugated to an interior one by the inversion
    1/(z - c) about an interior point c of the hole, and mapped back by 1/z.
    One state holds the hole (entries 0..n-1), the anchor (entry n, at
    infinity, which the inversion puts at 0) and the passengers.

    Returns (hole images, passenger images).
    """
    hole = np.asarray(hole, dtype=np.complex128)
    n = len(hole)
    if n < 3:
        raise MisorderedArc("hole boundary needs at least 3 points")
    st, offsets = _pack_state(np.append(hole, 0.0), passengers)
    if point_in_polygon(st.z[n + 1 :], hole).any():
        raise NumericalBreakdown(
            "a passenger inside the hole has no image: the exterior map "
            "sends the hole's centre to infinity"
        )
    st.set_inf(n)
    st = _mobius(st, 0.0, 1.0, 1.0, -_interior_point(hole))
    _check_passengers(st, offsets)
    # The inversion swaps interior and exterior and sends infinity to 0, so
    # the inverted hole runs clockwise when the input runs counter-clockwise;
    # map the interior of whichever order is counter-clockwise.
    flipped = _polygon_area(st.z[:n]) < 0
    if flipped:
        st.z[:n] = st.z[n - 1 :: -1]
    if _polygon_area(st.z[:n]) <= 0:
        raise MisorderedArc("boundary must be counter-clockwise")
    st = _closed_geodesic(st, n)
    _check_passengers(st, offsets)
    if flipped:
        st.z[:n] = st.z[n - 1 :: -1]
    return _unpack(_mobius(st, 0.0, 1.0, 1.0, 0.0), n, offsets)


def circularize_outer(outer, passengers):
    """Riemann map of the interior of the counter-clockwise outer loop onto
    the unit disk, on one state: the loop, an interior anchor sent to 0 and
    the passengers. The loop lands on the unit circle unless a passenger's
    image reaches |w| >= 1 - 1e-12: one real factor then shrinks all, loop
    too, to put the outermost passenger at 1 - 1e-12.

    Returns (outer images, passenger images).
    """
    outer = np.asarray(outer, dtype=np.complex128)
    n = len(outer)
    if n < 3:
        raise MisorderedArc("closed boundary needs at least 3 points")
    if _polygon_area(outer) <= 0:
        raise MisorderedArc("boundary must be counter-clockwise")
    st, offsets = _pack_state(np.append(outer, _interior_point(outer)), passengers)
    st = _closed_geodesic(st, n)
    worst = max((np.abs(st.z[a:b]).max() for a, b in offsets if b > a), default=0.0)
    if worst >= 1.0 - 1e-12:
        st = _mobius(st, (1.0 - 1e-12) / worst, 0.0, 0.0, 1.0)
    return _unpack(st, n, offsets)

