"""Circularization of boundary loops via the closed-curve geodesic map.

The two building blocks are an interior Riemann map of a Jordan polygon onto
the unit disk (disk_map_interior) and its exterior counterpart for inner
holes (circularize_hole), which conjugates the interior map by an inversion
so that infinity stays fixed. Cyclic refinement over all loops implements
the classical iteration that drives every boundary toward a perfect circle.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MisorderedArc, NumericalBreakdown
from .welding import (
    BoundaryChain,
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

CIRCULARITY_TARGET = 1e-3


@dataclass
class CircularityReport:
    """How circular a boundary loop is: std/mean of distances to centroid."""

    center: complex
    mean_radius: float
    std_radius: float

    @property
    def circularity(self):
        return self.std_radius / self.mean_radius


def loop_circularity(points):
    points = np.asarray(points, dtype=np.complex128)
    center = points.mean()
    r = np.abs(points - center)
    return CircularityReport(
        center=complex(center), mean_radius=float(r.mean()), std_radius=float(r.std())
    )


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


def disk_map_interior(boundary, passengers=(), anchor=None):
    """Riemann map of the interior of a closed counter-clockwise boundary
    onto the unit disk, anchor point to 0.

    Returns (boundary images, passenger images). The anchor defaults to a
    representative interior point of the polygon.
    """
    boundary = np.asarray(boundary, dtype=np.complex128)
    n = len(boundary)
    if n < 3:
        raise MisorderedArc("closed boundary needs at least 3 points")
    if _polygon_area(boundary) <= 0:
        raise MisorderedArc("boundary must be counter-clockwise")
    if anchor is None:
        anchor = _interior_point(boundary)
    st, offsets = _pack_state(np.append(boundary, anchor), passengers)
    return _unpack(_closed_geodesic(st, n), n, offsets)


def circularize_hole(hole, passengers=()):
    """Normalized conformal map of the hole's exterior onto the exterior of
    the unit disk: the hole boundary goes to the unit circle and infinity
    stays at infinity (up to a similarity far away).

    The exterior problem is conjugated to an interior one by the inversion
    1/(z - c) about an interior point c of the hole.

    Returns (hole images, passenger images).
    """
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
    # The inversion swaps interior and exterior and sends infinity to 0, so
    # the inverted hole runs clockwise when the input runs counter-clockwise;
    # map the interior of whichever order is counter-clockwise.
    flipped = _polygon_area(inv) < 0
    if flipped:
        inv = inv[::-1]
    out, out_p = disk_map_interior(inv, inv_p, anchor=0.0)
    if flipped:
        out = out[::-1]
    st, offsets = _pack_state(out, out_p)
    return _unpack(_mobius(st, 0.0, 1.0, 1.0, 0.0), n, offsets)


def circularize_outer(outer, passengers=()):
    """Map the interior of the outer boundary onto the unit disk. The loop lands
    on the unit circle unless a passenger's image reaches |w| >= 1 - 1e-12:
    one real factor then shrinks all, loop too, to put the outermost passenger
    at 1 - 1e-12."""
    out_b, out_p = disk_map_interior(outer, passengers)
    worst = max((np.abs(p).max() for p in out_p if len(p)), default=0.0)
    if worst >= 1.0 - 1e-12:
        st, offsets = _pack_state(out_b, out_p)
        scaled = _mobius(st, (1.0 - 1e-12) / worst, 0.0, 0.0, 1.0)
        out_b, out_p = _unpack(scaled, len(out_b), offsets)
    return out_b, out_p


def koebe_refine(outer, holes, extras=(), passes=0, target=CIRCULARITY_TARGET):
    """Cyclic refinement: circularize each hole in turn, then the outer
    boundary, for up to `passes` full cycles; stop early once every hole
    meets the circularity target.

    Returns (outer, holes, extras, history) where history is the list of
    per-hole CircularityReport lists recorded after each pass (history[0] is
    the state before any refinement).
    """
    outer = np.asarray(outer, dtype=np.complex128)
    holes = [np.asarray(h, dtype=np.complex128) for h in holes]
    extras = [np.asarray(e, dtype=np.complex128) for e in extras]
    history = [[loop_circularity(h) for h in holes]]
    for _ in range(passes):
        if all(r.circularity <= target for r in history[-1]):
            break
        for j in range(len(holes)):
            others = [outer] + holes[:j] + holes[j + 1 :] + extras
            holes[j], moved = circularize_hole(holes[j], others)
            outer = moved[0]
            for i, h in enumerate(moved[1 : len(holes)]):
                holes[i if i < j else i + 1] = h
            extras = moved[len(holes) :]
        outer, moved = circularize_outer(outer, holes + extras)
        holes = moved[: len(holes)]
        extras = moved[len(holes) :]
        history.append([loop_circularity(h) for h in holes])
    return outer, holes, extras, history
