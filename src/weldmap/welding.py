"""Conformal map primitives and the boundary welding algorithms.

All computation is carried out in the right half-plane: the weld arc lives on
the imaginary axis (upper half for one side, lower for the other) and the two
branches of the square root only disagree on the negative real axis, where a
recorded branch sign decides between +i and -i.

Points designated as on-axis are stored with exactly zero real part and
propagated through each primitive in real arithmetic, so axis membership is
exact rather than drifting; the point at infinity is a distinguished flag and
is handled by coefficient limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    MisorderedArc,
    NumericalBreakdown,
    PathInsidePolygon,
    ZeroXi,
)

AXIS_RTOL = 1e-8
_TINY = 1e-150


def sqrt_branch(w, branch):
    """Principal square root with the negative-real cut resolved to branch*i."""
    w = np.asarray(w, dtype=np.complex128)
    s = np.sqrt(w)
    cut = (w.imag == 0) & (w.real < 0)
    if np.any(cut):
        s = np.where(cut, branch * 1j * np.sqrt(-w.real + 0j), s)
    return s


@dataclass
class BoundaryChain:
    """Boundary chain positions with infinity and exact-axis bookkeeping."""

    z: np.ndarray  # complex; meaningless where at_inf
    at_inf: np.ndarray  # bool
    on_axis: np.ndarray  # bool; such points have z.real == 0 exactly

    @classmethod
    def from_points(cls, pts):
        pts = np.asarray(pts, dtype=np.complex128).copy()
        n = len(pts)
        return cls(z=pts, at_inf=np.zeros(n, dtype=bool), on_axis=np.zeros(n, dtype=bool))

    def diameter(self, n=None):
        """Diameter of the finite entries among the first n (all by default)."""
        f = self.z[:n][~self.at_inf[:n]]
        if len(f) < 2:
            return 1.0
        return float(
            np.hypot(np.ptp(f.real), np.ptp(f.imag))
        ) or 1.0

    def split(self, n):
        """The first n entries and the rest, as two chains (views)."""
        return (
            BoundaryChain(self.z[:n], self.at_inf[:n], self.on_axis[:n]),
            BoundaryChain(self.z[n:], self.at_inf[n:], self.on_axis[n:]),
        )

    def set_exact(self, i, value, on_axis=False):
        self.z[i] = value
        self.at_inf[i] = False
        self.on_axis[i] = on_axis

    def set_inf(self, i, on_axis=False):
        self.z[i] = 0.0
        self.at_inf[i] = True
        self.on_axis[i] = on_axis


class Primitive:
    """A conformal map acting on a BoundaryChain state."""

    def apply_state(self, st):
        z, at_inf, on_axis = self._apply(st.z, st.at_inf, st.on_axis)
        return BoundaryChain(z=z, at_inf=at_inf, on_axis=on_axis)

    def _apply(self, z, at_inf, on_axis):
        raise NotImplementedError


@dataclass
class MobiusMap(Primitive):
    """(a z + b) / (c z + d); infinity maps to a/c and the pole to infinity."""

    a: complex
    b: complex
    c: complex
    d: complex

    def _apply(self, z, at_inf, on_axis):
        den = self.c * z + self.d
        pole = (~at_inf) & (np.abs(den) < _TINY)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = (self.a * z + self.b) / np.where(pole, 1.0, den)
        if abs(self.c) < _TINY:
            new_inf = at_inf | pole
            w = np.where(at_inf, 0.0, w)
        else:
            w = np.where(at_inf, self.a / self.c, w)
            new_inf = pole
        return w, new_inf, np.zeros_like(on_axis)


@dataclass
class InitialRoot(Primitive):
    """g(z) = sqrt((z - z1)/(z - z0)): z1 to 0, z0 to infinity."""

    z0: complex
    z1: complex
    branch: int

    def _apply(self, z, at_inf, on_axis):
        den = z - self.z0
        pole = (~at_inf) & (np.abs(den) < _TINY)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (z - self.z1) / np.where(pole, 1.0, den)
        ratio = np.where(at_inf, 1.0 + 0j, ratio)
        w = sqrt_branch(ratio, self.branch)
        return w, pole, np.zeros_like(on_axis)


@dataclass
class GeodesicStep(Primitive):
    """g(z) = sqrt(L(z)^2 - 1) with L(z) = re*z / (1 + im*z*i); g(xi) = 0.

    re and im are Re(xi)/|xi|^2 and Im(xi)/|xi|^2.  Maps the imaginary axis
    into itself; the branch decides the half-axis for points on the cut.
    """

    re: float
    im: float
    branch: int

    def _apply(self, z, at_inf, on_axis):
        z = np.asarray(z, dtype=np.complex128)
        w = np.zeros_like(z)
        new_inf = np.zeros_like(at_inf)
        new_axis = np.zeros_like(on_axis)

        gen = ~on_axis
        genf = gen & ~at_inf
        if np.any(genf):
            den = 1.0 + 1j * self.im * z[genf]
            pole = np.abs(den) < _TINY
            with np.errstate(divide="ignore", invalid="ignore"):
                L = self.re * z[genf] / np.where(pole, 1.0, den)
            val = sqrt_branch(L * L - 1.0, self.branch)
            w[genf] = np.where(pole, 0.0, val)
            idx = np.flatnonzero(genf)
            new_inf[idx[pole]] = True
        geni = gen & at_inf
        if np.any(geni):
            if abs(self.im) < _TINY:
                new_inf[geni] = True
            else:
                L = self.re / (1j * self.im)
                w[geni] = sqrt_branch(L * L - 1.0, self.branch)

        axf = on_axis & ~at_inf
        if np.any(axf):
            y = z[axf].imag
            den = 1.0 - self.im * y
            pole = np.abs(den) < _TINY
            with np.errstate(divide="ignore", invalid="ignore"):
                Y = self.re * y / np.where(pole, 1.0, den)
            # The image lies on the branch cut; the half-axis of the Mobius
            # image decides the side, with the chain orientation breaking the
            # tie for the point currently sitting at the origin.
            sgn = np.where(Y > 0, 1.0, np.where(Y < 0, -1.0, float(self.branch)))
            yo = sgn * np.sqrt(Y * Y + 1.0)
            w[axf] = np.where(pole, 0.0, 1j * yo)
            new_axis[axf] = True
            idx = np.flatnonzero(axf)
            new_inf[idx[pole]] = True
        axi = on_axis & at_inf
        if np.any(axi):
            if abs(self.im) < _TINY:
                new_inf[axi] = True
                new_axis[axi] = True
            else:
                Y = -self.re / self.im
                sgn = np.sign(Y) if Y != 0 else float(self.branch)
                w[axi] = 1j * (sgn * np.sqrt(Y * Y + 1.0))
                new_axis[axi] = True
        return w, new_inf, new_axis


@dataclass
class ClosingMobius(Primitive):
    """z / (1 - z/q) for an axis point q = i*qy: q to infinity, 0 to 0."""

    qy: float

    def _apply(self, z, at_inf, on_axis):
        z = np.asarray(z, dtype=np.complex128)
        q = 1j * self.qy
        w = np.zeros_like(z)
        new_inf = np.zeros_like(at_inf)
        new_axis = on_axis.copy()

        fin = ~at_inf
        den = 1.0 - z / q
        pole = fin & (np.abs(den) < 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            w[fin] = (z / np.where(pole, 1.0, den))[fin]
        new_inf[pole] = True
        w[at_inf] = -q
        axf = on_axis & ~at_inf & ~pole
        if np.any(axf):
            y = z[axf].imag
            dy = 1.0 - y / self.qy
            # The real-arithmetic denominator can hit zero even when the
            # complex pole test above missed it by a rounding ulp.
            hit = dy == 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = 1j * (y / np.where(hit, 1.0, dy))
            w[axf] = vals
            idx = np.flatnonzero(axf)
            new_inf[idx[hit]] = True
        return w, new_inf, new_axis


@dataclass
class WeldStep(Primitive):
    """h(z) = sqrt(T(z)^2 + 1) with T the Mobius sending (ai, 0, bi) to
    (i, 0, -i); aligns the pair at ai (one chain) and bi (the other) at 0.
    """

    ya: float  # a > 0
    yb: float  # b < 0
    branch: int

    def __post_init__(self):
        a, b = self.ya, self.yb
        self.c1 = -2.0 * a * b / (a - b)
        self.c2 = (a + b) / (a - b)

    def _apply(self, z, at_inf, on_axis):
        z = np.asarray(z, dtype=np.complex128)
        c1, c2 = self.c1, self.c2
        w = np.zeros_like(z)
        new_inf = np.zeros_like(at_inf)
        new_axis = np.zeros_like(on_axis)

        genf = ~on_axis & ~at_inf
        if np.any(genf):
            den = c1 - 1j * c2 * z[genf]
            pole = np.abs(den) < _TINY
            with np.errstate(divide="ignore", invalid="ignore"):
                t = z[genf] / np.where(pole, 1.0, den)
            val = sqrt_branch(t * t + 1.0, self.branch)
            w[genf] = np.where(pole, 0.0, val)
            idx = np.flatnonzero(genf)
            new_inf[idx[pole]] = True
        geni = ~on_axis & at_inf
        if np.any(geni):
            if abs(c2) < _TINY:
                new_inf[geni] = True
            else:
                Y = 1.0 / c2
                v = 1.0 - Y * Y
                if v >= 0:
                    w[geni] = np.sqrt(v)
                else:
                    w[geni] = 1j * (np.sign(Y) * np.sqrt(-v))

        axf = on_axis & ~at_inf
        if np.any(axf):
            y = z[axf].imag
            den = c1 + c2 * y
            pole = np.abs(den) < _TINY
            with np.errstate(divide="ignore", invalid="ignore"):
                Y = y / np.where(pole, 1.0, den)
            v = 1.0 - Y * Y
            welded = v >= 0
            # Axis points beyond the Mobius pole wrap through infinity to
            # the other half-axis; sign(Y) tracks that correctly.
            sgn = np.where(Y > 0, 1.0, np.where(Y < 0, -1.0, float(self.branch)))
            out = np.where(
                welded,
                np.sqrt(np.maximum(v, 0.0)) + 0j,
                1j * (sgn * np.sqrt(np.maximum(-v, 0.0))),
            )
            w[axf] = np.where(pole, 0.0, out)
            idx = np.flatnonzero(axf)
            new_inf[idx[pole]] = True
            new_axis[idx] = ~welded & ~pole
        axi = on_axis & at_inf
        if np.any(axi):
            if abs(c2) < _TINY:
                new_inf[axi] = True
                new_axis[axi] = True
            else:
                Y = 1.0 / c2
                v = 1.0 - Y * Y
                if v >= 0:
                    w[axi] = np.sqrt(v)
                    new_axis[axi] = False
                else:
                    w[axi] = 1j * (np.sign(Y) * np.sqrt(-v))
                    new_axis[axi] = True
        return w, new_inf, new_axis


@dataclass
class SquareClosing(Primitive):
    """h(z) = (z / (1 - z/q))^2 reopening the domain at the boundary point q;
    q = None encodes a pole at infinity (plain square)."""

    q: complex | None

    def _apply(self, z, at_inf, on_axis):
        z = np.asarray(z, dtype=np.complex128)
        if self.q is None:
            w = np.where(at_inf, 0.0, z * z)
            return w, at_inf.copy(), np.zeros_like(on_axis)
        den = 1.0 - z / self.q
        pole = (~at_inf) & (np.abs(den) < 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            m = z / np.where(pole, 1.0, den)
        m = np.where(at_inf, -self.q, m)
        w = m * m
        return w, pole, np.zeros_like(on_axis)


def _pack_state(points, passengers=()):
    """One BoundaryChain holding points (boundary entries and markers)
    followed by every passenger array; returns (state, offsets) for
    _unpack. Passengers ride through each map of the state but are never
    snapped, and no reduction over the boundary reads them."""
    parts = [np.asarray(points, dtype=np.complex128)]
    offsets = []
    pos = len(parts[0])
    for p in passengers:
        p = np.asarray(p, dtype=np.complex128)
        offsets.append((pos, pos + len(p)))
        parts.append(p)
        pos += len(p)
    return BoundaryChain.from_points(np.concatenate(parts)), offsets


def _unpack(st, n, offsets):
    """Copies of the first n entries and of each passenger array."""
    return st.z[:n].copy(), [st.z[a:b].copy() for a, b in offsets]


# ---------------------------------------------------------------------------
# Operations


def geodesic_basic(xi, branch, scale=1.0):
    """Primitive g(z) = sqrt(L_xi(z)^2 - 1) with g(xi) = 0."""
    xi = complex(xi)
    r2 = abs(xi) ** 2
    if r2 < (1e-14 * max(scale, 1.0)) ** 2:
        raise ZeroXi("geodesic step through (near) zero")
    return GeodesicStep(re=xi.real / r2, im=xi.imag / r2, branch=branch)


def intermediate_form(st, k, branch, n=None):
    """Half-way geodesic transform of a state whose first n entries (all by
    default) are boundary points and markers, the rest passengers: points
    0..k end up on one imaginary half-axis (upper for branch +1, lower for
    -1), index k at 0, index 0 at infinity; the first n entries stay in the
    closed right half-plane.

    Returns the mapped BoundaryChain.
    """
    if n is None:
        n = len(st.z)
    if not (1 <= k < n - 1):
        raise MisorderedArc(f"marker k={k} out of range for {n} points")
    scale = st.diameter(n)

    g1 = InitialRoot(z0=complex(st.z[0]), z1=complex(st.z[1]), branch=branch)
    st = g1.apply_state(st)
    st.set_exact(1, 0.0, on_axis=True)
    st.set_inf(0, on_axis=True)

    for j in range(2, k + 1):
        if st.at_inf[j]:
            raise NumericalBreakdown(f"arc point {j} escaped to infinity")
        st = geodesic_basic(st.z[j], branch, scale=scale).apply_state(st)
        st.set_exact(j, 0.0, on_axis=True)

    # Closing Mobius sends the image of point 0 (on the axis) to infinity.
    if not st.at_inf[0]:
        qy = st.z[0].imag
        if abs(qy) < _TINY:
            raise NumericalBreakdown("closing point collapsed to zero")
        st = ClosingMobius(qy=qy).apply_state(st)
        st.set_inf(0, on_axis=True)

    new_scale = st.diameter(n)
    head = st.split(n)[0]
    bad = (~head.at_inf) & (~head.on_axis) & (head.z.real < -AXIS_RTOL * new_scale)
    if np.any(bad):
        raise NumericalBreakdown(
            f"{int(bad.sum())} points left the right half-plane"
        )
    return st


def _polygon_area(pts):
    x, y = pts.real, pts.imag
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def point_in_polygon(p, poly):
    """Even-odd ray casting; orientation independent."""
    x, y = p.real, p.imag
    px, py = poly.real, poly.imag
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    crosses = ((py > y) != (qy > y)) & (
        x < px + (y - py) * (qx - px) / (qy - py + ((qy - py) == 0))
    )
    return bool(np.count_nonzero(crosses) % 2)


def _interior_point(poly):
    c = complex(np.mean(poly))
    if point_in_polygon(c, poly):
        return c
    # Midpoint of a horizontal chord through the median height.
    y = float(np.median(poly.imag))
    px, py = poly.real, poly.imag
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    hit = (py > y) != (qy > y)
    xs = np.sort(px[hit] + (y - py[hit]) * (qx[hit] - px[hit]) / (qy[hit] - py[hit]))
    for i in range(0, len(xs) - 1, 2):
        cand = complex(0.5 * (xs[i] + xs[i + 1]), y)
        if point_in_polygon(cand, poly):
            return cand
    raise NumericalBreakdown("could not find an interior point of the polygon")


def _monotonize_axis(st, k, sign):
    """Restore strict ordering of the axis images 1..k after crowding.

    On elongated charts the conformal parameters of neighbouring arc points
    can collapse below double precision and come out equal (or reversed by an
    epsilon). Those points occupy an exponentially small stretch of the
    welded boundary, so nudging them apart by an eps-scale amount is far
    below the seam tolerance. Genuine misorderings are left alone for the
    ordering check to reject.
    """
    y = st.z[1 : k + 1].imag * sign  # should decrease strictly to 0 at k
    ymax = float(y.max(initial=0.0))
    if ymax <= 0:
        return
    tiny = 1e-13 * ymax
    coarse = 1e-9 * ymax
    changed = False
    for j in range(k - 2, -1, -1):
        if y[j] <= y[j + 1] + tiny and y[j + 1] - y[j] < coarse:
            y[j] = y[j + 1] + tiny
            changed = True
    if changed:
        for j in range(k - 1):
            st.set_exact(j + 1, 1j * sign * y[j], on_axis=True)


def _span(st, n):
    """Largest finite magnitude among state entries 1..n-1."""
    return np.abs(st.z[1:n][~st.at_inf[1:n]]).max()


def partial_weld(a_points, b_points, k, passengers_a=(), passengers_b=()):
    """Weld two boundary chains along their shared arc (indices 0..k).

    a_points must run counter-clockwise around polygon A and b_points
    clockwise around polygon B, with a_j and b_j the two copies of the same
    arc point. passengers_a and passengers_b are further points of each
    side's plane that ride through the same conformal maps.

    Returns (state_a, state_b, moved_a, moved_b): the welded boundary states
    (each with its two normalization markers appended) and the passengers'
    images as BoundaryChains, whose at_inf flags mark passengers that went
    to infinity.
    """
    a_points = np.asarray(a_points, dtype=np.complex128)
    b_points = np.asarray(b_points, dtype=np.complex128)
    m, n = len(a_points), len(b_points)
    if not (1 <= k < min(m, n) - 1):
        raise MisorderedArc(f"arc length k={k} invalid for chains of {m}/{n} points")
    if _polygon_area(a_points) <= 0:
        raise MisorderedArc("chain A must be counter-clockwise")
    if _polygon_area(b_points) >= 0:
        raise MisorderedArc("chain B must be clockwise")

    # Recenter so the auxiliary origin lies inside each polygon. Each side
    # gets two markers: its new origin and, at infinity, the far field.
    ca = _interior_point(a_points)
    cb = _interior_point(b_points)
    st_a, _ = _pack_state(
        np.concatenate([a_points - ca, [0.0, 0.0]]),
        [np.asarray(passengers_a, dtype=np.complex128) - ca],
    )
    st_b, _ = _pack_state(
        np.concatenate([b_points - cb, [0.0, 0.0]]),
        [np.asarray(passengers_b, dtype=np.complex128) - cb],
    )
    st_a.set_inf(m + 1)
    st_b.set_inf(n + 1)

    st_a = intermediate_form(st_a, k, +1, m + 2)
    st_b = intermediate_form(st_b, k, -1, n + 2)

    _monotonize_axis(st_a, k, +1)
    _monotonize_axis(st_b, k, -1)
    ya = st_a.z[1 : k + 1].imag
    yb = st_b.z[1 : k + 1].imag
    if np.any(ya[:-1] <= ya[1:]) or np.any(ya[:-1] <= 0) or ya[-1] != 0:
        raise MisorderedArc("arc images on the upper axis are not ordered")
    if np.any(yb[:-1] >= yb[1:]) or np.any(yb[:-1] >= 0):
        raise MisorderedArc("arc images on the lower axis are not ordered")

    for j in range(k - 1, 0, -1):
        a_val = st_a.z[j].imag
        b_val = st_b.z[j].imag
        span_pre = max(_span(st_a, m + 2), _span(st_b, n + 2))
        if (
            not st_a.at_inf[j]
            and not st_b.at_inf[j]
            and abs(a_val) < 1e-11 * span_pre
            and abs(b_val) < 1e-11 * span_pre
        ):
            # Crowded pair numerically indistinguishable from the previous
            # weld point; a Mobius through it would be pure noise. Weld it
            # at the same position instead.
            st_a.set_exact(j, 0.0)
            st_b.set_exact(j, 0.0)
            continue
        if (
            st_a.at_inf[j]
            or st_b.at_inf[j]
            or not st_a.on_axis[j]
            or not st_b.on_axis[j]
            or abs(a_val - b_val) < _TINY * max(span_pre, 1.0)
        ):
            raise NumericalBreakdown(
                f"weld pair {j} is degenerate (a={a_val}, b={b_val})"
            )
        wa = WeldStep(ya=a_val, yb=b_val, branch=+1)
        wb = WeldStep(ya=a_val, yb=b_val, branch=-1)
        if wa.c1 <= 0:
            # The alignment Mobius must keep the right half-plane; c1 <= 0
            # means the two pair points no longer bracket the weld tip on
            # the boundary circle.
            raise NumericalBreakdown(
                f"weld pair {j} lost its bracketing order (a={a_val}, b={b_val})"
            )
        st_a = wa.apply_state(st_a)
        st_b = wb.apply_state(st_b)
        st_a.set_exact(j, 0.0)
        st_b.set_exact(j, 0.0)
        # A far endpoint hugely beyond the rest of the picture carries no
        # usable digits (it came back from infinity through a near-zero
        # Mobius coefficient); pin it at infinity so noise cannot walk it
        # into a later welding window.
        span = max(_span(st_a, m + 2), _span(st_b, n + 2))
        mag_a = np.inf if st_a.at_inf[0] else abs(st_a.z[0])
        mag_b = np.inf if st_b.at_inf[0] else abs(st_b.z[0])
        if min(mag_a, mag_b) > 1e8 * span:
            st_a.set_inf(0, on_axis=True)
            st_b.set_inf(0, on_axis=True)

    # The far ends started at infinity together and went through identical
    # axis arithmetic, so they coincide; the closing map reopens the welded
    # picture at that shared boundary point, sending it to infinity.
    if st_a.at_inf[0] and st_b.at_inf[0]:
        h0 = SquareClosing(q=None)
    elif not st_a.at_inf[0] and not st_b.at_inf[0]:
        qa = complex(st_a.z[0])
        qb = complex(st_b.z[0])
        span = max(_span(st_a, m + 2), _span(st_b, n + 2))
        if abs(qa - qb) > AXIS_RTOL * max(span, abs(qa)):
            raise NumericalBreakdown(
                f"far ends of the weld arc disagree: {qa} vs {qb}"
            )
        h0 = SquareClosing(q=0.5 * (qa + qb))
    else:
        raise NumericalBreakdown("far ends of the weld arc are inconsistent")
    st_a = h0.apply_state(st_a)
    st_b = h0.apply_state(st_b)
    if h0.q is not None:
        st_a.set_inf(0)
        st_b.set_inf(0)

    # Normalization: interior markers to -1 and 1, far field to infinity.
    p1 = complex(st_a.z[m])
    p2 = complex(st_b.z[n])
    if st_a.at_inf[m + 1] or st_b.at_inf[n + 1]:
        p3 = None
    else:
        p3 = 0.5 * (complex(st_a.z[m + 1]) + complex(st_b.z[n + 1]))
    norm = _three_point_mobius(p1, p2, p3)
    st_a = norm.apply_state(st_a)
    st_b = norm.apply_state(st_b)
    if st_a.at_inf[0] or st_b.at_inf[0]:
        raise NumericalBreakdown("weld arc endpoint remained at infinity")

    st_a, moved_a = st_a.split(m + 2)
    st_b, moved_b = st_b.split(n + 2)
    _check_weld(st_a, st_b, k)
    return st_a, st_b, moved_a, moved_b


def _three_point_mobius(p1, p2, p3):
    """Mobius sending (p1, p2, p3) to (-1, 1, infinity); p3 None means inf."""
    if p3 is None:
        s = 2.0 / (p2 - p1)
        return MobiusMap(a=s, b=-s * p1 - 1.0, c=0.0, d=1.0)
    kk = (p2 - p3) / (p2 - p1)
    return MobiusMap(a=2.0 * kk - 1.0, b=p3 - 2.0 * kk * p1, c=1.0, d=-p3)


def _check_weld(st_a, st_b, k):
    scale = max(st_a.diameter(), st_b.diameter())
    for j in range(k + 1):
        if st_a.at_inf[j] != st_b.at_inf[j]:
            raise NumericalBreakdown(f"weld pair {j} split at infinity")
        if st_a.at_inf[j]:
            continue
        d = abs(st_a.z[j] - st_b.z[j])
        if d > AXIS_RTOL * scale:
            raise NumericalBreakdown(
                f"welded pair {j} differs by {d:.3e} (scale {scale:.3e})"
            )


def auxiliary_path(a_r, a_s, count, polygon):
    """Evenly spaced points on the segment between a_r and a_s, listed from
    the a_s side toward a_r, verified to lie strictly outside the polygon."""
    a_r = complex(a_r)
    a_s = complex(a_s)
    polygon = np.asarray(polygon, dtype=np.complex128)
    pts = [
        (i / (count + 1)) * a_r + (1 - i / (count + 1)) * a_s
        for i in range(1, count + 1)
    ]
    for p in pts:
        if point_in_polygon(p, polygon):
            raise PathInsidePolygon(
                "auxiliary segment crosses the submesh; a detour path is required"
            )
    return pts


def multiconnected_weld(a_points, b_points, r, s_a, t_a, s_b=None, t_b=None,
                        aux_count=None, aux_a=None, aux_b=None,
                        passengers_a=(), passengers_b=()):
    """Weld along two arcs: indices 0..r and s..t on each chain, where the
    gap r..s is that chain's share of an inner hole rim (the two shares may
    have different lengths).  Auxiliary points bridge the gap so the
    single-arc welding algorithm applies; the bridged region is discarded
    afterwards, leaving a hole bounded by the images of both rim arcs.

    Returns (welded a, welded b, moved_a, moved_b): the welded chains in the
    original indexing and the passengers' images, as in partial_weld.
    """
    a_points = np.asarray(a_points, dtype=np.complex128)
    b_points = np.asarray(b_points, dtype=np.complex128)
    if s_b is None:
        s_b = s_a
    if t_b is None:
        t_b = t_a
    if not (0 < r < s_a <= t_a < len(a_points)):
        raise MisorderedArc("need markers 0 < r < s <= t inside chain A")
    if not (0 < r < s_b <= t_b < len(b_points)):
        raise MisorderedArc("need markers 0 < r < s <= t inside chain B")
    if t_a - s_a != t_b - s_b:
        raise MisorderedArc("second weld arcs have different lengths")

    if aux_a is not None or aux_b is not None:
        # Caller-supplied bridge paths (already in a_r -> a_s order), for
        # geometries where the straight segment would cross the polygon.
        aux_a = np.asarray(aux_a, dtype=np.complex128)
        aux_b = np.asarray(aux_b, dtype=np.complex128)
        if len(aux_a) != len(aux_b) or len(aux_a) == 0:
            raise MisorderedArc("custom auxiliary paths must have equal length")
        for p, poly in ((aux_a, a_points), (aux_b, b_points)):
            for z in p:
                if point_in_polygon(complex(z), poly):
                    raise PathInsidePolygon("custom auxiliary path enters the polygon")
        aux_count = len(aux_a)
    else:
        if aux_count is None:
            segs = [np.abs(np.diff(a_points[: r + 1])), np.abs(np.diff(b_points[: r + 1]))]
            if t_a > s_a:
                segs.append(np.abs(np.diff(a_points[s_a : t_a + 1])))
                segs.append(np.abs(np.diff(b_points[s_b : t_b + 1])))
            h = np.mean(np.concatenate(segs))
            gap = 0.5 * (abs(a_points[r] - a_points[s_a]) + abs(b_points[r] - b_points[s_b]))
            aux_count = max(1, int(round(gap / max(h, 1e-300))) - 1)

        aux_a = auxiliary_path(a_points[r], a_points[s_a], aux_count, a_points)
        aux_b = auxiliary_path(b_points[r], b_points[s_b], aux_count, b_points)
        # The path formula lists points from the a_s end; the chain needs them
        # running from a_r to a_s.
        aux_a = aux_a[::-1]
        aux_b = aux_b[::-1]

    aug_a = np.concatenate([a_points[: r + 1], aux_a, a_points[s_a:]])
    aug_b = np.concatenate([b_points[: r + 1], aux_b, b_points[s_b:]])
    k_weld = r + aux_count + 1 + (t_a - s_a)

    # The rim points (excluded from the augmented polygon) ride as the first
    # passengers; the original indexing is stitched back together after.
    rim_a = a_points[r + 1 : s_a]
    rim_b = b_points[r + 1 : s_b]
    st_a, st_b, moved_a, moved_b = partial_weld(
        aug_a, aug_b, k_weld,
        passengers_a=np.concatenate([rim_a, np.asarray(passengers_a, dtype=np.complex128)]),
        passengers_b=np.concatenate([rim_b, np.asarray(passengers_b, dtype=np.complex128)]),
    )
    rim_a, moved_a = moved_a.split(len(rim_a))
    rim_b, moved_b = moved_b.split(len(rim_b))
    if rim_a.at_inf.any() or rim_b.at_inf.any():
        raise NumericalBreakdown("a hole rim point escaped to infinity")
    out_a = np.concatenate([st_a.z[: r + 1], rim_a.z, st_a.z[r + 1 + aux_count :][: len(a_points) - s_a]])
    out_b = np.concatenate([st_b.z[: r + 1], rim_b.z, st_b.z[r + 1 + aux_count :][: len(b_points) - s_b]])
    return out_a, out_b, moved_a, moved_b
