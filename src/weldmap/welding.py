"""The elementary conformal maps and the boundary welding algorithms.

Each one-shot map (Mobius, initial root, closing Mobius, square closing) is
a function from a BoundaryChain state and its parameters to the mapped
state; the zipper kernel (_Zipper) runs the geodesic and weld steps of a
whole loop on one state in place.

All computation is carried out in the right half-plane: the weld arc lives on
the imaginary axis (upper half for one side, lower for the other) and the two
branches of the square root only disagree on the negative real axis, where a
recorded branch sign decides between +i and -i.

Points designated as on-axis are stored with exactly zero real part and
propagated through each map in real arithmetic, so axis membership is
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
    # Roots on the cut have real part exactly 0; slices with none skip the test.
    if np.count_nonzero(s.real) < s.size:
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

    def head(self, n):
        """The first n entries, as a chain of views."""
        return BoundaryChain(self.z[:n], self.at_inf[:n], self.on_axis[:n])

    def set_exact(self, i, value, on_axis=False):
        self.z[i] = value
        self.at_inf[i] = False
        self.on_axis[i] = on_axis

    def set_inf(self, i, on_axis=False):
        self.z[i] = 0.0
        self.at_inf[i] = True
        self.on_axis[i] = on_axis


def _mobius(st, a, b, c, d):
    """(a z + b) / (c z + d); infinity maps to a/c and the pole to infinity."""
    z, at_inf = st.z, st.at_inf
    den = c * z + d
    pole = (~at_inf) & (np.abs(den) < _TINY)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (a * z + b) / np.where(pole, 1.0, den)
    if abs(c) < _TINY:
        new_inf = at_inf | pole
        w = np.where(at_inf, 0.0, w)
    else:
        w = np.where(at_inf, a / c, w)
        new_inf = pole
    return BoundaryChain(w, new_inf, np.zeros_like(st.on_axis))


def _initial_root(st, z0, z1, branch):
    """g(z) = sqrt((z - z1)/(z - z0)): z1 to 0, z0 to infinity."""
    z, at_inf = st.z, st.at_inf
    den = z - z0
    pole = (~at_inf) & (np.abs(den) < _TINY)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (z - z1) / np.where(pole, 1.0, den)
    ratio = np.where(at_inf, 1.0 + 0j, ratio)
    return BoundaryChain(sqrt_branch(ratio, branch), pole, np.zeros_like(st.on_axis))


def _closing_mobius(st, qy):
    """z / (1 - z/q) for an axis point q = i*qy: q to infinity, 0 to 0."""
    z, at_inf, on_axis = st.z, st.at_inf, st.on_axis
    q = 1j * qy
    w = np.zeros_like(z)
    new_inf = np.zeros_like(at_inf)

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
        dy = 1.0 - y / qy
        # The real-arithmetic denominator can hit zero even when the
        # complex pole test above missed it by a rounding ulp.
        hit = dy == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = 1j * (y / np.where(hit, 1.0, dy))
        w[axf] = vals
        idx = np.flatnonzero(axf)
        new_inf[idx[hit]] = True
    return BoundaryChain(w, new_inf, on_axis.copy())


def _square_closing(st, q):
    """h(z) = (z / (1 - z/q))^2 reopening the domain at the boundary point q;
    q = None encodes a pole at infinity (plain square). An entry whose
    square overflows goes to infinity, as a pole does."""
    z, at_inf = st.z, st.at_inf
    m, pole = z, at_inf
    if q is not None:
        den = 1.0 - z / q
        pole = (~at_inf) & (np.abs(den) < 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            m = np.where(at_inf, -q, z / np.where(pole, 1.0, den))
    with np.errstate(over="ignore", invalid="ignore"):
        w = m * m
    if q is None:
        w[at_inf] = 0.0
    far = np.isfinite(m) & ~np.isfinite(w)  # not an entry that came in non-finite
    w[far] = 0.0
    return BoundaryChain(w, pole | far, np.zeros_like(st.on_axis))


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
    """Copies of the first n entries and of each passenger array; a
    passenger at infinity has no planar image and raises."""
    if any(st.at_inf[a:b].any() for a, b in offsets):
        raise NumericalBreakdown("a passenger point escaped to infinity")
    return st.z[:n].copy(), [st.z[a:b].copy() for a, b in offsets]


# ---------------------------------------------------------------------------
# Operations


_NO_HITS = np.empty(0, dtype=np.intp)


def _mask_poles(den):
    """Positions where a Mobius denominator vanishes (|den| < _TINY). den
    is set to 1 there, as the masked maps did, so the division that follows
    stays finite and raises no warning; the caller overwrites those
    entries. |den| < _TINY needs a real part that small, which is cheaper
    to rule out first."""
    if not np.fmin.reduce(np.abs(den.real), initial=np.inf) < _TINY:
        return _NO_HITS
    hits = np.flatnonzero(np.abs(den) < _TINY)
    den[hits] = 1.0
    return hits


class _Zipper:
    """A BoundaryChain state laid out for the zipper loops, mapped one
    geodesic or weld step at a time with whole-slice operations.

    Entries below t sit on the imaginary axis and are held as their real
    ordinates y (z.imag is exactly y there); entries from t on are generic
    complex entries of z. Each step maps the ordinates and the tail as two
    slices; an unzip step moves t up by one entry, a weld step down by one.
    Entries off that layout (at infinity, or off the axis below t) are
    listed in `odd` and mapped one by one with the same formulas; what the
    slices compute for them is overwritten. An odd entry keeps y = 0, and
    an entry at infinity keeps z = 0, as the masked maps left them.

    Takes over the arrays of the state it is built from; chain() hands the
    mapped state back.
    """

    def __init__(self, st, t):
        self.z, self.inf, self.axis = st.z, st.at_inf, st.on_axis
        self.y = self.z.imag.copy()
        self.t = t
        self.odd = []
        self._settle(
            np.flatnonzero(self.inf).tolist() + np.flatnonzero(~self.axis[:t]).tolist()
        )

    def _settle(self, changed):
        """Recompute `odd` from its old entries and the changed ones."""
        if not changed and not self.odd:
            return
        t, inf, axis = self.t, self.inf, self.axis
        self.odd = sorted(
            i for i in set(self.odd).union(changed) if inf[i] or (i < t and not axis[i])
        )
        for i in self.odd:
            self.y[i] = 0.0
            if inf[i]:
                self.z[i] = 0.0

    def _hits(self, den, offset):
        """Indices (den[0] is entry `offset`) where a Mobius denominator
        vanishes, odd entries left out; den is masked as _mask_poles does."""
        hits = _mask_poles(den)
        if not len(hits):
            return []
        return [i for i in (hits + offset).tolist() if i not in self.odd]

    def geodesic(self, j, re, im, branch):
        """g(z) = sqrt(L(z)^2 - 1), L(z) = re*z / (1 + im*z*i), with re and
        im from xi = z[j] as in _unzip: entry j goes to 0 and joins the axis,
        which maps into itself. The branch decides the half-axis for points
        on the cut. In an unzip every odd entry is at infinity."""
        y, z, inf = self.y, self.z, self.inf
        den = 1.0 - im * y[:j]
        tail = z[j + 1 :]
        den_t = 1.0 + 1j * im * tail
        poles = self._hits(den, 0) + self._hits(den_t, j + 1)
        Y = re * y[:j] / den
        # The image lies on the branch cut; the half-axis of the Mobius
        # image decides the side, with the chain orientation breaking the
        # tie for the point currently sitting at the origin.
        sgn = np.where(Y > 0, 1.0, np.where(Y < 0, -1.0, float(branch)))
        L = re * tail / den_t
        w = sqrt_branch(L * L - 1.0, branch)
        y[:j] = sgn * np.sqrt(Y * Y + 1.0)
        z[j + 1 :] = w
        if abs(im) >= _TINY:
            for i in self.odd:
                if self.axis[i]:
                    Y = -re / im
                    sgn = np.sign(Y) if Y != 0 else float(branch)
                    y[i] = sgn * np.sqrt(Y * Y + 1.0)
                else:
                    L = re / (1j * im)
                    z[i] = sqrt_branch(L * L - 1.0, branch)
                inf[i] = False
        inf[poles] = True
        z[j], y[j], inf[j], self.axis[j] = 0.0, 0.0, False, True
        self.t = j + 1
        self._settle(poles)

    @staticmethod
    def _weld_generic(zs, c1, c2, branch):
        """The weld map on generic entries zs, and the positions in zs of
        its poles, whose values the caller overwrites."""
        den = c1 - 1j * c2 * zs
        hits = _mask_poles(den)
        t = zs / den
        return sqrt_branch(t * t + 1.0, branch), hits

    def weld(self, j, c1, c2, branch):
        """h(z) = sqrt(T(z)^2 + 1), T(z) = z / (c1 - c2*z*i) the Mobius
        sending the pair at entry j to i (side A) or -i (side B): entry j
        goes to 0 and joins the tail. An axis entry that T sends inside
        [-i, i] is welded off the axis; axis points beyond the Mobius pole
        wrap through infinity to the other half-axis, which sign(Y) tracks.
        """
        y, z, inf, axis = self.y, self.z, self.inf, self.axis
        den = c1 + c2 * y[:j]
        poles = self._hits(den, 0)
        Y = y[:j] / den
        v = 1.0 - Y * Y
        # Y == 0 gives v = 1, a welded entry whose sign is never read.
        sgn = np.sign(Y)
        w, hits_t = self._weld_generic(z[j + 1 :], c1, c2, branch)
        welded = []
        if np.fmax.reduce(v, initial=-np.inf) >= 0:
            welded = [
                i for i in np.flatnonzero(v >= 0).tolist()
                if i not in self.odd and i not in poles
            ]
        poles += [i for i in (hits_t + j + 1).tolist() if i not in self.odd]
        gen = [i for i in self.odd if not inf[i]]
        if gen:
            gen = np.array(gen)
            w_gen, hits_gen = self._weld_generic(z[gen], c1, c2, branch)
        y[:j] = sgn * np.sqrt(np.maximum(-v, 0.0))
        z[j + 1 :] = w
        if abs(c2) >= _TINY:
            Yi = 1.0 / c2
            vi = 1.0 - Yi * Yi
            for i in self.odd:
                if not inf[i]:
                    continue
                if vi >= 0:
                    z[i] = np.sqrt(vi)
                    axis[i] = False
                elif axis[i]:
                    y[i] = np.sign(Yi) * np.sqrt(-vi)
                else:
                    z[i] = 1j * (np.sign(Yi) * np.sqrt(-vi))
                inf[i] = False
        if len(gen):
            z[gen] = w_gen
            gen_poles = gen[hits_gen].tolist()
            inf[gen_poles] = True
            poles += gen_poles
        for i in welded:
            z[i] = np.sqrt(np.maximum(v[i], 0.0)) + 0j
        inf[poles] = True
        axis[poles + welded] = False
        z[j], inf[j] = 0.0, False
        # The tail is generic; the first step also takes entry k, the end
        # of the arc, off the axis: it sits at exactly 0 there, where the
        # axis and generic formulas agree.
        axis[j:] = False
        self.t = j
        self._settle(poles + welded)

    def imag(self, j):
        """z[j].imag of the state."""
        return self.y[j] if self.axis[j] and not self.inf[j] else self.z[j].imag

    def span(self, n):
        """_span of the state: the largest finite |z| among entries 1..n-1."""
        t = min(self.t, n)
        s = np.maximum(
            np.abs(self.y[1:t]).max(initial=0.0), np.abs(self.z[t:n]).max(initial=0.0)
        )
        for i in self.odd:
            if 0 < i < t and not self.inf[i]:
                s = np.maximum(s, abs(self.z[i]))
        return s

    def far_magnitude(self):
        """|z[0]|, infinite at infinity."""
        if self.inf[0]:
            return np.inf
        return abs(self.y[0]) if self.axis[0] else abs(self.z[0])

    def set_zero(self, j):
        """set_exact(j, 0.0): entry j, below t, joins the tail."""
        self.z[j], self.inf[j], self.axis[j] = 0.0, False, False
        self.t = j
        self._settle([j])

    def pin_far(self):
        """set_inf(0, on_axis=True)."""
        self.inf[0] = self.axis[0] = True
        self._settle([0])

    def chain(self):
        t = self.t
        on = self.axis[:t] & ~self.inf[:t]
        self.z[:t] = np.where(on, 1j * self.y[:t], self.z[:t])
        return BoundaryChain(self.z, self.inf, self.axis)


def _unzip(st, k, branch, scale=1.0):
    """Geodesic unzipping of entries 0..k: the initial root sends entry 0 to
    infinity and entry 1 to 0, then one geodesic step per entry 2..k sends
    it to 0. Each unzipped entry is set exactly to 0 and marked on-axis;
    branch picks the half-axis for points on the cut. Returns the mapped
    state."""
    st = _initial_root(st, complex(st.z[0]), complex(st.z[1]), branch)
    st.set_exact(1, 0.0, on_axis=True)
    st.set_inf(0, on_axis=True)
    zipper = _Zipper(st, 2)
    for j in range(2, k + 1):
        if zipper.inf[j]:
            raise NumericalBreakdown(f"arc point {j} escaped to infinity")
        xi = complex(zipper.z[j])
        r2 = abs(xi) ** 2
        if r2 < (1e-14 * max(scale, 1.0)) ** 2:
            raise ZeroXi("geodesic step through (near) zero")
        zipper.geodesic(j, xi.real / r2, xi.imag / r2, branch)
    return zipper.chain()


def intermediate_form(st, k, branch, n):
    """Half-way geodesic transform of a state whose first n entries are
    boundary points and markers, the rest passengers: points 0..k end up on
    one imaginary half-axis (upper for branch +1, lower for -1), index k at
    0, index 0 at infinity; the first n entries stay in the closed right
    half-plane.

    Returns the mapped BoundaryChain.
    """
    if not (1 <= k < n - 1):
        raise MisorderedArc(f"marker k={k} out of range for {n} points")
    st = _unzip(st, k, branch, scale=st.diameter(n))

    # Closing Mobius sends the image of point 0 (on the axis) to infinity.
    if not st.at_inf[0]:
        qy = st.z[0].imag
        if abs(qy) < _TINY:
            raise NumericalBreakdown("closing point collapsed to zero")
        st = _closing_mobius(st, qy)
        st.set_inf(0, on_axis=True)

    new_scale = st.diameter(n)
    head = st.head(n)
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
    """Even-odd ray casting; orientation independent. For an array p, a
    boolean array of its shape."""
    p = np.asarray(p)[..., None]
    x, y = p.real, p.imag
    px, py = poly.real, poly.imag
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    crosses = ((py > y) != (qy > y)) & (
        x < px + (y - py) * (qx - px) / (qy - py + ((qy - py) == 0))
    )
    inside = np.count_nonzero(crosses, axis=-1) % 2 == 1
    return inside if inside.ndim else bool(inside)


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


def _weld_pairs(st_a, st_b, k, na, nb):
    """Weld the axis pairs k-1 down to 1 of two intermediate forms (A on
    the upper half-axis, B on the lower), each pair to 0 in turn; na and nb
    count each side's boundary entries and markers. Returns the two mapped
    states."""
    za, zb = _Zipper(st_a, k), _Zipper(st_b, k)
    span = None
    for j in range(k - 1, 0, -1):
        a_val = za.imag(j)
        b_val = zb.imag(j)
        if span is None:
            span = max(za.span(na), zb.span(nb))
        if (
            not za.inf[j]
            and not zb.inf[j]
            and abs(a_val) < 1e-11 * span
            and abs(b_val) < 1e-11 * span
        ):
            # Crowded pair numerically indistinguishable from the previous
            # weld point; a Mobius through it would be pure noise. Weld it
            # at the same position instead.
            za.set_zero(j)
            zb.set_zero(j)
            span = None
            continue
        if (
            za.inf[j]
            or zb.inf[j]
            or not za.axis[j]
            or not zb.axis[j]
            or abs(a_val - b_val) < _TINY * max(span, 1.0)
        ):
            raise NumericalBreakdown(
                f"weld pair {j} is degenerate (a={a_val}, b={b_val})"
            )
        c1 = -2.0 * a_val * b_val / (a_val - b_val)
        c2 = (a_val + b_val) / (a_val - b_val)
        if c1 <= 0:
            # The alignment Mobius must keep the right half-plane; c1 <= 0
            # means the two pair points no longer bracket the weld tip on
            # the boundary circle.
            raise NumericalBreakdown(
                f"weld pair {j} lost its bracketing order (a={a_val}, b={b_val})"
            )
        za.weld(j, c1, c2, +1)
        zb.weld(j, c1, c2, -1)
        # Nothing but entry 0 changes before the next pair, so this is
        # also the next pair's span.
        span = max(za.span(na), zb.span(nb))
        # A far endpoint hugely beyond the rest of the picture carries no
        # usable digits (it came back from infinity through a near-zero
        # Mobius coefficient); pin it at infinity so noise cannot walk it
        # into a later welding window.
        if min(za.far_magnitude(), zb.far_magnitude()) > 1e8 * span:
            za.pin_far()
            zb.pin_far()
    return za.chain(), zb.chain()


def partial_weld(a_points, b_points, k, passengers_a=(), passengers_b=()):
    """Weld two boundary chains along their shared arc (indices 0..k).

    a_points must run counter-clockwise around polygon A and b_points
    clockwise around polygon B, with a_j and b_j the two copies of the same
    arc point. passengers_a and passengers_b are lists of arrays of further
    points of each side's plane that ride through the same conformal maps.

    Returns (state_a, state_b, moved_a, moved_b): the welded boundary states
    (each with its two normalization markers appended) and lists of the
    passengers' images. A passenger sent to infinity raises
    NumericalBreakdown.
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
    st_a, offsets_a = _pack_state(
        np.concatenate([a_points - ca, [0.0, 0.0]]),
        [np.asarray(p, dtype=np.complex128) - ca for p in passengers_a],
    )
    st_b, offsets_b = _pack_state(
        np.concatenate([b_points - cb, [0.0, 0.0]]),
        [np.asarray(p, dtype=np.complex128) - cb for p in passengers_b],
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

    st_a, st_b = _weld_pairs(st_a, st_b, k, m + 2, n + 2)

    # The far ends started at infinity together and went through identical
    # axis arithmetic, so they coincide; the closing map reopens the welded
    # picture at that shared boundary point, sending it to infinity.
    if st_a.at_inf[0] and st_b.at_inf[0]:
        q = None
    elif not st_a.at_inf[0] and not st_b.at_inf[0]:
        qa = complex(st_a.z[0])
        qb = complex(st_b.z[0])
        span = max(_span(st_a, m + 2), _span(st_b, n + 2))
        if abs(qa - qb) > AXIS_RTOL * max(span, abs(qa)):
            raise NumericalBreakdown(
                f"far ends of the weld arc disagree: {qa} vs {qb}"
            )
        q = 0.5 * (qa + qb)
    else:
        raise NumericalBreakdown("far ends of the weld arc are inconsistent")
    st_a = _square_closing(st_a, q)
    st_b = _square_closing(st_b, q)
    if q is not None:
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
    st_a = _mobius(st_a, *norm)
    st_b = _mobius(st_b, *norm)
    if st_a.at_inf[0] or st_b.at_inf[0]:
        raise NumericalBreakdown("weld arc endpoint remained at infinity")

    head_a = st_a.head(m + 2)
    head_b = st_b.head(n + 2)
    _check_weld(head_a, head_b, k)
    return (
        head_a, head_b,
        _unpack(st_a, m + 2, offsets_a)[1], _unpack(st_b, n + 2, offsets_b)[1],
    )


def _three_point_mobius(p1, p2, p3):
    """Coefficients (a, b, c, d) of the Mobius sending (p1, p2, p3) to
    (-1, 1, infinity); p3 None means inf."""
    if p3 is None:
        s = 2.0 / (p2 - p1)
        return s, -s * p1 - 1.0, 0.0, 1.0
    kk = (p2 - p3) / (p2 - p1)
    return 2.0 * kk - 1.0, p3 - 2.0 * kk * p1, 1.0, -p3


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
    if point_in_polygon(np.asarray(pts), polygon).any():
        raise PathInsidePolygon(
            "auxiliary segment crosses the submesh; a detour path is required"
        )
    return pts


def _chord_clear(points, i0, i1):
    """True when the open segment points[i0]..points[i1] properly crosses no
    polygon edge. Sample-point checks alone miss corner clipping."""
    p = points[i0]
    q = points[i1]
    a = points
    b = np.roll(points, -1)
    d = q - p
    e = b - a
    c1 = d.real * (a - p).imag - d.imag * (a - p).real
    c2 = d.real * (b - p).imag - d.imag * (b - p).real
    c3 = e.real * (p - a).imag - e.imag * (p - a).real
    c4 = e.real * (q - a).imag - e.imag * (q - a).real
    crossing = (c1 * c2 < 0) & (c3 * c4 < 0)
    return not bool(np.any(crossing))


def _detour_path(points, i0, i1, count):
    """Bridge path from points[i0] to points[i1] hugging the stretch of the
    polygon between them from the outside.

    For a counter-clockwise polygon the exterior lies to the right of travel
    (left for clockwise); each rim sample is pushed that way by a fraction of
    the local spacing, and the offset polyline is resampled to `count`
    interior points.
    """
    outward = -1j if _polygon_area(points) > 0 else 1j
    rim = points[i0 : i1 + 1]
    seg = np.diff(rim)
    dirs = np.empty(len(rim), dtype=np.complex128)
    dirs[0] = seg[0]
    dirs[-1] = seg[-1]
    dirs[1:-1] = seg[:-1] + seg[1:]
    mags = np.abs(dirs)
    if np.any(mags == 0):
        raise PathInsidePolygon("degenerate rim share; cannot build a detour")
    dirs /= mags
    spacing = np.empty(len(rim))
    spacing[0] = np.abs(seg[0])
    spacing[-1] = np.abs(seg[-1])
    spacing[1:-1] = 0.5 * (np.abs(seg[:-1]) + np.abs(seg[1:]))
    for eps in (0.4, 0.2, 0.1, 0.05):
        off = rim + outward * dirs * (eps * spacing)
        arc = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(off)))])
        total = arc[-1]
        ts = total * np.arange(1, count + 1) / (count + 1)
        re = np.interp(ts, arc, off.real)
        im = np.interp(ts, arc, off.imag)
        path = re + 1j * im
        if not point_in_polygon(path, points).any():
            return path
    raise PathInsidePolygon("no clear detour outside the hole rim")


def multiconnected_weld(a_points, b_points, r, s_a, t_a, s_b, t_b,
                        passengers_a=(), passengers_b=()):
    """Weld along two arcs: indices 0..r and s..t on each chain, where the
    gap r..s is that chain's share of an inner hole rim (the two shares may
    have different lengths).  Auxiliary points bridge the gap so the
    single-arc welding algorithm applies; the bridged region is discarded
    afterwards, leaving a hole bounded by the images of both rim arcs.

    The bridge is the straight chord from r to s when it is clear of both
    polygons, and otherwise a detour just outside each rim share.

    As in partial_weld, a_points must run counter-clockwise and b_points
    clockwise. Returns (welded a, welded b, moved_a, moved_b): the welded
    chains in the original indexing and the passengers' images.
    """
    a_points = np.asarray(a_points, dtype=np.complex128)
    b_points = np.asarray(b_points, dtype=np.complex128)
    if not (0 < r < s_a <= t_a < len(a_points)):
        raise MisorderedArc("need markers 0 < r < s <= t inside chain A")
    if not (0 < r < s_b <= t_b < len(b_points)):
        raise MisorderedArc("need markers 0 < r < s <= t inside chain B")
    if t_a - s_a != t_b - s_b:
        raise MisorderedArc("second weld arcs have different lengths")
    if _polygon_area(a_points) <= 0:
        raise MisorderedArc("chain A must be counter-clockwise")
    if _polygon_area(b_points) >= 0:
        raise MisorderedArc("chain B must be clockwise")

    aux_a = aux_b = None
    if _chord_clear(a_points, r, s_a) and _chord_clear(b_points, r, s_b):
        segs = [np.abs(np.diff(a_points[: r + 1])), np.abs(np.diff(b_points[: r + 1]))]
        if t_a > s_a:
            segs.append(np.abs(np.diff(a_points[s_a : t_a + 1])))
            segs.append(np.abs(np.diff(b_points[s_b : t_b + 1])))
        h = np.mean(np.concatenate(segs))
        gap = 0.5 * (abs(a_points[r] - a_points[s_a]) + abs(b_points[r] - b_points[s_b]))
        count = max(1, int(round(gap / max(h, 1e-300))) - 1)
        try:
            # The path formula lists points from the a_s end; the chain
            # needs them running from a_r to a_s.
            aux_a = auxiliary_path(a_points[r], a_points[s_a], count, a_points)[::-1]
            aux_b = auxiliary_path(b_points[r], b_points[s_b], count, b_points)[::-1]
        except PathInsidePolygon:
            aux_a = None
    if aux_a is None:
        # The straight bridge clips the polygon (jagged hole mouths).
        count = max(1, (s_a - r + s_b - r) // 2 - 1)
        aux_a = _detour_path(a_points, r, s_a, count)
        aux_b = _detour_path(b_points, r, s_b, count)

    aug_a = np.concatenate([a_points[: r + 1], aux_a, a_points[s_a:]])
    aug_b = np.concatenate([b_points[: r + 1], aux_b, b_points[s_b:]])
    k_weld = r + count + 1 + (t_a - s_a)

    # The rim points (excluded from the augmented polygon) ride as the first
    # passengers; the original indexing is stitched back together after.
    st_a, st_b, moved_a, moved_b = partial_weld(
        aug_a, aug_b, k_weld,
        passengers_a=[a_points[r + 1 : s_a], *passengers_a],
        passengers_b=[b_points[r + 1 : s_b], *passengers_b],
    )
    out_a = np.concatenate([st_a.z[: r + 1], moved_a[0], st_a.z[r + 1 + count :][: len(a_points) - s_a]])
    out_b = np.concatenate([st_b.z[: r + 1], moved_b[0], st_b.z[r + 1 + count :][: len(b_points) - s_b]])
    return out_a, out_b, moved_a[1:], moved_b[1:]
