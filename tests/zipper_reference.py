"""The per-primitive zipper loops, kept as the reference for the kernel in
weldmap.welding.

Each geodesic or weld step here is one masked pass over the whole state
(GeodesicStep / WeldStep, each a Primitive), the way the package computed
them before its loops ran on whole slices of a fixed state layout. `unzip` and
`weld_pairs` take the same arguments and return the same states as
weldmap.welding._unzip and weldmap.welding._weld_pairs, so a test can put
them in place of the kernel and compare the outputs bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from weldmap.errors import NumericalBreakdown, ZeroXi
from weldmap.welding import _TINY, BoundaryChain, _initial_root, _span


class Primitive:
    """A conformal map acting on a BoundaryChain state."""

    def apply_state(self, st):
        z, at_inf, on_axis = self._apply(st.z, st.at_inf, st.on_axis)
        return BoundaryChain(z=z, at_inf=at_inf, on_axis=on_axis)

    def _apply(self, z, at_inf, on_axis):
        raise NotImplementedError


def sqrt_branch(w, branch):
    """Principal square root with the negative-real cut resolved to branch*i."""
    w = np.asarray(w, dtype=np.complex128)
    s = np.sqrt(w)
    cut = (w.imag == 0) & (w.real < 0)
    if np.any(cut):
        s = np.where(cut, branch * 1j * np.sqrt(-w.real + 0j), s)
    return s


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


def geodesic_basic(xi, branch, scale=1.0):
    """Primitive g(z) = sqrt(L_xi(z)^2 - 1) with g(xi) = 0."""
    xi = complex(xi)
    r2 = abs(xi) ** 2
    if r2 < (1e-14 * max(scale, 1.0)) ** 2:
        raise ZeroXi("geodesic step through (near) zero")
    return GeodesicStep(re=xi.real / r2, im=xi.imag / r2, branch=branch)


def unzip(st, k, branch, scale=1.0, paths=None):
    """weldmap.welding._unzip, one GeodesicStep pass per arc point. The
    rare paths a step takes are added by name to the set `paths`."""
    paths = set() if paths is None else paths
    st = _initial_root(st, complex(st.z[0]), complex(st.z[1]), branch)
    if st.at_inf[1:].any():  # entry 0 is the root's own pole
        paths.add("unzip: entry at infinity after the initial root")
    st.set_exact(1, 0.0, on_axis=True)
    st.set_inf(0, on_axis=True)
    for j in range(2, k + 1):
        if st.at_inf[j]:
            raise NumericalBreakdown(f"arc point {j} escaped to infinity")
        before = st
        st = geodesic_basic(st.z[j], branch, scale=scale).apply_state(st)
        _record(paths, "unzip", before, st, j)
        st.set_exact(j, 0.0, on_axis=True)
    return st


def _record(paths, loop, before, after, j):
    """Add to `paths` the rare paths of one step, read from the states
    before and after it; entry j is the step's own point."""
    if (before.at_inf & before.on_axis)[1:].any():
        paths.add(f"{loop}: axis entry at infinity")
    if (before.at_inf & ~before.on_axis).any():
        paths.add(f"{loop}: generic entry at infinity")
    hit = after.at_inf & ~before.at_inf
    hit[j] = False
    if (hit & before.on_axis).any():
        paths.add(f"{loop}: axis entry hits a pole")
    if (hit & ~before.on_axis).any():
        paths.add(f"{loop}: generic entry hits a pole")
    left = before.on_axis & ~after.on_axis & ~after.at_inf
    left[j:] = False
    if left[1:].any():
        paths.add(f"{loop}: axis entry welded out of turn")
    if left[0]:
        paths.add(f"{loop}: far end welded off the axis")
    if not before.on_axis[0]:
        paths.add(f"{loop}: far end off the axis")


def weld_pairs(st_a, st_b, k, na, nb, paths=None):
    """weldmap.welding._weld_pairs, one WeldStep pass per side and pair. The
    rare paths a step takes are added by name to the set `paths`."""
    paths = set() if paths is None else paths
    for j in range(k - 1, 0, -1):
        a_val = st_a.z[j].imag
        b_val = st_b.z[j].imag
        span_pre = max(_span(st_a, na), _span(st_b, nb))
        if (
            not st_a.at_inf[j]
            and not st_b.at_inf[j]
            and abs(a_val) < 1e-11 * span_pre
            and abs(b_val) < 1e-11 * span_pre
        ):
            paths.add("weld: crowded pair")
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
            raise NumericalBreakdown(
                f"weld pair {j} lost its bracketing order (a={a_val}, b={b_val})"
            )
        before_a, before_b = st_a, st_b
        st_a = wa.apply_state(st_a)
        st_b = wb.apply_state(st_b)
        _record(paths, "weld", before_a, st_a, j)
        _record(paths, "weld", before_b, st_b, j)
        st_a.set_exact(j, 0.0)
        st_b.set_exact(j, 0.0)
        span = max(_span(st_a, na), _span(st_b, nb))
        mag_a = np.inf if st_a.at_inf[0] else abs(st_a.z[0])
        mag_b = np.inf if st_b.at_inf[0] else abs(st_b.z[0])
        if min(mag_a, mag_b) > 1e8 * span:
            if not (st_a.at_inf[0] and st_b.at_inf[0]):
                paths.add("weld: far end pinned at infinity")
            st_a.set_inf(0, on_axis=True)
            st_b.set_inf(0, on_axis=True)
    return st_a, st_b
