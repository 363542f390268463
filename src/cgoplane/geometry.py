"""Piecewise C^2 discontinuity curves as graph segments, and the domains they bound.

A curve piece is the graph of a scalar function over one coordinate axis:
orientation "z1" means z2 = f(z1) on the parameter interval, orientation
"z2" means z1 = f(z2).  A closed Lipschitz boundary is an ordered chain of
such pieces; corners between pieces are allowed (the rhombus has four).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

_ENDPOINT_TOL = 1e-10
_CONSISTENCY_TOL = 1e-4
# sample counts of the setup-time checks and of the distance polyline
_CONSISTENCY_PROBES = 33     # interior probes per segment, derivative check
_SIMPLE_PTS_PER_SEG = 64     # polyline points per segment, self-intersection check
_DISTANCE_PTS_PER_SEG = 512  # polyline points per segment, distance_to
_PREDICATE_N = 24            # lattice points per side, inside-predicate check
_C2_PROBES = 512             # probes per segment, curve_distance_c2
_EVEN_ODD_CHUNK = 1 << 15    # query points sorted at once, _even_odd_inside


@dataclass(frozen=True)
class GraphSegment:
    """One C^2 curve piece given as a coordinate graph with derivatives.

    f, df, d2f are vectorized callables on the parameter interval.  ``reverse``
    records the traversal direction when the segment sits in a boundary chain.
    """

    orientation: str
    interval: tuple[float, float]
    f: Callable
    df: Callable
    d2f: Callable
    reverse: bool = False

    def __post_init__(self):
        if self.orientation not in ("z1", "z2"):
            raise ValueError("orientation must be 'z1' or 'z2'")
        a, b = self.interval
        if not b > a:
            raise ValueError("interval must have positive length")
        object.__setattr__(self, "interval", (float(a), float(b)))
        self._check_consistency()

    def _check_consistency(self):
        a, b = self.interval
        span = b - a
        # probe strictly inside so one-sided effects do not pollute the check
        tau = a + span * (np.arange(1, _CONSISTENCY_PROBES + 1) / (_CONSISTENCY_PROBES + 1))
        delta = 1e-5 * span
        for fn, dfn, name in ((self.f, self.df, "df"), (self.df, self.d2f, "d2f")):
            fd = (np.asarray(fn(tau + delta)) - np.asarray(fn(tau - delta))) / (2 * delta)
            claimed = np.asarray(dfn(tau))
            scale = max(float(np.max(np.abs(claimed))), 1.0)
            err = float(np.max(np.abs(fd - claimed))) / scale
            if err > _CONSISTENCY_TOL:
                raise ValueError(
                    f"segment derivative '{name}' inconsistent with finite differences "
                    f"(relative error {err:.2e} > {_CONSISTENCY_TOL:g})"
                )

    @classmethod
    def from_polynomial(cls, orientation, interval, coeffs, reverse=False):
        """Graph f(t) = sum_k coeffs[k] t^k."""
        c = np.asarray(coeffs, dtype=float)
        d1 = np.polynomial.polynomial.polyder(c) if len(c) > 1 else np.zeros(1)
        d2 = np.polynomial.polynomial.polyder(d1) if len(d1) > 1 else np.zeros(1)

        def make(cc):
            return lambda t: np.polynomial.polynomial.polyval(np.asarray(t, float), cc)

        return cls(orientation, tuple(interval), make(c), make(d1), make(d2),
                   reverse=reverse)

    @classmethod
    def from_spline(cls, orientation, knots, values, end_derivs, reverse=False):
        """Clamped cubic spline through (knots, values) with endpoint first derivatives."""
        knots = np.asarray(knots, float)
        sp = CubicSpline(knots, np.asarray(values, float),
                         bc_type=((1, float(end_derivs[0])), (1, float(end_derivs[1]))))
        return cls(orientation, (float(knots[0]), float(knots[-1])),
                   sp, sp.derivative(1), sp.derivative(2), reverse=reverse)

    def frame(self, a, b):
        """Swap plane coordinates (z1, z2) into the (parameter, value) frame of the
        graph, and back: (a, b) for a z1-graph, (b, a) for a z2-graph."""
        return (a, b) if self.orientation == "z1" else (b, a)

    def point(self, tau):
        """Plane point(s) at parameter tau."""
        tau = np.asarray(tau, float)
        val = np.asarray(self.f(tau), float)
        return np.stack(np.broadcast_arrays(*self.frame(tau, val)), axis=-1)

    def start_end(self):
        a, b = self.interval
        pa, pb = self.point(a), self.point(b)
        return (pb, pa) if self.reverse else (pa, pb)

    def params(self, n):
        a, b = self.interval
        return np.linspace(a, b, n)


class PiecewiseBoundary:
    """Closed chain of graph segments forming a simple Lipschitz curve."""

    def __init__(self, segments: Sequence[GraphSegment]):
        if not segments:
            raise ValueError("boundary needs at least one segment")
        self.segments = list(segments)
        self._check_chain()
        self._check_simple()

    def _check_chain(self):
        k = len(self.segments)
        for i, seg in enumerate(self.segments):
            _, end = seg.start_end()
            nxt, _ = self.segments[(i + 1) % k].start_end()
            if float(np.max(np.abs(end - nxt))) > _ENDPOINT_TOL:
                raise ValueError(
                    f"segments {i} and {(i + 1) % k} do not chain: endpoint gap "
                    f"{float(np.max(np.abs(end - nxt))):.2e}"
                )

    def polyline(self, n_per_seg: int = 256) -> np.ndarray:
        """Dense (N, 2) polyline traversing the chain in order."""
        pts = []
        for seg in self.segments:
            tau = seg.params(n_per_seg)
            if seg.reverse:
                tau = tau[::-1]
            p = seg.point(tau)
            pts.append(p[:-1])  # drop endpoint, next segment re-adds it
        return np.concatenate(pts, axis=0)

    def _check_simple(self):
        pts = self.polyline(_SIMPLE_PTS_PER_SEG)
        a = pts
        b = np.roll(pts, -1, axis=0)
        n = len(pts)
        d = b - a
        # probe lattice check: every pair of non-adjacent polyline edges
        for i in range(n):
            j = np.arange(i + 2, n if i > 0 else n - 1)
            if len(j) == 0:
                continue
            r = d[i]
            s = d[j]
            qp = a[j] - a[i]
            denom = r[0] * s[:, 1] - r[1] * s[:, 0]
            num_t = qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]
            num_u = qp[:, 0] * r[1] - qp[:, 1] * r[0]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = num_t / denom
                u = num_u / denom
            hit = (np.abs(denom) > 1e-14) & (t > 1e-9) & (t < 1 - 1e-9) & \
                  (u > 1e-9) & (u < 1 - 1e-9)
            if np.any(hit):
                raise ValueError("boundary polyline self-intersects; curve must be simple")

    def distance_to(self, points) -> np.ndarray:
        """Distance from query points (..., 2) to the densified curve."""
        pts = np.atleast_2d(np.asarray(points, float))
        poly = self.polyline(_DISTANCE_PTS_PER_SEG)
        d = np.sqrt(
            (pts[:, None, 0] - poly[None, :, 0]) ** 2
            + (pts[:, None, 1] - poly[None, :, 1]) ** 2
        )
        return d.min(axis=1)


def _even_odd_inside(poly: np.ndarray, q1, q2):
    """Even-odd crossing test of query mesh against a closed polyline.

    Only points in the polyline's bounding box are tested.  A rightward ray
    from any other point crosses the closed polyline an even number of times,
    or never, so the point is outside.  The box is widened along x by the few
    ulps that rounding can move a computed crossing past an edge's endpoints,
    which keeps the result bit for bit that of testing every point.

    A horizontal ray meets only the edges whose half-open y-interval
    [min, max) holds its y (Hormann & Agathos 2001), so the points are
    indexed by y, not tested against every edge.  In chunks of at most
    _EVEN_ODD_CHUNK points, the box points are sorted by y once; searchsorted
    then gives each non-horizontal edge the run of sorted points in its
    interval.  One vectorized pass evaluates the crossing expression on those
    (edge, point) pairs alone, with the operands in the order of the
    every-edge loop, and bincount gives each point's parity.  The cost is a
    sort of the points plus one evaluation per pair: about two pairs per
    point for a convex curve, against one per edge (510 for a 256-point
    lens polyline) when every point meets every edge.
    """
    x = np.asarray(q1, float)
    y = np.asarray(q2, float)
    shape = np.broadcast(x, y).shape
    x = np.broadcast_to(x, shape).reshape(-1)
    y = np.broadcast_to(y, shape).reshape(-1)
    px = poly[:, 0]
    py = poly[:, 1]
    slack = 8 * np.finfo(float).eps * np.max(np.abs(px))
    box = ((y >= py.min()) & (y <= py.max())
           & (x >= px.min() - slack) & (x <= px.max() + slack))
    nx = np.roll(px, -1)
    ny = np.roll(py, -1)
    edge = py != ny
    x0, y0 = px[edge], py[edge]
    dx, dy = nx[edge] - x0, ny[edge] - y0
    lo_y, hi_y = np.minimum(y0, ny[edge]), np.maximum(y0, ny[edge])
    idx = np.flatnonzero(box)
    hit = np.zeros(idx.shape, dtype=bool)
    for start in range(0, idx.size, _EVEN_ODD_CHUNK):
        chunk = idx[start:start + _EVEN_ODD_CHUNK]
        order = np.argsort(y[chunk], kind="stable")
        xs, ys = x[chunk][order], y[chunk][order]
        # the sorted points in [lo_y, hi_y) of each edge: (y0 > y) != (y1 > y)
        first = np.searchsorted(ys, lo_y, side="left")
        counts = np.searchsorted(ys, hi_y, side="left") - first
        e = np.repeat(np.arange(counts.size), counts)
        pt = np.arange(e.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
        cross = xs[pt] < dx[e] * (ys[pt] - y0[e]) / dy[e] + x0[e]
        odd = np.bincount(pt[cross], minlength=chunk.size) & 1
        hit[start + order] = odd.astype(bool)
    inside = np.zeros(x.shape, dtype=bool)
    inside[idx] = hit
    return inside.reshape(shape)


class SubDomain:
    """Bounded domain with a piecewise-C^2 boundary and a membership predicate.

    ``inside`` takes (Z1, Z2) meshes and returns booleans.  When omitted, an
    even-odd crossing test against a densified boundary polyline is used;
    exact predicates (disk, rhombus) give sharper rasterization near the
    boundary.
    """

    def __init__(self, boundary: PiecewiseBoundary, inside: Callable | None = None):
        self.boundary = boundary
        self._poly = boundary.polyline(256)
        if inside is None:
            poly = self._poly
            inside = lambda q1, q2: _even_odd_inside(poly, q1, q2)  # noqa: E731
        self.inside = inside
        self._check_predicate()

    def bbox(self):
        p = self._poly
        return (p[:, 0].min(), p[:, 0].max(), p[:, 1].min(), p[:, 1].max())

    def _check_predicate(self):
        """Predicate must agree with the winding test away from the curve."""
        x0, x1, y0, y1 = self.bbox()
        pad = 0.05 * max(x1 - x0, y1 - y0)
        q1, q2 = np.meshgrid(np.linspace(x0 - pad, x1 + pad, _PREDICATE_N),
                             np.linspace(y0 - pad, y1 + pad, _PREDICATE_N))
        ref = _even_odd_inside(self._poly, q1, q2)
        got = np.asarray(self.inside(q1, q2), bool)
        pts = np.stack([q1.ravel(), q2.ravel()], axis=-1)
        dist = self.boundary.distance_to(pts).reshape(q1.shape)
        # polyline resolution sets how close to the curve the test is meaningful
        safe = dist > 0.02 * max(x1 - x0, y1 - y0)
        if np.any(ref[safe] != got[safe]):
            raise ValueError("inside predicate disagrees with boundary winding test")


def make_rhombus() -> SubDomain:
    """The rhombus with vertices (0,0), (1,1), (2,0), (1,-1), chained l1..l4."""
    l1 = GraphSegment.from_polynomial("z1", (0.0, 1.0), [0.0, 1.0])
    l2 = GraphSegment.from_polynomial("z1", (1.0, 2.0), [2.0, -1.0])
    l3 = GraphSegment.from_polynomial("z1", (1.0, 2.0), [-2.0, 1.0], reverse=True)
    l4 = GraphSegment.from_polynomial("z1", (0.0, 1.0), [0.0, -1.0], reverse=True)
    boundary = PiecewiseBoundary([l1, l2, l3, l4])
    inside = lambda q1, q2: np.abs(np.asarray(q1) - 1.0) + np.abs(np.asarray(q2)) <= 1.0  # noqa: E731
    return SubDomain(boundary, inside=inside)


def make_disk(center=(0.0, 0.0), radius=1.0) -> SubDomain:
    """Disk bounded by four circular arcs, each a graph with |f'| <= 1."""
    cx, cy = float(center[0]), float(center[1])
    a = float(radius)
    r = a / math.sqrt(2.0)

    def arc(orientation, center_t, center_f, sign, reverse=False):
        # the graph f(t) = center_f + sign * sqrt(a^2 - (t - center_t)^2)
        u = lambda t: np.asarray(t, float) - center_t  # noqa: E731
        return GraphSegment(
            orientation, (center_t - r, center_t + r),
            lambda t: center_f + sign * np.sqrt(a * a - u(t) ** 2),
            lambda t: -sign * u(t) / np.sqrt(a * a - u(t) ** 2),
            lambda t: -sign * a * a / np.power(a * a - u(t) ** 2, 1.5),
            reverse=reverse)

    right = arc("z2", cy, cx, +1)
    top = arc("z1", cx, cy, +1, reverse=True)
    left = arc("z2", cy, cx, -1, reverse=True)
    bottom = arc("z1", cx, cy, -1)
    boundary = PiecewiseBoundary([right, top, left, bottom])
    inside = lambda q1, q2: (np.asarray(q1) - cx) ** 2 + (np.asarray(q2) - cy) ** 2 <= a * a  # noqa: E731
    return SubDomain(boundary, inside=inside)


def curve_distance_c2(c1: Sequence[GraphSegment], c2: Sequence[GraphSegment]) -> float:
    """C^2 distance over a declared common cover, or inf when covers differ.

    The covers are two segment sequences (a boundary's ``segments``, or an
    open chain) with the same count, orientations and parameter intervals;
    the result is the max over segments of the sup-distance of f, f', f'' on
    a probe lattice.  This restricted value upper-bounds the cover infimum.
    """
    if len(c1) != len(c2):
        return math.inf
    worst = 0.0
    for s1, s2 in zip(c1, c2):
        if s1.orientation != s2.orientation:
            return math.inf
        if (abs(s1.interval[0] - s2.interval[0]) > 1e-9
                or abs(s1.interval[1] - s2.interval[1]) > 1e-9):
            return math.inf
        tau = s1.params(_C2_PROBES)
        for f1, f2 in ((s1.f, s2.f), (s1.df, s2.df), (s1.d2f, s2.d2f)):
            worst = max(worst, float(np.max(np.abs(np.asarray(f1(tau)) - np.asarray(f2(tau))))))
    return worst
