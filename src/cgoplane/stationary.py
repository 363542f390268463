"""Stationary-point machinery for the hyperbolic phase restricted to curve graphs.

Everything here works in the segment's (parameter, value) frame
(``GraphSegment.frame``), where every piece is a graph v = f(t).  With
(u, v) the frame coordinates of x, the restricted phase of a graph z2 = f(z1)
is g(t) = (u - t)^2 - (v - f(t))^2; a graph z1 = f(z2) gives the negative of
that, since swapping the axes negates the phase.  Derivatives come from the
chain rule using the segment's f', f''.  A stationary point is *degenerate*
when |g''| falls below DEGENERACY_THRESHOLD; a whole segment can also be
flat (g' == 0 identically), which is a distinguished outcome rather than an
error: it is exactly the failure mode of the diagonal counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import brentq

from .errors import PerturbationTooLarge, ResolutionExceeded
from .geometry import GraphSegment, SubDomain

DEGENERACY_THRESHOLD = 0.05
_LATTICE = 2048         # probe lattice on a segment for sign changes and near-tangency
_ROOT_TOL = 1e-10       # |g'| at or below this is a stationary point (or a flat segment)
_PTS_PER_OSC = 20       # quadrature points per oscillation of e^{i lam g}
_MAX_QUAD_PTS = 10**7


@dataclass(frozen=True)
class FunctionBundle:
    """Scalar function on an interval with first (and optionally second) derivative."""

    f: Callable
    df: Callable
    d2f: Callable | None
    interval: tuple[float, float]

    def lattice(self, n=_LATTICE):
        return np.linspace(self.interval[0], self.interval[1], n)


@dataclass(frozen=True)
class StationaryPoint:
    param: float
    location: tuple[float, float]
    g2: float
    order: object  # 1 or "degenerate"


@dataclass(frozen=True)
class StationaryResult:
    points: tuple
    whole_segment_flat: bool


@dataclass(frozen=True)
class DegenerateLocus:
    """Image of the degenerate-stationarity map G plus tangent-family data.

    ``points`` are x-locations where the restricted phase acquires a
    stationary point of order > 1; ``source_params`` are the generating
    parameters.  Samples where |f''| <= delta fall to the tangent-line
    family branch and are recorded as (param, slope of the line) pairs.
    """

    points: np.ndarray
    source_params: np.ndarray
    tangent_params: np.ndarray
    tangent_slopes: np.ndarray


def phase_on_curve(x, seg: GraphSegment) -> FunctionBundle:
    """Bundle (g, g', g'') of the restricted phase along the segment."""
    u, v = seg.frame(float(x[0]), float(x[1]))
    sign = 1.0 if seg.orientation == "z1" else -1.0
    f, df, d2f = seg.f, seg.df, seg.d2f

    def g(t):
        t = np.asarray(t, float)
        return sign * ((u - t) ** 2 - (v - f(t)) ** 2)

    def g1(t):
        t = np.asarray(t, float)
        return sign * (-2.0 * (u - t) + 2.0 * (v - f(t)) * df(t))

    def g2(t):
        t = np.asarray(t, float)
        return sign * (2.0 - 2.0 * df(t) ** 2 + 2.0 * (v - f(t)) * d2f(t))

    return FunctionBundle(g, g1, g2, seg.interval)


def _lattice_roots(fun, t, zero_tol: float, relative_merge: bool):
    """Sorted roots of fun: one per sign change on the lattice t (Brent's method),
    plus lattice points with |fun| <= zero_tol, merged when within 1e-9 (times
    max(1, |r|) if ``relative_merge``), as a lattice zero also borders a sign change."""
    v = np.asarray(fun(t), float)
    roots = [brentq(fun, t[k], t[k + 1], xtol=1e-15, rtol=4 * np.finfo(float).eps)
             for k in np.flatnonzero(v[:-1] * v[1:] < 0)]
    roots += [float(t[k]) for k in np.flatnonzero(np.abs(v) <= zero_tol)]
    merged = []
    for r in sorted(roots):
        scale = max(1.0, abs(r)) if relative_merge else 1.0
        if not merged or abs(r - merged[-1]) > 1e-9 * scale:
            merged.append(r)
    return merged


def find_stationary(x, seg: GraphSegment) -> StationaryResult:
    """All roots of g' on the segment, classified by |g''| against DEGENERACY_THRESHOLD.

    Returns the distinguished whole-segment-flat flag when g' vanishes on the
    entire probe lattice (the diagonal-side failure mode).
    """
    bundle = phase_on_curve(x, seg)
    t = bundle.lattice()
    d = np.asarray(bundle.df(t))
    if float(np.max(np.abs(d))) <= _ROOT_TOL:
        return StationaryResult(points=(), whole_segment_flat=True)

    pts = []
    for r in _lattice_roots(bundle.df, t, _ROOT_TOL, relative_merge=True):
        if abs(float(bundle.df(r))) > 1e3 * _ROOT_TOL:
            continue
        g2v = float(bundle.d2f(r))
        loc = seg.point(r)
        order = 1 if abs(g2v) >= DEGENERACY_THRESHOLD else "degenerate"
        pts.append(StationaryPoint(param=float(r), location=(float(loc[0]), float(loc[1])),
                                   g2=g2v, order=order))
    return StationaryResult(points=tuple(pts), whole_segment_flat=False)


def degenerate_locus(seg: GraphSegment, n_samples: int = 2048,
                     delta: float = 1e-6) -> DegenerateLocus:
    """Points x where the restricted phase has an order->1 stationary point.

    Where |f''| > delta the stationarity system is solved in closed form by
    the map G; where |f''| <= delta the candidate x-set degenerates to a
    family of tangent lines, recorded as (parameter, line slope) pairs.
    """
    a, b = seg.interval
    span = b - a
    t = np.linspace(a + 1e-9 * span, b - 1e-9 * span, n_samples)
    f = np.asarray(seg.f(t), float)
    d1 = np.asarray(seg.df(t), float)
    d2 = np.asarray(seg.d2f(t), float)
    curved = np.abs(d2) > delta

    tc, fc, d1c, d2c = t[curved], f[curved], d1[curved], d2[curved]
    points = np.stack(seg.frame(tc + (d1c**3 - d1c) / d2c, fc + (d1c**2 - 1.0) / d2c),
                      axis=-1)

    tf = t[~curved]
    d1f = d1[~curved]
    with np.errstate(divide="ignore", over="ignore"):
        slopes = np.where(d1f != 0, 1.0 / d1f, np.inf)
    return DegenerateLocus(points=points, source_params=tc,
                           tangent_params=tf, tangent_slopes=slopes)


def stationarity_residuals(locus: DegenerateLocus, seg: GraphSegment):
    """|g'| and |g''| of the restricted phase at each emitted locus point."""
    r1, r2 = [], []
    for xpt, tau in zip(locus.points, locus.source_params):
        bundle = phase_on_curve(xpt, seg)
        r1.append(abs(float(bundle.df(tau))))
        r2.append(abs(float(bundle.d2f(tau))))
    return np.asarray(r1), np.asarray(r2)


def tangent_set_area(seg: GraphSegment, slope: float, eps: float, omega: SubDomain,
                     n_mc: int = 10**6, band: float = 0.01, seed: int = 0) -> float:
    """Monte Carlo area of the band-thickened union of near-tangent lines.

    Lines through (t, f(t)) with the given slope in the segment's frame, over
    parameters where |f'(t) - slope| < eps; membership is point-to-line-family
    distance below ``band``.
    """
    a, b = seg.interval
    t = np.linspace(a, b, _LATTICE)
    d1 = np.asarray(seg.df(t), float)
    sel = np.abs(d1 - slope) < eps
    if not np.any(sel):
        return 0.0
    tsel = t[sel]
    # every line has the given slope, so the nearest is the one whose intercept
    # f(t) - slope*t is nearest the point's v - slope*u: two neighbours in sorted order
    icpt = np.sort(np.asarray(seg.f(tsel), float) - slope * tsel)

    x0, x1, y0, y1 = omega.bbox()
    rng = np.random.default_rng(seed)
    box_area = (x1 - x0) * (y1 - y0)
    denom = np.sqrt(1.0 + slope * slope)

    hits = 0
    total = 0
    chunk = 65536
    remaining = n_mc
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        p1 = rng.uniform(x0, x1, m)
        p2 = rng.uniform(y0, y1, m)
        in_om = np.asarray(omega.inside(p1, p2), bool)
        total += m
        if not in_om.any():
            continue
        qt, qf = seg.frame(p1[in_om], p2[in_om])
        c = qf - slope * qt
        j = np.searchsorted(icpt, c)
        near = np.minimum(np.abs(c - icpt[np.maximum(j - 1, 0)]),
                          np.abs(c - icpt[np.minimum(j, len(icpt) - 1)]))
        dist = near / denom
        hits += int(np.count_nonzero(dist < band))
    return box_area * hits / total


def osc_integral_1d(bundle: FunctionBundle, h: Callable, lam: float) -> complex:
    """Composite quadrature of int e^{i lam g} h with >= _PTS_PER_OSC points per oscillation."""
    a, b = bundle.interval
    t = bundle.lattice(4096)
    g = np.asarray(bundle.f(t), float)
    n_osc = lam * (float(g.max()) - float(g.min())) / (2 * np.pi)
    n = int(max(_PTS_PER_OSC * n_osc, 200))
    if n > _MAX_QUAD_PTS:
        raise ResolutionExceeded(
            f"oscillatory quadrature needs {n} points (> {_MAX_QUAD_PTS})"
        )
    n |= 1  # odd count for Simpson
    tt = np.linspace(a, b, n)
    vals = np.exp(1j * lam * np.asarray(bundle.f(tt), float)) * np.asarray(h(tt))
    return complex(simpson(vals, x=tt))


@dataclass(frozen=True)
class RootMatching:
    pairs: tuple            # ((root_f, root_g), ...)
    delta: float            # computed admissible C^1 perturbation
    c1_distance: float      # measured ||f-g||_{C^1} on the lattice


def track_roots(fbundle: FunctionBundle, gbundle: FunctionBundle, eps: float) -> RootMatching:
    """Pair simple roots of f with nearby roots of g under a small C^1 perturbation.

    The admissible perturbation size is delta = min(a/2, eta/4, eps*eta/4)
    with eta the smallest |f'| over the roots and a the smallest |f| outside
    the safety balls; if ||f - g||_{C^1} >= delta the pairing is refused.
    """
    t = fbundle.lattice()
    roots_f = _lattice_roots(fbundle.f, t, 0.0, relative_merge=False)
    if not roots_f:
        return RootMatching(pairs=(), delta=np.inf, c1_distance=0.0)
    fv = np.asarray(fbundle.f(t), float)
    fd = np.asarray(fbundle.df(t), float)
    gv = np.asarray(gbundle.f(t), float)
    gd = np.asarray(gbundle.df(t), float)

    eta = min(abs(float(fbundle.df(r))) for r in roots_f)
    if eta == 0:
        raise PerturbationTooLarge("f has a non-simple root; tracking undefined")

    # largest ball radius on which |f'| stays above eta/2 around every root
    near = np.abs(fd) > eta / 2
    radii = []
    for r in roots_f:
        # walk outward from the root on the lattice
        idx = int(np.argmin(np.abs(t - r)))
        lo = idx
        while lo > 0 and near[lo - 1]:
            lo -= 1
        hi = idx
        while hi < len(t) - 1 and near[hi + 1]:
            hi += 1
        radii.append(min(r - t[lo], t[hi] - r))
    # any radius with |f'| > eta/2 on the balls works; take half the maximal
    # one so that the complement stays nonempty and inf |f| there is positive
    r_ball = max(min(radii) / 2, (t[1] - t[0]) * 2)

    outside = np.ones_like(t, dtype=bool)
    for r in roots_f:
        outside &= np.abs(t - r) > r_ball
    a_inf = float(np.min(np.abs(fv[outside]))) if outside.any() else 0.0

    delta = min(a_inf / 2, eta / 4, eps * eta / 4)
    c1 = max(float(np.max(np.abs(fv - gv))), float(np.max(np.abs(fd - gd))))
    if c1 >= delta:
        raise PerturbationTooLarge(
            f"||f-g||_C1 = {c1:.3e} >= admissible delta = {delta:.3e}"
        )

    roots_g = _lattice_roots(gbundle.f, gbundle.lattice(), 0.0, relative_merge=False)
    pairs = []
    for rf in roots_f:
        close = [rg for rg in roots_g if abs(rg - rf) < eps]
        if len(close) != 1:
            raise PerturbationTooLarge(
                f"expected exactly one root of g within {eps:g} of {rf:.6g}, found {len(close)}"
            )
        pairs.append((rf, close[0]))
    return RootMatching(pairs=tuple(pairs), delta=float(delta), c1_distance=float(c1))
