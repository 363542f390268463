"""Stationary-point machinery for the hyperbolic phase restricted to curve graphs.

For a graph z2 = f(z1) the restricted phase seen from x is
g(t) = (x1 - t)^2 - (x2 - f(t))^2; for a graph z1 = f(z2) it is
g(t) = (x1 - f(t))^2 - (x2 - t)^2.  Derivatives come from the chain rule
using the segment's f', f''.  A stationary point is *degenerate* when |g''|
falls below a configurable threshold; a whole segment can also be flat
(g' == 0 identically), which is a distinguished outcome rather than an
error: it is exactly the failure mode of the diagonal counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import simpson

from .errors import PerturbationTooLarge, ResolutionExceeded
from .geometry import GraphSegment, SubDomain

DEGENERACY_THRESHOLD = 0.05
_LATTICE = 2048


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
    x1, x2 = float(x[0]), float(x[1])
    f, df, d2f = seg.f, seg.df, seg.d2f
    if seg.orientation == "z1":
        def g(t):
            t = np.asarray(t, float)
            return (x1 - t) ** 2 - (x2 - f(t)) ** 2

        def g1(t):
            t = np.asarray(t, float)
            return -2.0 * (x1 - t) + 2.0 * (x2 - f(t)) * df(t)

        def g2(t):
            t = np.asarray(t, float)
            return 2.0 - 2.0 * df(t) ** 2 + 2.0 * (x2 - f(t)) * d2f(t)
    else:
        def g(t):
            t = np.asarray(t, float)
            return (x1 - f(t)) ** 2 - (x2 - t) ** 2

        def g1(t):
            t = np.asarray(t, float)
            return -2.0 * (x1 - f(t)) * df(t) + 2.0 * (x2 - t)

        def g2(t):
            t = np.asarray(t, float)
            return -2.0 * d2f(t) * (x1 - f(t)) + 2.0 * df(t) ** 2 - 2.0

    return FunctionBundle(g, g1, g2, seg.interval)


def _bisect_then_newton(fun, dfun, lo, hi, tol):
    flo = fun(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < 1e-13 * max(1.0, abs(lo)):
            break
    root = 0.5 * (lo + hi)
    for _ in range(2):  # two polishing steps, guarded by the bracket
        d = dfun(root)
        if d != 0:
            cand = root - fun(root) / d
            if lo <= cand <= hi:
                root = cand
    return root


def find_stationary(x, seg: GraphSegment, tol: float = 1e-10,
                    lattice: int = _LATTICE,
                    degeneracy_threshold: float = DEGENERACY_THRESHOLD) -> StationaryResult:
    """All roots of g' on the segment, classified by |g''| against the threshold.

    Returns the distinguished whole-segment-flat flag when g' vanishes on the
    entire probe lattice (the diagonal-side failure mode).
    """
    bundle = phase_on_curve(x, seg)
    t = np.linspace(seg.interval[0], seg.interval[1], lattice)
    d = np.asarray(bundle.df(t))
    if float(np.max(np.abs(d))) <= tol:
        return StationaryResult(points=(), whole_segment_flat=True)

    roots = []
    exact = np.flatnonzero(np.abs(d) <= tol)
    sign_change = np.flatnonzero(d[:-1] * d[1:] < 0)
    for k in sign_change:
        roots.append(_bisect_then_newton(bundle.df, bundle.d2f, t[k], t[k + 1], tol))
    for k in exact:
        roots.append(float(t[k]))
    roots = sorted(roots)
    # merge near-duplicates from lattice points doubling as sign changes
    merged = []
    for r in roots:
        if not merged or abs(r - merged[-1]) > 1e-9 * max(1.0, abs(r)):
            merged.append(r)

    pts = []
    for r in merged:
        if abs(float(bundle.df(r))) > max(tol, 1e3 * tol):
            continue
        g2v = float(bundle.d2f(r))
        loc = seg.point(r)
        order = 1 if abs(g2v) >= degeneracy_threshold else "degenerate"
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
    if seg.orientation == "z1":
        x1 = tc + (d1c**3 - d1c) / d2c
        x2 = fc + (d1c**2 - 1.0) / d2c
    else:
        x2 = tc + (d1c**3 - d1c) / d2c
        x1 = fc + (d1c**2 - 1.0) / d2c
    points = np.stack([x1, x2], axis=-1)

    tf = t[~curved]
    d1f = d1[~curved]
    with np.errstate(divide="ignore"):
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
                     n_mc: int = 10**6, band: float = 0.01, seed: int = 0,
                     n_tau: int = 2048) -> float:
    """Monte Carlo area of the band-thickened union of near-tangent lines.

    Lines through (t, f(t)) with the given slope, over parameters where
    |f'(t) - slope| < eps; membership is point-to-line-family distance below
    ``band``.
    """
    a, b = seg.interval
    t = np.linspace(a, b, n_tau)
    d1 = np.asarray(seg.df(t), float)
    sel = np.abs(d1 - slope) < eps
    if not np.any(sel):
        return 0.0
    tsel = t[sel]
    fsel = np.asarray(seg.f(tsel), float)

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
        q1 = p1[in_om]
        q2 = p2[in_om]
        if seg.orientation == "z1":
            resid = q2[:, None] - fsel[None, :] - slope * (q1[:, None] - tsel[None, :])
        else:
            resid = q1[:, None] - fsel[None, :] - slope * (q2[:, None] - tsel[None, :])
        dist = np.min(np.abs(resid), axis=1) / denom
        hits += int(np.count_nonzero(dist < band))
    return box_area * hits / total


def osc_integral_1d(bundle: FunctionBundle, h: Callable, lam: float,
                    pts_per_osc: int = 20, max_pts: int = 10**7) -> complex:
    """Composite quadrature of int e^{i lam g} h with >= pts_per_osc points per oscillation."""
    a, b = bundle.interval
    t = bundle.lattice(4096)
    g = np.asarray(bundle.f(t), float)
    n_osc = lam * (float(g.max()) - float(g.min())) / (2 * np.pi)
    n = int(max(pts_per_osc * n_osc, 200))
    if n > max_pts:
        raise ResolutionExceeded(
            f"oscillatory quadrature needs {n} points (> {max_pts})"
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


def _simple_roots(bundle: FunctionBundle, lattice: int = _LATTICE, tol: float = 1e-12):
    t = np.linspace(bundle.interval[0], bundle.interval[1], lattice)
    v = np.asarray(bundle.f(t), float)
    roots = []
    for k in np.flatnonzero(v[:-1] * v[1:] < 0):
        roots.append(_bisect_then_newton(bundle.f, bundle.df, t[k], t[k + 1], tol))
    for k in np.flatnonzero(v == 0.0):
        roots.append(float(t[k]))
    out = []
    for r in sorted(roots):
        if not out or abs(r - out[-1]) > 1e-9:
            out.append(r)
    return out


def track_roots(fbundle: FunctionBundle, gbundle: FunctionBundle, eps: float,
                lattice: int = _LATTICE) -> RootMatching:
    """Pair simple roots of f with nearby roots of g under a small C^1 perturbation.

    The admissible perturbation size is delta = min(a/2, eta/4, eps*eta/4)
    with eta the smallest |f'| over the roots and a the smallest |f| outside
    the safety balls; if ||f - g||_{C^1} >= delta the pairing is refused.
    """
    roots_f = _simple_roots(fbundle)
    if not roots_f:
        return RootMatching(pairs=(), delta=np.inf, c1_distance=0.0)
    t = np.linspace(fbundle.interval[0], fbundle.interval[1], lattice)
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
        while hi < lattice - 1 and near[hi + 1]:
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

    roots_g = _simple_roots(gbundle)
    pairs = []
    for rf in roots_f:
        close = [rg for rg in roots_g if abs(rg - rf) < eps]
        if len(close) != 1:
            raise PerturbationTooLarge(
                f"expected exactly one root of g within {eps:g} of {rf:.6g}, found {len(close)}"
            )
        pairs.append((rf, close[0]))
    return RootMatching(pairs=tuple(pairs), delta=float(delta), c1_distance=float(c1))
