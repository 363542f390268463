"""Piecewise-smooth complex potentials V = sum_j q_j chi_{Omega_j} and their norms.

The W^{s,1} piece norms are realized as Bessel-potential norms
||(1 - Lap)^{s/2} q||_{L^1} on the periodic grid window; single FFT pipeline
for all s, equivalent norm on the scales used here.  Indicator H^r norms use
the inhomogeneous weights (1 + |xi|^2)^{r/2}.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, SupportViolation
from .geometry import GraphSegment, PiecewiseBoundary, SubDomain, make_disk, make_rhombus
from .grid import ComplexField, FourierGrid, fft2, ifft2


@dataclass(frozen=True)
class PiecewisePotential:
    """List of (smooth piece q_j, subdomain Omega_j) with smoothness indices.

    Indices satisfy 2 <= s < 3 and 0 < r < 1/2 with s - 2 < 2r when s > 2.
    ``description`` optionally carries the JSON dict this potential was built
    from (used for cache keys and experiment provenance).
    """

    pieces: tuple
    s: float
    r: float
    description: dict | None = None

    def __post_init__(self):
        if not (2.0 <= self.s < 3.0):
            raise DomainError("smoothness index s must lie in [2, 3)")
        if not (0.0 < self.r < 0.5):
            raise DomainError("index r must lie in (0, 1/2)")
        if self.s > 2.0 and not (self.s - 2.0 < 2.0 * self.r):
            raise DomainError("need s - 2 < 2r when s > 2")
        object.__setattr__(self, "pieces", tuple(self.pieces))
        for q, dom in self.pieces:
            if not callable(q) or not isinstance(dom, SubDomain):
                raise DomainError("each piece must be (callable q, SubDomain)")
            x0, x1, y0, y1 = dom.bbox()
            probe = q(np.linspace(x0, x1, 9)[None, :], np.linspace(y0, y1, 9)[:, None])
            arr = np.asarray(probe, dtype=np.complex128)
            if not np.all(np.isfinite(arr.view(np.float64))):
                raise DomainError("piece function must be finite on the closure of its domain")

    def __call__(self, q1, q2):
        """Pointwise values sum_j q_j * [inside Omega_j]."""
        q1 = np.asarray(q1, float)
        q2 = np.asarray(q2, float)
        out = np.zeros(np.broadcast(q1, q2).shape, dtype=np.complex128)
        for q, dom in self.pieces:
            mask = np.asarray(dom.inside(q1, q2), bool)
            if mask.any():
                vals = np.broadcast_to(np.asarray(q(q1, q2), dtype=np.complex128), mask.shape)
                out = out + np.where(mask, vals, 0.0)
        return out

    def max_abs(self) -> float:
        """Max |V| over a 96 x 96 probe lattice on each piece domain's bounding box."""
        m = 0.0
        for q, dom in self.pieces:
            x0, x1, y0, y1 = dom.bbox()
            g1, g2 = np.meshgrid(np.linspace(x0, x1, 96), np.linspace(y0, y1, 96))
            vals = self(g1, g2)
            m = max(m, float(np.max(np.abs(vals))))
        return m

    def content_hash(self) -> str:
        """Cache key from the description; raises ConfigError without one.

        The pieces are arbitrary callables, so without a description nothing
        tells two potentials apart and any key would collide.
        """
        if self.description is None:
            raise ConfigError("content_hash needs a potential built from a description")
        blob = json.dumps(self.description, sort_keys=True, allow_nan=False).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def rasterize(V: PiecewisePotential, g: FourierGrid) -> ComplexField:
    """Sample V on the grid nodes: value = sum_j q_j(node) * [node in Omega_j].

    Boundary-touching nodes resolve strictly by the membership predicate (no
    smoothing).  Raises SupportViolation if any piece domain leaves the
    padding-safe central square.
    """
    q = g.side_len / 4
    for _, dom in V.pieces:
        x0, x1, y0, y1 = dom.bbox()
        if (x0 < g.center[0] - q or x1 > g.center[0] + q
                or y0 < g.center[1] - q or y1 > g.center[1] + q):
            raise SupportViolation(
                "piece domain leaves the padding-safe central square of the grid"
            )
    return ComplexField(g, V(g.Z1, g.Z2))


def rasterize_indicator(dom: SubDomain, g: FourierGrid) -> ComplexField:
    return ComplexField(g, np.asarray(dom.inside(g.Z1, g.Z2), bool).astype(np.complex128))


def chi_hr_norm(dom: SubDomain, r: float, g: FourierGrid) -> float:
    """Discrete inhomogeneous H^r norm of the rasterized indicator."""
    if not 0 <= r < 1:
        raise DomainError("chi_hr_norm expects 0 <= r < 1")
    return h_r_norm_field(rasterize_indicator(dom, g), r)


def w_s1_norm(q: Callable, s: float, g: FourierGrid) -> float:
    """Bessel-potential W^{s,1} norm ||(1-Lap)^{s/2} q||_{L^1} over the grid window."""
    vals = np.broadcast_to(np.asarray(q(g.Z1, g.Z2), dtype=np.complex128),
                           (g.n_per_side, g.n_per_side))
    bessel = ifft2(fft2(vals) * (1.0 + g.xi_sq) ** (s / 2.0))
    return float(g.h**2 * np.sum(np.abs(bessel)))


def h_r_norm_field(F: ComplexField, r: float) -> float:
    """Inhomogeneous H^r norm of a sampled field (same weights as chi_hr_norm)."""
    return F.weighted_l2_norm((1.0 + F.grid.xi_sq) ** r)


def dsr_norm_upper(V: PiecewisePotential, g: FourierGrid) -> float:
    """Upper bound for the decomposition norm of V using the given pieces.

    Returns sum_j ||q_j||_{W^{s,1}} (1 + ||chi_{Omega_j}||_{H^r}); the true
    norm is the infimum over all decompositions, so this is one admissible
    value from above.
    """
    total = 0.0
    for q, dom in V.pieces:
        total += w_s1_norm(q, V.s, g) * (1.0 + chi_hr_norm(dom, V.r, g))
    return float(total)


# ---------------------------------------------------------------------------
# named closed forms and the JSON description format
# ---------------------------------------------------------------------------

def _named_piece_function(desc: dict) -> Callable:
    kind = desc["type"]
    if kind == "constant":
        value = complex(desc["value"][0], desc["value"][1]) \
            if isinstance(desc["value"], (list, tuple)) else complex(desc["value"])
        return lambda q1, q2: np.full(np.broadcast(np.asarray(q1), np.asarray(q2)).shape,
                                      value, dtype=np.complex128)
    if kind == "gaussian-bump":
        cx, cy = desc["center"]
        sigma = float(desc["sigma"])
        amp = desc.get("amplitude", 1.0)
        amp = complex(amp[0], amp[1]) if isinstance(amp, (list, tuple)) else complex(amp)
        return lambda q1, q2: amp * np.exp(
            -((np.asarray(q1, float) - cx) ** 2 + (np.asarray(q2, float) - cy) ** 2)
            / (2 * sigma**2)
        )
    if kind == "polynomial":
        # coeffs[i][j] multiplies q1^i q2^j
        coeffs = np.asarray(desc["coeffs"], dtype=np.complex128)
        return lambda q1, q2: np.polynomial.polynomial.polyval2d(
            np.asarray(q1, float), np.asarray(q2, float), coeffs
        )
    raise DomainError(f"unknown piece function type {kind!r}")


def _segment_from_desc(desc: dict) -> GraphSegment:
    fn = desc["function"]
    kind = fn["type"]
    common = dict(
        orientation=desc["orientation"],
        reverse=bool(desc.get("reverse", False)),
    )
    if kind in ("polynomial", "constant"):
        coeffs = fn["coeffs"] if kind == "polynomial" else [fn["value"]]
        return GraphSegment.from_polynomial(interval=tuple(desc["interval"]),
                                            coeffs=coeffs, **common)
    if kind == "spline":
        return GraphSegment.from_spline(knots=fn["knots"], values=fn["values"],
                                        end_derivs=fn["end_derivs"], **common)
    raise DomainError(f"unknown segment function type {kind!r}")


def _domain_from_desc(desc: dict) -> SubDomain:
    if "builtin" in desc:
        kind = desc["builtin"]
        if kind == "rhombus":
            return make_rhombus()
        if kind == "disk":
            return make_disk(center=tuple(desc.get("center", (0.0, 0.0))),
                             radius=float(desc["radius"]))
        raise DomainError(f"unknown builtin domain {kind!r}")
    segments = [_segment_from_desc(s) for s in desc["segments"]]
    return SubDomain(PiecewiseBoundary(segments))


def potential_from_description(desc: dict) -> PiecewisePotential:
    """Build a PiecewisePotential from its JSON-style description dict.

    A description is outside input: any fault in it raises ConfigError naming the cause.
    """
    try:
        domains = {name: _domain_from_desc(d) for name, d in desc.get("domains", {}).items()}
        pieces = []
        for piece in desc["pieces"]:
            q = _named_piece_function(piece["q"])
            dom = domains[piece["domain"]]
            pieces.append((q, dom))
        return PiecewisePotential(pieces=tuple(pieces), s=float(desc["s"]),
                                  r=float(desc["r"]), description=desc)
    except (LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad potential description: {exc!r}") from exc
