"""Pointwise recovery functionals: the boundary route through DtN matrices and
its interior twin, with phase-frequency sweeps and error-weight maps.

The boundary route evaluates

    (lam/pi) * int_dOmega e^{i lam conj(psi_x)} (Lambda_V - Lambda_0)[u_trace]

with u_trace = e^{i lam psi_x}(1 + w) at the mesh nodes.  The interior route
evaluates (lam/pi) * int e^{i lam phi_x} V (1 + w) on the grid; the two are
linked by the boundary/interior pairing identity and the interior value
serves as the oracle for the boundary one.

Beware the dynamic range of the boundary route: the trace magnitudes scale
like e^{lam * |Im psi|}, so boundary-data errors (discretization and
roundoff) are amplified by e^{lam * osc(Im psi_x)}, where osc is max - min
over the mesh nodes.  The roundoff in the DtN data, relative to the largest
trace value, is about eps_mach * m for an m-node mesh, so the value keeps a
relative accuracy tau only while

    lam * osc(Im psi_x) <= ln(tau / (eps_mach * m)) = AMPLIFICATION_BUDGET,

which is 27.3 for tau = 2 % and m = 128.  ``reconstruct_boundary`` refuses
any lam above this budget with ``AmplificationExceeded`` before it computes
anything.  This is the numerical face of the logarithmic stability of the
inverse problem: the usable lam grows only like |ln eps|.  On the unit disk
at x = 0 (osc = 1) the window is lam <= 27.3.  The interior route carries
no exponential weights and is stable at any resolved lam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cgo import PhaseParams, psi_at, solve_w, t_w_lambda
from .dtn import BoundaryMesh, DtnMatrix
from .errors import AmplificationExceeded, DomainError, MeshMismatch, NonConvergence
from .grid import ComplexField
from .stationary import find_stationary
from .utils import bilinear_sample


# Relative accuracy the boundary route must keep, and the mesh size the
# roundoff floor eps_mach * m is taken at (the default 128-node mesh).
ROUTE_TOLERANCE = 0.02
_BUDGET_NODES = 128
AMPLIFICATION_BUDGET = float(np.log(ROUTE_TOLERANCE
                                    / (np.finfo(float).eps * _BUDGET_NODES)))


@dataclass(frozen=True)
class ReconSample:
    """One reconstruction sample; boundary value is None for interior-only sweeps."""

    lam: float
    value_boundary: complex | None
    value_interior: complex | None


@dataclass(frozen=True)
class SweepResult:
    samples: tuple
    limit: complex          # mean of the last three available interior samples
    dispersion: float       # max deviation of those samples from the mean
    failures: tuple         # lambdas where the correction field did not converge
    refused: tuple = ()     # (lambda, exponent) pairs over the amplification budget


def amplification_exponent(mesh: BoundaryMesh, p: PhaseParams) -> float:
    """Predicted exponent lam * (max - min) of Im psi_x over the mesh nodes."""
    im_psi = psi_at(mesh.nodes[:, 0], mesh.nodes[:, 1], p.x).imag
    return float(p.lam * (im_psi.max() - im_psi.min()))


def bukhgeim_trace(V: ComplexField, p: PhaseParams, mesh: BoundaryMesh,
                   w: ComplexField | None = None) -> np.ndarray:
    """Nodal values of e^{i lam psi_x} (1 + w) on the mesh."""
    if w is None:
        w = solve_w(V, p)
    psi = psi_at(mesh.nodes[:, 0], mesh.nodes[:, 1], p.x)
    w_nodes = bilinear_sample(V.grid, w.values, mesh.nodes)
    return np.exp(1j * p.lam * psi) * (1.0 + w_nodes)


def reconstruct_boundary(A_V: DtnMatrix, A_0: DtnMatrix, V: ComplexField,
                         p: PhaseParams, w: ComplexField | None = None,
                         trace: np.ndarray | None = None) -> complex:
    """Boundary-route value at x through the distributed DtN matrices.

    Raises AmplificationExceeded, before any work, when the predicted
    exponent is above AMPLIFICATION_BUDGET (see the module docstring).
    """
    if not A_V.mesh.same_as(A_0.mesh):
        raise MeshMismatch("DtN matrices must share a mesh")
    mesh = A_V.mesh
    exponent = amplification_exponent(mesh, p)
    if exponent > AMPLIFICATION_BUDGET:
        raise AmplificationExceeded(
            f"lam * osc(Im psi_x) = {exponent:.1f} exceeds the double-precision "
            f"budget {AMPLIFICATION_BUDGET:.1f} (lam={p.lam:g}, x={p.x})",
            exponent=exponent, budget=AMPLIFICATION_BUDGET)
    if trace is None:
        trace = bukhgeim_trace(V, p, mesh, w=w)
    y = (A_V.entries - A_0.entries) @ trace
    psi_bar = np.conj(psi_at(mesh.nodes[:, 0], mesh.nodes[:, 1], p.x))
    total = np.sum(mesh.arc_weights * np.exp(1j * p.lam * psi_bar) * y)
    return complex(p.lam / np.pi * total)


def reconstruct_interior(V: ComplexField, p: PhaseParams,
                         w: ComplexField | None = None) -> complex:
    """(lam/pi) * grid quadrature of e^{i lam phi_x} V (1 + w), over V's support box."""
    if w is None:
        w = solve_w(V, p)
    return t_w_lambda(V, w, p, shift=1.0)


def lambda_sweep(V: ComplexField, x, lambdas, dtn_pair: tuple | None = None) -> SweepResult:
    """Interior-route sweep over increasing lambdas with an averaged limit.

    The limit estimate is the mean of the last three successful samples
    (the leading error term oscillates in lambda, so averaging beats
    extrapolation here).  Non-convergent lambdas are recorded and skipped.
    When ``dtn_pair`` = (A_V, A_0) is given, boundary values are sampled too;
    lambdas the boundary route refuses with AmplificationExceeded are
    recorded in ``refused`` with the exponent it raised, and keep their
    interior sample with a boundary value of None.
    """
    lambdas = list(lambdas)
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise DomainError("lambdas must be strictly increasing")
    samples = []
    failures = []
    refused = []
    for lam in lambdas:
        p = PhaseParams(lam, x)
        try:
            w = solve_w(V, p)
        except NonConvergence:
            failures.append(lam)
            continue
        interior = reconstruct_interior(V, p, w=w)
        boundary = None
        if dtn_pair is not None:
            try:
                boundary = reconstruct_boundary(dtn_pair[0], dtn_pair[1], V, p, w=w)
            except AmplificationExceeded as exc:
                refused.append((lam, exc.exponent))
        samples.append(ReconSample(lam=lam, value_boundary=boundary, value_interior=interior))
    good = [s.value_interior for s in samples]
    if not good:
        raise NonConvergence("no lambda in the sweep produced a correction field")
    tail = np.asarray(good[-3:] if len(good) >= 3 else good, dtype=complex)
    limit = complex(tail.mean())
    dispersion = float(np.max(np.abs(tail - limit))) if len(tail) > 1 else 0.0
    return SweepResult(samples=tuple(samples), limit=limit, dispersion=dispersion,
                       failures=tuple(failures), refused=tuple(refused))


# ---------------------------------------------------------------------------
# stationary-phase conditioning weights and masks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorWeightMap:
    """Per-point conditioning surrogate C_x and the degenerate/near-curve mask."""

    weights: np.ndarray       # (N,) C_x surrogate (inf where masked)
    degenerate_mask: np.ndarray   # True where stationary analysis is unreliable
    near_curve_mask: np.ndarray   # True inside the exclusion band around the curves


def build_error_weight_map(xs, boundaries, exclusion_band: float) -> ErrorWeightMap:
    """Stationary-phase conditioning map over probe points.

    A point is degenerate-masked when any segment of any boundary shows a
    stationary point with |g''| below DEGENERACY_THRESHOLD or is flat as a whole.
    The weight surrogate mirrors the structure of the reconstruction error
    constant: sum over stationary points of |g''|^{-1/2}, scaled by the
    reciprocal distance to the curves (floored at half that distance).
    """
    xs = np.atleast_2d(np.asarray(xs, float))
    n = len(xs)
    weights = np.zeros(n)
    degenerate = np.zeros(n, dtype=bool)
    dist = np.min([b.distance_to(xs) for b in boundaries], axis=0)
    near = dist <= exclusion_band
    for i, x in enumerate(xs):
        total = 0.0
        for b in boundaries:
            for seg in b.segments:
                res = find_stationary(x, seg)
                if res.whole_segment_flat:
                    degenerate[i] = True
                    continue
                for pt in res.points:
                    if pt.order == "degenerate":
                        degenerate[i] = True
                    else:
                        total += 1.0 / np.sqrt(abs(pt.g2))
        # mask-radius default r2 = d(x, curves)/2 floors the amplitude weight
        r2 = max(dist[i] / 2.0, 1e-12)
        weights[i] = (1.0 + total) / r2
    weights[degenerate] = np.inf
    return ErrorWeightMap(weights=weights, degenerate_mask=degenerate, near_curve_mask=near)
