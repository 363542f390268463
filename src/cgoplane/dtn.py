"""Forward Dirichlet solver on a disk and discrete Dirichlet-to-Neumann matrices.

The solver discretizes the energy form

    B(u, v) = int_Omega V u v + grad u . grad v

directly on a polar grid (5-point stencil in (r, theta)), with boundary
nodes sitting exactly on the circle.  The energy is block tridiagonal by
ring; eliminating it from the center outward leaves the DtN matrix as the
Schur complement on the boundary ring, complex-symmetric by construction (no
conjugation), and the stored elimination gives the Dirichlet solve and the
guard against 0 being a Dirichlet eigenvalue.  solve_dirichlet returns the
solved dof vector u, and h1_norm(op, u) gives its discrete H^1 norm.

The energy is kept only as its stencil: the center entry A_cc, the radial
coupling c_{j+1/2} of ring j to ring j+1 (ring 0 is the center), and per ring
its diagonal d_i and its one angular coupling o_i, so a ring block is
diag(d_i) + o_i (P + P^T) with P the cyclic shift.  _energy_apply gives A u
from these arrays.  A ring block whose V samples are all equal is circulant,
diagonal in the unitary angular Fourier basis F, and so is a V-free one; the
elimination runs in three stages.  The core, the leading rings 1..j0 on which
V is constant around (none unless the potential is radial near the center),
is eliminated per Fourier mode n: one complex pivot per ring and mode, the
center entering mode 0 only.  The dense band, rings j0+1..k up to the
outermost interior ring k on which V is nonzero, is eliminated ring by ring;
it stores the ring solves S_i^{-1} C_i, and starts from the core's circulant
S_{j0}.  The annulus, the V-free rings k+1..n_r-1, is one real tridiagonal
(Thomas) solve in r per mode, the direct Poisson solver on the disk of
Swarztrauber & Sweet (SIAM J. Numer. Anal. 10, 1973).  It couples to the
rest only through M = F S_k F^H - c_k^2 diag(g_11) at ring k, inverted once.
A potential that reaches ring n_r-1 leaves no annulus, and the band (or the
core) runs to the boundary.  The guard's ||A_II||_1 is the stencil's
largest column sum, and its estimate of ||A_II^{-1}||_1 is scipy's
onenormest (t=1) through the stored elimination, with LAPACK's
alternating-sign estimate as a floor.

Matrices act on nodal boundary values; the boundary pairing uses the
uniform arc weights of the mesh.  The H^{1/2} -> H^{-1/2} operator norm
uses the diagonal weights (1 + n^2)^{1/4} in the boundary Fourier basis.
Disk cache keys carry the discretization version.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import BlobFormatError, DomainError, MeshMismatch, NearSingular
from .utils import read_blob, write_blob

_COND_LIMIT = 1e12


class BoundaryMesh:
    """Uniform nodes on a circle with arc weights and Fourier mode numbers."""

    def __init__(self, center=(0.0, 0.0), radius=1.0, n_nodes=128):
        m = int(n_nodes)
        if m < 64:
            raise DomainError("boundary mesh needs at least 64 nodes")
        if not 0 < radius < np.inf:  # NaN fails this too
            raise DomainError(f"radius must be positive and finite, got {radius}")
        self.center = (float(center[0]), float(center[1]))
        self.radius = float(radius)
        self.n_nodes = m
        self.theta = 2 * np.pi * np.arange(m) / m
        self.nodes = np.stack(
            [self.center[0] + self.radius * np.cos(self.theta),
             self.center[1] + self.radius * np.sin(self.theta)], axis=-1)
        self.arc_weights = np.full(m, 2 * np.pi * self.radius / m)
        self.fourier_n = np.fft.fftfreq(m, d=1.0 / m).astype(int)

    def mesh_hash(self) -> str:
        blob = repr((round(self.center[0], 12), round(self.center[1], 12),
                     round(self.radius, 12), self.n_nodes)).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def same_as(self, other) -> bool:
        return (isinstance(other, BoundaryMesh) and self.mesh_hash() == other.mesh_hash())


@dataclass
class Annulus:
    """The V-free rings k+1..n_r-1 eliminated per angular Fourier mode n.

    In the unitary DFT basis F each ring block is diag(lambda_{j,n}), so the
    annulus is one real tridiagonal matrix T_n per mode (one row per ring in
    the arrays below, one column per mode).
    """

    pivots: np.ndarray      # Thomas pivots of T_n
    offdiag: np.ndarray     # couplings between consecutive annulus rings
    first_col: np.ndarray   # T_n^{-1} e_1
    m_inv: np.ndarray       # (F S_k F^H - c_k^2 diag(g_11))^{-1}, g = T_n^{-1} entries


def _thomas(pivots, offdiag, y):
    """T_n^{-1} y for every mode n at once, from the stored pivots (no pivoting:
    each T_n is a diagonally dominant M-matrix)."""
    x = np.array(y, dtype=np.result_type(y, pivots))
    for j in range(1, len(x)):
        x[j] -= offdiag[j - 1] / pivots[j - 1] * x[j - 1]
    x[-1] /= pivots[-1]
    for j in range(len(x) - 2, -1, -1):
        x[j] = (x[j] - offdiag[j] * x[j + 1]) / pivots[j]
    return x


@dataclass
class PolarOperator:
    """The energy form on the polar grid for one potential as its stencil, eliminated
    from the center outward: per Fourier mode through the core, densely through
    ring v_ring, then per Fourier mode again."""

    mesh: BoundaryMesh
    n_r: int
    a_cc: complex               # the center's diagonal entry A_cc
    radial: np.ndarray          # c_{j+1/2}: ring j to ring j+1, j = 0 (the center)..n_r-1
    angular: np.ndarray         # o_j: the angular coupling of ring j = 1..n_r
    diag: np.ndarray            # d_j: the diagonal of ring j = 1..n_r, one row each
    interior_idx: np.ndarray
    boundary_idx: np.ndarray
    v_ring: int                 # k: the outermost interior ring with V != 0, at least 1
    core: np.ndarray            # S_{j,n}: per-mode pivots of the core rings j = 1..j0
    ring_solves: np.ndarray     # S_i^{-1} C_i of the dense band: i = j0+1..k-1, or
                                # j0+1..n_r-1 with no annulus
    annulus: Annulus | None     # rings k+1..n_r-1; None when k = n_r-1
    schur: np.ndarray           # S_{n_r}: the interior eliminated onto the boundary ring
    node_weight: np.ndarray     # quadrature weight per dof
    potential: np.ndarray       # V per dof; its energy part is diag(V * node_weight)

    @property
    def n_dof(self):
        return self.n_r * self.mesh.n_nodes + 1


def assemble_polar_operator(V, mesh: BoundaryMesh, n_r: int = 128) -> PolarOperator:
    """The stencil of B(u,v) with the given potential, eliminated ring by ring.

    V is a callable V(z1, z2), sampled at the polar nodes, or None for the
    Laplacian; any other V raises DomainError.  n_r >= 2 rings, the last on
    the circle.  A sample of V that is not finite raises DomainError before
    any elimination.
    """
    if n_r < 2:
        raise DomainError(f"the polar grid needs at least 2 rings, got n_r={n_r}")
    if V is not None and not callable(V):
        raise DomainError(f"V must be a callable V(z1, z2) or None, got {type(V).__name__}")
    m = mesh.n_nodes
    R = mesh.radius
    hr = R / n_r
    dth = 2 * np.pi / m
    n_dof = n_r * m + 1  # rings i=1..n_r (ring n_r = boundary), then the center node
    center_idx = n_dof - 1
    r = np.arange(1, n_r + 1) * hr

    # node coordinates and quadrature weights; the boundary ring has half radial extent
    ext = np.full(n_r, hr)
    ext[-1] = hr / 2
    node_r = np.append(np.repeat(r, m), 0.0)  # the center sits at r = theta = 0
    node_theta = np.append(np.tile(mesh.theta, n_r), 0.0)
    node_weight = np.append(np.repeat(r * ext * dth, m), np.pi * (hr / 2) ** 2)

    z1 = mesh.center[0] + node_r * np.cos(node_theta)
    z2 = mesh.center[1] + node_r * np.sin(node_theta)
    if V is None:
        v_nodes = np.zeros(n_dof, dtype=np.complex128)
    else:
        v_nodes = np.asarray(V(z1, z2), dtype=np.complex128)
    if not np.all(np.isfinite(v_nodes)):
        raise DomainError("the potential is not finite at every polar node")
    v_weight = v_nodes * node_weight
    ring_vw = v_weight[:-1].reshape(n_r, m)

    # the stencil: the radial couplings c_{j+1/2} (entry -c_{j+1/2}), and per ring its
    # angular coupling o_j (entry o_j to either neighbour) and its diagonal d_j
    radial = (np.arange(n_r) + 0.5) * hr * dth / hr  # r_{j+1/2} * dtheta / hr
    angular = -ext / (r * dth)
    diag = (radial + np.append(radial[1:], 0.0) - angular - angular)[:, None] + ring_vw
    # A_cc sums V's weight, then the m couplings c_1/2 one at a time: the DtN data of
    # cache versions 3 and 4 carry the bits of that order, not of m * c_1/2
    a_cc = v_weight[-1]
    for _ in range(m):
        a_cc += radial[0]

    boundary_idx = (n_r - 1) * m + np.arange(m)
    interior_idx = np.append(np.arange((n_r - 1) * m), center_idx)

    v_rings = np.flatnonzero(v_nodes[:(n_r - 1) * m].reshape(n_r - 1, m).any(axis=1))
    k = int(v_rings[-1]) + 1 if len(v_rings) else 1

    cyclic = np.roll(np.eye(m), 1, axis=1) + np.roll(np.eye(m), -1, axis=1)  # P + P^T
    ring_block = lambda i: np.diag(diag[i - 1]) + angular[i - 1] * cyclic  # noqa: E731

    # block Gaussian elimination from the center outward, C_i = -c_{i+1/2} I:
    # S_1 = A_11 - c_{1/2}^2 / A_cc (every entry), then S_{i+1} = A_{i+1,i+1} - C_i S_i^{-1} C_i
    n_dense = k - 1 if k < n_r - 1 else n_r - 1
    # the core: the leading rings whose V samples are equal bit for bit (exact equality:
    # a tolerance would change the discretization) have circulant blocks
    flat = np.all(ring_vw[:n_dense] == ring_vw[:n_dense, :1], axis=1)
    j0 = int(np.logical_and.accumulate(flat).sum())
    if j0:
        # S_{j,n} = c_{j+1/2} + q_{j,n}; the center's excess A_cc - m c_{1/2} couples to
        # mode 0 only, since the unitary DFT of the all-ones block is m e_0 e_0^T
        row_sum = diag[:j0, 0] + 2 * angular[:j0] - radial[:j0] - radial[1:j0 + 1]
        alpha = _angular_excess(row_sum, angular[:j0], m)
        core = _chain(alpha, radial[:j0], start=v_weight[-1] / m) + radial[1:j0 + 1, None]
        corr = radial[j0] ** 2 * sla.circulant(np.fft.ifft(1 / core[-1]))
    else:
        core = np.empty((0, m), dtype=np.complex128)
        corr = radial[0] ** 2 / a_cc  # what the rings inside take off the next ring block
    ring_solves = np.empty((n_dense - j0, m, m), dtype=np.complex128)
    for i in range(j0 + 1, n_dense + 1):
        schur = ring_block(i) - corr
        ring_solves[i - j0 - 1] = np.linalg.solve(schur, np.diag(np.full(m, -radial[i])))
        corr = -radial[i] * ring_solves[i - j0 - 1]
    annulus = None
    if n_dense == n_r - 1:
        schur = ring_block(n_r) - corr
    else:
        annulus, schur = _eliminate_annulus(diag, angular, ring_vw, radial, corr, k)

    op = PolarOperator(mesh=mesh, n_r=n_r, a_cc=a_cc, radial=radial, angular=angular,
                       diag=diag, interior_idx=interior_idx, boundary_idx=boundary_idx,
                       v_ring=k, core=core, ring_solves=ring_solves, annulus=annulus,
                       schur=schur, node_weight=node_weight, potential=v_nodes)
    _condition_guard(op)
    return op


def _angular_excess(row_sum, o, m):
    """alpha_{j,n} = row_sum_j + 4 |o_j| sin^2(pi n / m): the eigenvalue of ring j's
    circulant block at mode n in excess of its two radial couplings."""
    return row_sum[:, None] - 4 * o[:, None] * np.sin(np.pi * np.arange(m) / m) ** 2


def _chain(alpha, c, start=None):
    """Schur pivots of a chain of rings, less each ring's coupling onward.

    Ring j couples back by c[j] (to a fixed node for j = 0) and carries the
    excess alpha[j] of its diagonal over its two couplings.  Eliminating from
    ring 0 on, q_j = alpha_j + c_j q_{j-1} / (c_j + q_{j-1}) adds terms that
    are positive (up to the rounding of the stored row sums), so the low
    modes, where the Schur complement is much smaller than the ring block,
    lose no digits to cancellation.  With a start value, mode 0 (column 0)
    couples back to the center instead, whose excess per ring node is start.
    """
    q = np.empty_like(alpha)
    q[0] = alpha[0] + c[0]
    if start is not None:
        q[0, 0] = alpha[0, 0] + c[0] * start / (c[0] + start)
    for j in range(1, len(q)):
        q[j] = alpha[j] + c[j] * q[j - 1] / (c[j] + q[j - 1])
    return q


def _eliminate_annulus(diag, o, v_weight, c, corr, k):
    """Eliminate the V-free rings k+1..n_r-1 per Fourier mode, given S_k = A_kk - corr.

    diag, o and v_weight hold one row (or entry) per ring 1..n_r: its
    diagonal, its angular coupling o_j and its diag(V w).  c[j] is the radial
    coupling c_{j+1/2} of ring j to ring j+1 (ring 0 is the center).  A ring
    block is diag(V w) plus the stencil's circulant F^H diag(lambda_j) F, and
    each stencil row sums to zero, so
    lambda_{j,n} = c_{j-1/2} + c_{j+1/2} + alpha_{j,n} with the angular excess
    alpha_{j,n} = 4 |o_j| sin^2(pi n / m).  Returns the Annulus and the
    boundary Schur complement
    A_{n_r,n_r} - c_l^2 F^H [diag(g_LL) + c_k^2 diag(g_1L) M^{-1} diag(g_1L)] F,
    with the circulant parts taken per mode by _chain.
    """
    n_r, m = diag.shape
    o = o[k - 1:]  # rings k..n_r
    d = (diag[k - 1:, 0] - v_weight[k - 1:, 0]).real
    row_sum = d + 2 * o - c[k - 1:] - np.append(c[k:], 0.0)  # zero up to rounding
    alpha = _angular_excess(row_sum, o, m)
    outward = _chain(alpha[1:], c[k:])                   # rings k+1..n_r
    inward = _chain(alpha[-2::-1], c[n_r - 1:k - 1:-1])  # rings n_r-1..k
    pivots = outward[:-1] + c[k + 1:, None]
    offdiag = -c[k + 1:-1]
    e_1 = np.zeros_like(pivots)
    e_1[0] = 1.0
    first_col = _thomas(pivots, offdiag, e_1)
    g_1l = first_col[-1]

    # M = F S_k F^H - c_k^2 diag(g_11), F the unitary DFT: only diag(V w) - corr
    # goes through the FFT
    m_hat = np.fft.ifft(np.fft.fft(np.diag(v_weight[k - 1]) - corr, axis=0, norm="ortho"),
                        axis=1, norm="ortho")
    m_hat[np.diag_indices(m)] += c[k - 1] + inward[-1]
    m_inv = np.linalg.inv(m_hat)
    # the boundary block less what the annulus takes off it is the circulant of outward[-1]
    cross = np.fft.ifft(g_1l[:, None] * m_inv * g_1l[None, :], axis=0, norm="ortho")
    schur = (sla.circulant(np.fft.ifft(outward[-1])) + np.diag(v_weight[-1])
             - (c[-1] * c[k]) ** 2 * np.fft.fft(cross, axis=1, norm="ortho"))
    return Annulus(pivots=pivots, offdiag=offdiag, first_col=first_col, m_inv=m_inv), schur


def _interior_solve(op: PolarOperator, b):
    """A_II^{-1} b, with b ordered like interior_idx (rings 1..n_r-1, then the center),
    by one forward and one backward sweep: per Fourier mode over the core, over the
    stored ring solves of the dense band, and with the annulus (if any) solved per
    mode in between."""
    c = -op.radial  # A's couplings: the center to ring 1, then ring i to ring i+1
    k = op.v_ring
    n_in = op.n_r - 1
    j0 = len(op.core)
    n_dense = j0 + len(op.ring_solves)
    x = b[:-1].reshape(n_in, -1).astype(np.complex128)
    if j0:
        # the center's load enters mode 0 of ring 1: F 1 = sqrt(m) e_0
        y = np.fft.fft(x[:j0], axis=1, norm="ortho")
        y[0, 0] -= c[0] * np.sqrt(x.shape[1]) * b[-1] / op.a_cc
        for j in range(j0):
            y[j] /= op.core[j]
            if j + 1 < j0:
                y[j + 1] -= c[j + 1] * y[j]
        if j0 < n_in:
            x[j0] -= c[j0] * np.fft.ifft(y[-1], norm="ortho")
    else:
        x[0] -= c[0] * b[-1] / op.a_cc
    for i in range(j0, n_dense):
        x[i] = op.ring_solves[i - j0] @ (x[i] / c[i + 1])
        if i + 1 < n_in:
            x[i + 1] -= c[i + 1] * x[i]
    if op.annulus is not None:
        # rings k..n_r-1: eliminate the annulus onto ring k, solve there, substitute back
        ann = op.annulus
        c_k = c[k]
        y_ann = np.fft.fft(x[k - 1:], axis=1, norm="ortho")
        z = _thomas(ann.pivots, ann.offdiag, y_ann[1:])
        y_ann[0] = ann.m_inv @ (y_ann[0] - c_k * z[0])
        y_ann[1:] = z - c_k * ann.first_col * y_ann[0]
        x[k - 1:] = np.fft.ifft(y_ann, axis=1, norm="ortho")
    for i in range(min(n_dense, n_in - 1) - 1, j0 - 1, -1):
        x[i] -= op.ring_solves[i - j0] @ x[i + 1]
    if j0:
        if j0 < n_in:
            y[-1] -= c[j0] * np.fft.fft(x[j0], norm="ortho") / op.core[-1]
        for j in range(j0 - 2, -1, -1):
            y[j] -= c[j + 1] * y[j + 1] / op.core[j]
        x[:j0] = np.fft.ifft(y, axis=1, norm="ortho")
    return np.append(x, (b[-1] - c[0] * x[0].sum()) / op.a_cc)


def _energy_apply(op: PolarOperator, u):
    """A u from the stencil, u ordered like the dofs: rings 1..n_r, then the center."""
    rings = u[:-1].reshape(op.n_r, -1)
    c = op.radial[:, None]
    inner = np.vstack([np.full_like(rings[:1], u[-1]), rings[:-1]])  # the center for ring 1
    au = (op.diag * rings - c * inner
          + op.angular[:, None] * (np.roll(rings, 1, axis=1) + np.roll(rings, -1, axis=1)))
    au[:-1] -= c[1:] * rings[1:]
    return np.append(au, op.a_cc * u[-1] - op.radial[0] * rings[0].sum())


def _inverse_norm1_estimate(op: PolarOperator) -> float:
    """Lower estimate of ||A_II^{-1}||_1: Hager's method (SIAM J. Sci. Stat. Comput. 5,
    1984) as scipy's onenormest runs it (Higham & Tisseur, SIAM J. Matrix Anal.
    Appl. 21, 2000).

    One column (t=1) starts at e/n and draws no random vectors, so the estimate
    is deterministic.  A_II is complex symmetric, so
    A_II^{-H} b = conj(A_II^{-1} conj(b)).  As in LAPACK's xLACN2, the
    alternating-sign vector's estimate is a floor under the iteration's.
    """
    n = len(op.interior_idx)
    solve = lambda b: _interior_solve(op, b.ravel())  # noqa: E731
    inverse = spla.LinearOperator((n, n), matvec=solve, dtype=np.complex128,
                                  rmatvec=lambda b: np.conj(solve(np.conj(b))))
    alt = (-1.0) ** np.arange(n) * (1.0 + np.arange(n) / (n - 1))
    return float(max(spla.onenormest(inverse, t=1), 2.0 * np.abs(solve(alt)).sum() / (3 * n)))


def _condition_guard(op: PolarOperator) -> float:
    """||A_II||_1 times the estimate of ||A_II^{-1}||_1; NearSingular above _COND_LIMIT or NaN.

    ||A_II||_1 is the largest column sum of |A_II|: a ring column holds |d_j|, 2|o_j|
    and its couplings to the interior rings (or the center) on either side."""
    c = op.radial
    ring_cols = (np.abs(op.diag[:-1]) - 2 * op.angular[:-1, None]
                 + (c[:-1] + np.append(c[1:-1], 0.0))[:, None])
    norm1 = max(ring_cols.max(), abs(op.a_cc) + op.mesh.n_nodes * c[0])
    cond = norm1 * _inverse_norm1_estimate(op)
    if not cond <= _COND_LIMIT:  # a NaN estimate is refused too
        raise NearSingular(
            f"interior operator condition estimate {cond:.2e} > {_COND_LIMIT:.0e}; "
            "0 is (numerically) a Dirichlet eigenvalue"
        )
    return cond


def h1_norm(op: PolarOperator, u) -> float:
    """Discrete H^1 norm of the dof vector u, ordered like op's dofs, via the Dirichlet
    energy plus the L^2 mass."""
    # the gradient energy is the energy less its potential diagonal
    u_bar = u.conj()
    grad = complex(u @ (_energy_apply(op, u_bar) - op.potential * op.node_weight * u_bar))
    mass = float(np.sum(np.abs(u) ** 2 * op.node_weight))
    return float(np.sqrt(abs(grad.real) + mass))


def solve_dirichlet(op: PolarOperator, f) -> np.ndarray:
    """Solve Lap u = V u with u = f on the mesh nodes of op, through op's stored
    elimination; one op serves any number of traces.

    f is a length-n_nodes complex vector of nodal Dirichlet data.  Returns the dof
    vector u, ordered like op's dofs: rings 1..n_r, then the center; h1_norm(op, u)
    gives its H^1 norm.
    """
    f = np.asarray(f, dtype=np.complex128)
    if f.shape != (op.mesh.n_nodes,):
        raise ValueError("boundary data must have one value per mesh node")
    u = np.zeros(op.n_dof, dtype=np.complex128)
    u[op.boundary_idx] = f
    u[op.interior_idx] = _interior_solve(op, -_energy_apply(op, u)[op.interior_idx])
    return u


class DtnMatrix:
    """Discrete DtN operator on nodal boundary values."""

    def __init__(self, entries: np.ndarray, mesh: BoundaryMesh, potential_tag: str, n_r: int):
        m = mesh.n_nodes
        entries = np.asarray(entries, dtype=np.complex128)
        if entries.shape != (m, m):
            raise ValueError("DtN matrix shape must match the mesh")
        self.entries = entries
        self.mesh = mesh
        self.potential_tag = potential_tag
        self.n_r = n_r  # rings of the polar solve it came from

    def symmetry_defect(self) -> float:
        a = self.entries
        return float(np.linalg.norm(a - a.T) / max(np.linalg.norm(a), 1e-300))


def dtn_matrix(V, mesh: BoundaryMesh, n_r: int = 128, potential_tag: str = "") -> DtnMatrix:
    """The DtN matrix S_{n_r} / omega of V on mesh: the energy pairing of the solved
    interior fields of two boundary traces, so it is complex-symmetric by construction."""
    op = assemble_polar_operator(V, mesh, n_r)
    return DtnMatrix(op.schur / mesh.arc_weights[0], mesh, potential_tag, n_r=op.n_r)


def dtn_opnorm_diff(A: DtnMatrix, B: DtnMatrix) -> float:
    """H^{1/2}(S^1) -> H^{-1/2}(S^1) operator norm of A - B."""
    if not A.mesh.same_as(B.mesh):
        raise MeshMismatch("DtN matrices live on different meshes")
    m = A.mesh.n_nodes
    d = A.entries - B.entries
    # unitary DFT to the boundary Fourier basis
    dft = np.fft.fft(np.eye(m), axis=0) / np.sqrt(m)
    d_modes = dft @ d @ dft.conj().T
    w = (1.0 + A.mesh.fourier_n.astype(float) ** 2) ** 0.25
    weighted = d_modes / w[:, None] / w[None, :]
    return float(np.linalg.svd(weighted, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# disk cache: JSON header + raw matrix bytes in one blob
# ---------------------------------------------------------------------------

_MAGIC = b"DTNBLOB1"
_VERSION = 4  # of the discretization: bump it when the DtN arithmetic changes


def cache_key(potential_hash: str, mesh: BoundaryMesh, n_r: int) -> str:
    blob = f"{potential_hash}|{mesh.mesh_hash()}|{n_r}|v{_VERSION}".encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def save_dtn(path, dtn: DtnMatrix):
    header = {
        "mesh_hash": dtn.mesh.mesh_hash(),
        "mesh": {"center": list(dtn.mesh.center), "radius": dtn.mesh.radius,
                 "n_nodes": dtn.mesh.n_nodes},
        "potential_tag": dtn.potential_tag,
        "grid_params": {"n_nodes": dtn.mesh.n_nodes, "n_r": dtn.n_r},
        "version": _VERSION,
    }
    write_blob(path, _MAGIC, header, dtn.entries)


def load_dtn(path) -> DtnMatrix:
    """The DtnMatrix save_dtn wrote; BlobFormatError for a blob of another _VERSION
    or a header that does not describe its entries."""
    header, entries = read_blob(path, _MAGIC)
    if header.get("version") != _VERSION:
        raise BlobFormatError(f"{path}: DtN blob of version {header.get('version')!r}, "
                              f"this code reads version {_VERSION}")
    try:
        mesh = BoundaryMesh(center=tuple(header["mesh"]["center"]),
                            radius=header["mesh"]["radius"],
                            n_nodes=header["mesh"]["n_nodes"])
        return DtnMatrix(entries, mesh, header["potential_tag"],
                         n_r=header["grid_params"]["n_r"])
    except (LookupError, TypeError, ValueError) as exc:
        raise BlobFormatError(f"{path}: unreadable DtN header: {exc!r}") from exc


def dtn_matrix_cached(cache_dir, potential_hash: str, V, mesh: BoundaryMesh,
                      n_r: int = 128, potential_tag: str = "") -> DtnMatrix:
    """Content-addressed cache wrapper around dtn_matrix.

    A blob under the requested key that holds another mesh, n_r or potential
    tag (a copied or renamed file) raises MeshMismatch.
    """
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, cache_key(potential_hash, mesh, n_r) + ".dtn")
    if os.path.exists(path):
        dtn = load_dtn(path)
        if (not dtn.mesh.same_as(mesh) or dtn.n_r != n_r
                or dtn.potential_tag != potential_tag):
            raise MeshMismatch(f"{path} holds a DtN matrix for another mesh, n_r "
                               "or potential")
        return dtn
    dtn = dtn_matrix(V, mesh, n_r=n_r, potential_tag=potential_tag)
    save_dtn(path, dtn)
    return dtn
