"""Forward Dirichlet solver on a disk and discrete Dirichlet-to-Neumann matrices.

The solver discretizes the energy form

    B(u, v) = int_Omega V u v + grad u . grad v

directly on a polar grid (5-point stencil in (r, theta)), with boundary
nodes sitting exactly on the circle.  Solving the discrete Euler-Lagrange
equations makes the weak-form pairing independent of the interior extension
of the test trace up to solver roundoff, and the assembled DtN matrix is
complex-symmetric by construction: the pairing carries no conjugation.

Matrices act on nodal boundary values; the boundary pairing uses the
uniform arc weights of the mesh.  The H^{1/2} -> H^{-1/2} operator norm
uses the diagonal weights (1 + n^2)^{1/4} in the boundary Fourier basis.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import MeshMismatch, NearSingular
from .grid import ComplexField
from .utils import bilinear_sample, read_blob, write_blob

_COND_LIMIT = 1e12


class BoundaryMesh:
    """Uniform nodes on a circle with arc weights and Fourier mode numbers."""

    def __init__(self, center=(0.0, 0.0), radius=1.0, n_nodes=128):
        m = int(n_nodes)
        if m < 64:
            raise ValueError("boundary mesh needs at least 64 nodes")
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.center = (float(center[0]), float(center[1]))
        self.radius = float(radius)
        self.n_nodes = m
        self.theta = 2 * np.pi * np.arange(m) / m
        self.nodes = np.stack(
            [self.center[0] + self.radius * np.cos(self.theta),
             self.center[1] + self.radius * np.sin(self.theta)], axis=-1)
        self.arc_weights = np.full(m, 2 * np.pi * self.radius / m)
        self.fourier_n = np.fft.fftfreq(m, d=1.0 / m).astype(int)

    @property
    def length(self) -> float:
        return 2 * np.pi * self.radius

    def mesh_hash(self) -> str:
        blob = repr((round(self.center[0], 12), round(self.center[1], 12),
                     round(self.radius, 12), self.n_nodes)).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def same_as(self, other) -> bool:
        return (isinstance(other, BoundaryMesh) and self.mesh_hash() == other.mesh_hash())


@dataclass
class PolarOperator:
    """Assembled energy form on the polar grid for one potential."""

    mesh: BoundaryMesh
    n_r: int
    energy: sp.csr_matrix       # full (interior + boundary + center) energy matrix
    interior_idx: np.ndarray
    boundary_idx: np.ndarray
    lu: object                  # factorization of the interior block
    node_r: np.ndarray          # radius per dof
    node_theta: np.ndarray
    node_weight: np.ndarray     # quadrature weight per dof

    @property
    def n_dof(self):
        return self.energy.shape[0]


def _polar_dof_layout(mesh: BoundaryMesh, n_r: int):
    """Rings i=1..n_r (ring n_r = boundary) plus a single center node (last)."""
    m = mesh.n_nodes
    n_dof = n_r * m + 1
    center_idx = n_dof - 1
    ring = lambda i: (i - 1) * m + np.arange(m)  # noqa: E731
    return n_dof, center_idx, ring


def assemble_polar_operator(V, mesh: BoundaryMesh, n_r: int = 128) -> PolarOperator:
    """Energy matrix for B(u,v) with the given potential.

    V may be a ComplexField (sampled bilinearly onto the polar nodes), a
    callable V(z1, z2), or None for the Laplacian.
    """
    m = mesh.n_nodes
    R = mesh.radius
    hr = R / n_r
    dth = 2 * np.pi / m
    n_dof, center_idx, ring = _polar_dof_layout(mesh, n_r)

    rows, cols, vals = [], [], []

    def add_edges(a_idx, b_idx, coeff):
        rows.extend([a_idx, b_idx, a_idx, b_idx])
        cols.extend([a_idx, b_idx, b_idx, a_idx])
        vals.extend([coeff, coeff, -coeff, -coeff])

    # radial edges between ring i and ring i+1
    for i in range(1, n_r):
        c = (i + 0.5) * hr * dth / hr  # r_{i+1/2} * dtheta / hr
        add_edges(ring(i), ring(i + 1), np.full(m, c))
    # center to ring 1
    c0 = 0.5 * hr * dth / hr
    add_edges(np.full(m, center_idx), ring(1), np.full(m, c0))

    # angular edges within each ring; boundary ring has half radial extent
    for i in range(1, n_r + 1):
        r_i = i * hr
        ext = hr if i < n_r else hr / 2
        c = ext / (r_i * dth)
        idx = ring(i)
        nxt = (i - 1) * m + (np.arange(m) + 1) % m
        add_edges(idx, nxt, np.full(m, c))

    # node coordinates and quadrature weights
    node_r = np.empty(n_dof)
    node_theta = np.empty(n_dof)
    node_weight = np.empty(n_dof)
    for i in range(1, n_r + 1):
        idx = ring(i)
        node_r[idx] = i * hr
        node_theta[idx] = mesh.theta
        node_weight[idx] = i * hr * hr * dth if i < n_r else i * hr * (hr / 2) * dth
    node_r[center_idx] = 0.0
    node_theta[center_idx] = 0.0
    node_weight[center_idx] = np.pi * (hr / 2) ** 2

    z1 = mesh.center[0] + node_r * np.cos(node_theta)
    z2 = mesh.center[1] + node_r * np.sin(node_theta)
    if V is None:
        v_nodes = np.zeros(n_dof, dtype=np.complex128)
    elif isinstance(V, ComplexField):
        v_nodes = bilinear_sample(V.grid, V.values, np.stack([z1, z2], axis=-1))
    else:
        v_nodes = np.asarray(V(z1, z2), dtype=np.complex128)

    rows.append(np.arange(n_dof))
    cols.append(np.arange(n_dof))
    vals.append(v_nodes * node_weight)

    rows = np.concatenate([np.asarray(r).ravel() for r in rows])
    cols = np.concatenate([np.asarray(c).ravel() for c in cols])
    vals = np.concatenate([np.asarray(v, dtype=np.complex128).ravel() for v in vals])
    energy = sp.coo_matrix((vals, (rows, cols)), shape=(n_dof, n_dof)).tocsr()

    boundary_idx = ring(n_r)
    interior_mask = np.ones(n_dof, dtype=bool)
    interior_mask[boundary_idx] = False
    interior_idx = np.flatnonzero(interior_mask)

    a_ii = energy[interior_idx][:, interior_idx].tocsc()
    lu = spla.splu(a_ii)
    _condition_guard(a_ii, lu)

    return PolarOperator(mesh=mesh, n_r=n_r, energy=energy,
                         interior_idx=interior_idx, boundary_idx=boundary_idx,
                         lu=lu, node_r=node_r, node_theta=node_theta,
                         node_weight=node_weight)


def _condition_guard(a_ii, lu):
    norm_a = spla.norm(a_ii, 1)
    inv_op = spla.LinearOperator(a_ii.shape, matvec=lu.solve,
                                 rmatvec=lambda b: lu.solve(b, trans="H"),
                                 dtype=complex)
    norm_inv = spla.onenormest(inv_op)
    cond = norm_a * norm_inv
    if cond > _COND_LIMIT:
        raise NearSingular(
            f"interior operator condition estimate {cond:.2e} > {_COND_LIMIT:.0e}; "
            "0 is (numerically) a Dirichlet eigenvalue"
        )


@dataclass
class PolarSolution:
    """Interior solution on the polar grid; values[i, j] at radius r_i, angle theta_j.

    Row 0 is the (replicated) center value, row n_r the boundary data.
    """

    op: PolarOperator
    full: np.ndarray      # dof vector

    @property
    def values(self):
        m = self.op.mesh.n_nodes
        n_r = self.op.n_r
        rings = self.full[: n_r * m].reshape(n_r, m)
        center = np.full((1, m), self.full[-1])
        return np.vstack([center, rings])

    def h1_norm(self) -> float:
        """Discrete H^1 norm via the Dirichlet energy plus the L^2 mass."""
        op = self.op
        lap = _laplacian_energy(op)
        grad = complex(self.full @ (lap @ self.full.conj()))
        mass = float(np.sum(np.abs(self.full) ** 2 * op.node_weight))
        return float(np.sqrt(abs(grad.real) + mass))


_LAP_CACHE: dict = {}


def _laplacian_energy(op: PolarOperator):
    key = (op.mesh.mesh_hash(), op.n_r)
    if key not in _LAP_CACHE:
        base = assemble_polar_operator(None, op.mesh, op.n_r)
        _LAP_CACHE[key] = base.energy
    return _LAP_CACHE[key]


def solve_dirichlet(V, f, mesh: BoundaryMesh, n_r: int = 128,
                    op: PolarOperator | None = None) -> PolarSolution:
    """Solve Lap u = V u with u = f on the mesh nodes.

    f is a length-n_nodes complex vector of nodal Dirichlet data.  Pass a
    pre-assembled ``op`` to reuse the factorization across traces.
    """
    if op is None:
        op = assemble_polar_operator(V, mesh, n_r)
    f = np.asarray(f, dtype=np.complex128)
    if f.shape != (mesh.n_nodes,):
        raise ValueError("boundary data must have one value per mesh node")
    a_ib = op.energy[op.interior_idx][:, op.boundary_idx]
    rhs = -a_ib @ f
    u_int = op.lu.solve(rhs)
    full = np.empty(op.n_dof, dtype=np.complex128)
    full[op.interior_idx] = u_int
    full[op.boundary_idx] = f
    return PolarSolution(op=op, full=full)


class DtnMatrix:
    """Discrete DtN operator on nodal boundary values."""

    def __init__(self, entries: np.ndarray, mesh: BoundaryMesh, potential_tag: str,
                 grid_params: dict | None = None):
        m = mesh.n_nodes
        entries = np.asarray(entries, dtype=np.complex128)
        if entries.shape != (m, m):
            raise ValueError("DtN matrix shape must match the mesh")
        self.entries = entries
        self.mesh = mesh
        self.potential_tag = potential_tag
        self.grid_params = dict(grid_params or {})

    def apply(self, f):
        return self.entries @ np.asarray(f, dtype=np.complex128)

    def pair(self, f, g) -> complex:
        """Boundary pairing int (Dtn f) g with the mesh arc weights (no conjugation)."""
        return complex(np.sum(self.mesh.arc_weights * self.apply(f) * np.asarray(g)))

    def symmetry_defect(self) -> float:
        a = self.entries
        return float(np.linalg.norm(a - a.T) / max(np.linalg.norm(a), 1e-300))


def dtn_matrix(V, mesh: BoundaryMesh, n_r: int = 128, potential_tag: str = "",
               op: PolarOperator | None = None) -> DtnMatrix:
    """Assemble the DtN matrix column by column from nodal hat data.

    Column k holds the nodal values of Lambda applied to the k-th hat
    function; the entries come from the energy pairing with the solved
    interior fields, so the matrix is complex-symmetric by construction.
    """
    if op is None:
        op = assemble_polar_operator(V, mesh, n_r)
    m = mesh.n_nodes
    a_ib = op.energy[op.interior_idx][:, op.boundary_idx].tocsc()
    # solve all hat columns against one factorization
    rhs = -a_ib.toarray()
    u_int = op.lu.solve(rhs)
    full = np.zeros((op.n_dof, m), dtype=np.complex128)
    full[op.interior_idx, :] = u_int
    full[op.boundary_idx, :] = np.eye(m)
    gram = full.T @ (op.energy @ full)
    omega = mesh.arc_weights[0]
    return DtnMatrix(gram / omega, mesh, potential_tag,
                     grid_params={"n_r": op.n_r, "n_nodes": m})


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


def cache_key(potential_hash: str, mesh: BoundaryMesh, n_r: int) -> str:
    blob = f"{potential_hash}|{mesh.mesh_hash()}|{n_r}".encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def save_dtn(path, dtn: DtnMatrix):
    header = {
        "mesh_hash": dtn.mesh.mesh_hash(),
        "mesh": {"center": list(dtn.mesh.center), "radius": dtn.mesh.radius,
                 "n_nodes": dtn.mesh.n_nodes},
        "potential_tag": dtn.potential_tag,
        "grid_params": dtn.grid_params,
    }
    write_blob(path, _MAGIC, header, dtn.entries)


def load_dtn(path) -> DtnMatrix:
    header, entries = read_blob(path, _MAGIC)
    mesh = BoundaryMesh(center=tuple(header["mesh"]["center"]),
                        radius=header["mesh"]["radius"],
                        n_nodes=header["mesh"]["n_nodes"])
    return DtnMatrix(entries, mesh, header["potential_tag"], header["grid_params"])


def dtn_matrix_cached(cache_dir, potential_hash: str, V, mesh: BoundaryMesh,
                      n_r: int = 128, potential_tag: str = "") -> DtnMatrix:
    """Content-addressed cache wrapper around dtn_matrix."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, cache_key(potential_hash, mesh, n_r) + ".dtn")
    if os.path.exists(path):
        return load_dtn(path)
    dtn = dtn_matrix(V, mesh, n_r=n_r, potential_tag=potential_tag)
    save_dtn(path, dtn)
    return dtn
