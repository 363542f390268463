"""Fixed-energy scattering: outgoing kernel, Lippmann-Schwinger solver, far field.

The outgoing fundamental solution of (-Lap - k^2) in the plane is
(i/4) H0^(1)(k |x - y|), evaluated as (i/4) (J0 + i Y0) with scipy's Cephes
Bessel functions ``j0`` and ``y0``.

The integral equation u = e^{ik x.theta} - G0 * (V u) is discretized by
Nystrom collocation on the uniform grid with a singularity-corrected
diagonal: the log kernel is integrated in local polar coordinates over the
equal-area disk of one cell.  The kernel depends only on the index offset, so
the operator is applied by FFT on a 2n x 2n circulant embedding and solved by
GMRES (Vainikko 2000; Saad & Schultz 1986).

The far-field dataset solves once per angular Fourier mode of the incident
waves, not once per direction.  Over n equispaced directions the DFT gives
e^{ik x.theta_j} = sum_m B_m(x) e^{2 pi i m j / n} exactly, and B_m is the
Jacobi-Anger term i^m J_m(k|x|) e^{-im phi} up to aliasing (Colton & Kress,
Inverse Acoustic and Electromagnetic Scattering Theory).  Only the modes
above the roundoff budget are solved; their solutions are the total fields
of the Fourier-Bessel incident waves that the T-matrix is built from.  Every
direction's true residual is still checked against a freshly computed
incident wave.  A is linear, so A u_j = (A X) E_j: the kept solutions X are
replaced in place by A X, one matvec per kept mode instead of one per
direction, and each direction then costs one matrix-vector product.

Plane waves are never exponentiated on the whole grid: e^{ik x.d} =
e^{ik z1 d1} e^{ik z2 d2} is the outer product of two 1-D factors
(``plane_waves``), for the incident waves, the receivers and the residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft, special
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import CutoffExceedsNyquist, DomainError, NearSingular
from .grid import ComplexField, FourierGrid, _is_pow2, fft2, ifft2, support_box

_GMRES_TOL = 1e-13      # relative residual ||A u - inc|| / ||inc|| every solve must reach
_GMRES_RESTART = 30
_GMRES_MAXITER = 10     # restart cycles: at most 300 iterations per solve
_RECEIVER_BLOCK = 16    # far-field receiver rows formed and multiplied per GEMM


def green0(dist, k):
    """Outgoing Green's function (i/4) H0^(1)(k * dist); dist > 0."""
    d = np.asarray(dist, float)
    if np.any(d <= 0):
        raise DomainError("green0 needs a positive distance")
    x = d * k
    return 0.25j * (special.j0(x) + 1j * special.y0(x))


def plane_waves(grid: FourierGrid, k: float, dirs) -> np.ndarray:
    """e^{ik x.d} at the nodes in grid order (index i2*n + i1), one column per direction.

    dirs is one direction of shape (2,) or a stack of shape (J, 2); the result has shape
    (n^2,) or (n^2, J).  The phase separates, e^{ik x.d} = e^{ik z2 d2} e^{ik z1 d1}, so
    each direction costs two exps of n values and an outer product, not an exp of n^2.
    """
    d = np.asarray(dirs, float)
    e1 = np.exp(1j * k * np.multiply.outer(grid.z1, d[..., 0]))
    e2 = np.exp(1j * k * np.multiply.outer(grid.z2, d[..., 1]))
    return (e2[:, None] * e1[None, :]).reshape((grid.n_per_side**2,) + d.shape[:-1])


@dataclass
class ScatterSolution:
    """Total field on the grid for one incident direction, plus diagnostics."""

    grid: FourierGrid
    k: float
    u: np.ndarray            # flattened field values (grid order)
    residual: float
    iterations: int          # GMRES iterations


class _NystromSystem:
    """Nystrom operator I + G h^2 V applied by FFT, reused across theta."""

    def __init__(self, V: ComplexField, k: float):
        g = V.grid
        n = g.n_per_side
        self.grid = g
        self.k = float(k)
        self.v = V.values
        box = support_box(V.values)
        # V's nonzero columns, the only ones the first transform of _apply reads
        self._cols = None if box is None else box[2:]
        h = g.h

        # the kernel on the (2n-1)^2 offset lattice, offset (0, 0) at [n-1, n-1]
        m = np.arange(1 - n, n)
        dist = h * np.hypot(m[:, None], m[None, :])
        dist[n - 1, n - 1] = 1.0
        kern = green0(dist, k) * h * h
        # diagonal: integrate the small-argument kernel over the equal-area disk
        log_int = h * h * (np.log(h / np.sqrt(np.pi)) - 0.5)  # int of ln|y| over the cell
        kern[n - 1, n - 1] = 0.25j * h * h - (1.0 / (2 * np.pi)) * (
            h * h * (np.log(k / 2.0) + np.euler_gamma) + log_int)
        circ = np.zeros((2 * n, 2 * n), dtype=complex)
        circ[np.ix_(m % (2 * n), m % (2 * n))] = kern
        self._kern_hat = fft2(circ)

    def _apply(self, u):
        """(I + G h^2 V) u by pad -> fft2 -> multiply -> ifft2 -> crop.

        The forward transform reads only V's columns and the inverse computes
        only the first n rows, the ones the crop keeps; both are bit-identical
        to the full transforms (grid.fft2, grid.ifft2).
        """
        n = self.grid.n_per_side
        u = u.reshape(n, n)
        pad = np.zeros((2 * n, 2 * n), dtype=complex)
        pad[:n, :n] = self.v * u
        # all in pad's memory, spectrum * kernel in that order: complex products
        # are not bit-for-bit commutative
        spec = fft2(pad, overwrite_x=True, cols=self._cols)
        spec *= self._kern_hat
        conv = ifft2(spec, overwrite_x=True, rows=(0, n))[:, :n]
        return (u + conv).ravel()

    def solve_to(self, b, rtol):
        """GMRES on A u = b to relative tolerance rtol; returns u and the iteration count."""
        steps = []
        # built per call: an operator held on self would tie self into a reference cycle,
        # and the kernel transform would outlive the system until a full gc pass
        op = LinearOperator((b.size, b.size), matvec=self._apply, dtype=complex)
        u, _ = gmres(op, b, rtol=rtol, restart=_GMRES_RESTART,
                     maxiter=_GMRES_MAXITER, callback=steps.append,
                     callback_type="pr_norm")
        return u, len(steps)

    @staticmethod
    def checked_residual(Au, inc, iterations) -> float:
        """True relative residual ||A u - inc|| / ||inc|| from the product A u; NearSingular
        above _GMRES_TOL."""
        res = float(np.linalg.norm(Au - inc) / np.linalg.norm(inc))
        if not res <= _GMRES_TOL:
            raise NearSingular(f"GMRES left relative residual {res:.2e} > {_GMRES_TOL:.0e} "
                               f"after {iterations} iterations; k^2 is near a resonance")
        return res

    def solve(self, theta) -> ScatterSolution:
        theta = np.asarray(theta, float)
        theta = theta / np.hypot(theta[0], theta[1])
        inc = plane_waves(self.grid, self.k, theta)
        u, iterations = self.solve_to(inc, _GMRES_TOL)
        return ScatterSolution(grid=self.grid, k=self.k, u=u,
                               residual=self.checked_residual(self._apply(u), inc, iterations),
                               iterations=iterations)


def solve_lippmann_schwinger(V: ComplexField, k: float, theta) -> ScatterSolution:
    """Nystrom solution of the scattering integral equation for one direction."""
    return _NystromSystem(V, k).solve(theta)


def far_field(V: ComplexField, eta, solution: ScatterSolution) -> complex:
    """Scattering amplitude A_V(eta, theta) by grid quadrature, from the total field
    ``solution`` that solve_lippmann_schwinger gave for V at its k and theta."""
    g = solution.grid
    if not g.same_as(V.grid):
        raise DomainError(f"V lives on {V.grid!r}, the solution on {g!r}")
    eta = np.asarray(eta, float)
    eta = eta / np.hypot(eta[0], eta[1])
    phase = plane_waves(g, solution.k, -eta)
    return complex(g.h**2 * np.sum(phase * V.values.ravel() * solution.u))


@dataclass
class FarFieldData:
    """Angular samples A(eta_i, theta_j) and their Fourier coefficients."""

    k: float
    samples: np.ndarray
    coeffs: np.ndarray

    @staticmethod
    def angle_grid(shape) -> tuple[int, int]:
        """(n_eta, n_theta) of a sample or coefficient array; DomainError unless both
        are powers of two >= 64."""
        if len(shape) != 2 or any(n < 64 or not _is_pow2(n) for n in shape):
            raise DomainError(f"angle grid {tuple(shape)} is not two powers of two >= 64")
        return shape

    @classmethod
    def from_samples(cls, k, samples):
        samples = np.asarray(samples, dtype=complex)
        n_eta, n_theta = cls.angle_grid(samples.shape)
        coeffs = np.fft.fft2(samples) / (n_eta * n_theta)
        return cls(k=float(k), samples=samples, coeffs=coeffs)


def compute_far_field_data(V: ComplexField, k: float, n_eta: int = 64,
                           n_theta: int = 64) -> FarFieldData:
    """Assemble A_V on the full angular grid by one solve per angular mode of the incident waves.

    The DFT over the equispaced directions writes inc_j = sum_m B_m e^{2 pi i m j / n_theta}
    exactly.  Modes whose norms sum to at most tol/2 * ||inc|| are dropped, and the rest are
    solved to a common relative tolerance whose residuals sum to at most tol/2 * ||inc||, so
    every direction's residual stays under tol = _GMRES_TOL; each is checked all the same,
    as ||(A X) E_j - inc_j|| / ||inc_j|| from one matvec per kept mode.
    """
    grid = V.grid
    system = _NystromSystem(V, k)
    thetas = 2 * np.pi * np.arange(n_theta) / n_theta
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
    # incident waves as columns, transformed in place into the modes B_m
    modes = plane_waves(grid, k, dirs)
    modes = sfft.fft(modes, axis=1, norm="forward", overwrite_x=True)
    mode_norm = np.linalg.norm(modes, axis=0)
    budget = 0.5 * _GMRES_TOL * np.sqrt(len(modes))
    order = np.argsort(mode_norm)
    keep = np.sort(order[np.cumsum(mode_norm[order]) > budget])
    rtol = budget / np.sum(mode_norm[keep])
    X = np.empty((len(modes), len(keep)), dtype=complex)
    iterations = 0
    for col, m in enumerate(keep):
        X[:, col], its = system.solve_to(modes[:, m], rtol)
        iterations = max(iterations, its)
    del modes

    weights = grid.h**2 * V.values.ravel()
    etas = 2 * np.pi * np.arange(n_eta) / n_eta
    receivers = -np.stack([np.cos(etas), np.sin(etas)], axis=-1)
    RX = np.empty((n_eta, len(keep)), dtype=complex)
    for i in range(0, n_eta, _RECEIVER_BLOCK):
        rows = plane_waves(grid, k, receivers[i:i + _RECEIVER_BLOCK]).T
        rows *= weights
        RX[i:i + _RECEIVER_BLOCK] = rows @ X

    # exact DFT phases: the integer product m*j is reduced before it becomes an angle
    E = np.exp(2j * np.pi * (np.outer(keep, np.arange(n_theta)) % n_theta) / n_theta)
    # A is linear, so A u_j = (A X) E_j: X becomes A X in place, one matvec per kept mode
    for col in range(len(keep)):
        X[:, col] = system._apply(X[:, col])
    for j, d in enumerate(dirs):
        system.checked_residual(X @ E[:, j], plane_waves(grid, k, d), iterations)
    return FarFieldData.from_samples(k, RX @ E)


@dataclass(frozen=True)
class KNormResult:
    value: float
    tail: float      # plain l2 magnitude of unweighted coefficients beyond the cutoff


def k_norm(F: FarFieldData, cutoff: int = 10) -> KNormResult:
    """Severity-weighted coefficient norm with weights ((3+3|n|)/k)^{2|n|}.

    Truncated at |n|, |m| <= cutoff; the discarded coefficients are reported
    unweighted as the tail.  At the default cutoff the weights stay below 2.2e18 at
    k = 4, so the coefficients' roundoff floor (about 5e-19) stays far below the value;
    at cutoff 32 they reach 1.5e89 and roundoff sets the value.
    """
    n_eta, n_theta = F.samples.shape
    nyq = min(n_eta, n_theta) // 2 - 1
    if cutoff > nyq:
        raise CutoffExceedsNyquist(f"cutoff {cutoff} exceeds angular Nyquist {nyq}")
    n_idx = np.fft.fftfreq(n_eta, d=1.0 / n_eta).astype(int)
    m_idx = np.fft.fftfreq(n_theta, d=1.0 / n_theta).astype(int)
    keep_n = np.abs(n_idx) <= cutoff
    keep_m = np.abs(m_idx) <= cutoff
    # weights only inside the cutoff window; outside they may overflow anyway
    wn = np.where(keep_n, ((3.0 + 3.0 * np.abs(n_idx)) / F.k) ** (2 * np.abs(n_idx) * keep_n), 0.0)
    wm = np.where(keep_m, ((3.0 + 3.0 * np.abs(m_idx)) / F.k) ** (2 * np.abs(m_idx) * keep_m), 0.0)
    mask = keep_n[:, None] & keep_m[None, :]
    amp2 = np.abs(F.coeffs) ** 2
    value = float(np.sqrt(np.sum(wn[:, None] * wm[None, :] * amp2)))
    tail = float(np.sqrt(np.sum(amp2 * ~mask)))
    return KNormResult(value=value, tail=tail)
