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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import CutoffExceedsNyquist, DomainError, NearSingular
from .grid import ComplexField, FourierGrid, fft2, ifft2

_EULER_GAMMA = 0.5772156649015328606
_GMRES_TOL = 1e-13      # relative residual ||A u - inc|| / ||inc|| every solve must reach
_GMRES_RESTART = 30
_GMRES_MAXITER = 10     # restart cycles: at most 300 iterations per direction


def green0(dist, k):
    """Outgoing Green's function (i/4) H0^(1)(k * dist); dist > 0."""
    d = np.asarray(dist, float)
    if np.any(d <= 0):
        raise DomainError("green0 needs a positive distance")
    scalar = np.isscalar(dist)
    x = d * k
    val = 0.25j * (special.j0(x) + 1j * special.y0(x))
    return complex(val) if scalar and val.shape == () else val


@dataclass
class ScatterSolution:
    """Total field on the grid for one incident direction, plus diagnostics."""

    grid: FourierGrid
    k: float
    theta: np.ndarray
    u: np.ndarray            # flattened field values (grid order)
    residual: float
    iterations: int          # GMRES iterations

    def field(self) -> ComplexField:
        n = self.grid.n_per_side
        return ComplexField(self.grid, self.u.reshape(n, n))


class _NystromSystem:
    """Nystrom operator I + G h^2 V applied by FFT, reused across theta."""

    def __init__(self, V: ComplexField, k: float):
        g = V.grid
        n = g.n_per_side
        self.grid = g
        self.k = float(k)
        self.pts = np.stack([g.Z1.ravel(), g.Z2.ravel()], axis=-1)
        self.v = V.values
        h = g.h

        # the kernel on the (2n-1)^2 offset lattice, offset (0, 0) at [n-1, n-1]
        m = np.arange(1 - n, n)
        dist = h * np.hypot(m[:, None], m[None, :])
        dist[n - 1, n - 1] = 1.0
        kern = green0(dist, k) * h * h
        # diagonal: integrate the small-argument kernel over the equal-area disk
        log_int = h * h * (np.log(h / np.sqrt(np.pi)) - 0.5)  # int of ln|y| over the cell
        kern[n - 1, n - 1] = 0.25j * h * h - (1.0 / (2 * np.pi)) * (
            h * h * (np.log(k / 2.0) + _EULER_GAMMA) + log_int)
        circ = np.zeros((2 * n, 2 * n), dtype=complex)
        circ[np.ix_(m % (2 * n), m % (2 * n))] = kern
        self._kern_hat = fft2(circ)
        self._op = LinearOperator((n * n, n * n), matvec=self._apply, dtype=complex)

    def _apply(self, u):
        """(I + G h^2 V) u by pad -> fft2 -> multiply -> ifft2 -> crop."""
        n = self.grid.n_per_side
        u = u.reshape(n, n)
        pad = np.zeros((2 * n, 2 * n), dtype=complex)
        pad[:n, :n] = self.v * u
        conv = ifft2(self._kern_hat * fft2(pad))[:n, :n]
        return (u + conv).ravel()

    def solve(self, theta) -> ScatterSolution:
        theta = np.asarray(theta, float)
        theta = theta / np.hypot(theta[0], theta[1])
        inc = np.exp(1j * self.k * (self.pts @ theta))
        steps = []
        u, _ = gmres(self._op, inc, rtol=_GMRES_TOL, restart=_GMRES_RESTART,
                     maxiter=_GMRES_MAXITER, callback=steps.append,
                     callback_type="pr_norm")
        res = float(np.linalg.norm(self._apply(u) - inc) / np.linalg.norm(inc))
        if not res <= _GMRES_TOL:
            raise NearSingular(f"GMRES left relative residual {res:.2e} > {_GMRES_TOL:.0e} "
                               f"after {len(steps)} iterations; k^2 is near a resonance")
        return ScatterSolution(grid=self.grid, k=self.k, theta=theta, u=u,
                               residual=res, iterations=len(steps))


def solve_lippmann_schwinger(V: ComplexField, k: float, theta,
                             system: _NystromSystem | None = None) -> ScatterSolution:
    """Nystrom solution of the scattering integral equation for one direction."""
    if system is None:
        system = _NystromSystem(V, k)
    return system.solve(theta)


def far_field(V: ComplexField, k: float, eta, theta,
              solution: ScatterSolution | None = None,
              system: _NystromSystem | None = None) -> complex:
    """Scattering amplitude A_V(eta, theta) by grid quadrature."""
    if solution is None:
        solution = solve_lippmann_schwinger(V, k, theta, system=system)
    g = V.grid
    eta = np.asarray(eta, float)
    eta = eta / np.hypot(eta[0], eta[1])
    pts = np.stack([g.Z1.ravel(), g.Z2.ravel()], axis=-1)
    phase = np.exp(-1j * k * (pts @ eta))
    return complex(g.h**2 * np.sum(phase * V.values.ravel() * solution.u))


@dataclass
class FarFieldData:
    """Angular samples A(eta_i, theta_j) and their Fourier coefficients."""

    k: float
    n_eta: int
    n_theta: int
    samples: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def from_samples(cls, k, samples):
        samples = np.asarray(samples, dtype=complex)
        n_eta, n_theta = samples.shape
        for n in (n_eta, n_theta):
            if n < 64 or (n & (n - 1)) != 0:
                raise ValueError("angle grid sizes must be powers of two >= 64")
        coeffs = np.fft.fft2(samples) / (n_eta * n_theta)
        return cls(k=float(k), n_eta=n_eta, n_theta=n_theta,
                   samples=samples, coeffs=coeffs)

    def coeff(self, n, m) -> complex:
        return complex(self.coeffs[n % self.n_eta, m % self.n_theta])

    def consistency(self) -> float:
        """Max reconstruction error of samples from coeffs."""
        back = np.fft.ifft2(self.coeffs) * (self.n_eta * self.n_theta)
        return float(np.max(np.abs(back - self.samples)))


def compute_far_field_data(V: ComplexField, k: float, n_eta: int = 64,
                           n_theta: int = 64) -> FarFieldData:
    """Assemble A_V on the full angular grid; one kernel transform, many directions."""
    system = _NystromSystem(V, k)
    etas = 2 * np.pi * np.arange(n_eta) / n_eta
    thetas = 2 * np.pi * np.arange(n_theta) / n_theta
    eta_vecs = np.stack([np.cos(etas), np.sin(etas)], axis=-1)
    recv = np.exp(-1j * k * (eta_vecs @ system.pts.T)) * (V.grid.h**2 * V.values.ravel())[None, :]
    samples = np.empty((n_eta, n_theta), dtype=complex)
    for j, th in enumerate(thetas):
        sol = system.solve((np.cos(th), np.sin(th)))
        samples[:, j] = recv @ sol.u
    return FarFieldData.from_samples(k, samples)


@dataclass(frozen=True)
class KNormResult:
    value: float
    tail: float      # plain l2 magnitude of unweighted coefficients beyond the cutoff

    def __float__(self):
        return self.value


def k_norm(F: FarFieldData, cutoff: int = 32) -> KNormResult:
    """Severity-weighted coefficient norm with weights ((3+3|n|)/k)^{2|n|}.

    Truncated at |n|, |m| <= cutoff; the discarded coefficients are reported
    unweighted as the tail.
    """
    nyq_eta = F.n_eta // 2 - 1
    nyq_theta = F.n_theta // 2 - 1
    if cutoff > min(nyq_eta, nyq_theta):
        raise CutoffExceedsNyquist(
            f"cutoff {cutoff} exceeds angular Nyquist {min(nyq_eta, nyq_theta)}"
        )
    n_idx = np.fft.fftfreq(F.n_eta, d=1.0 / F.n_eta).astype(int)
    m_idx = np.fft.fftfreq(F.n_theta, d=1.0 / F.n_theta).astype(int)
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
