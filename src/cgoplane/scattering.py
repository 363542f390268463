"""Fixed-energy scattering: outgoing kernel, Lippmann-Schwinger solver, far field.

The outgoing fundamental solution of (-Lap - k^2) in the plane is
(i/4) H0^(1)(k |x - y|), evaluated as (i/4) (J0 + i Y0) with scipy's Cephes
Bessel functions ``j0`` and ``y0`` (several times faster than
``scipy.special.hankel1`` on the dense Nystrom distance matrix).

The integral equation u = e^{ik x.theta} - G0 * (V u) is discretized by
Nystrom collocation on the uniform grid with a singularity-corrected
diagonal: the log kernel is integrated in local polar coordinates over the
equal-area disk of one cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy import special
from scipy.linalg.lapack import zgecon

from .errors import CutoffExceedsNyquist, DomainError, NearSingular
from .grid import ComplexField, FourierGrid

_EULER_GAMMA = 0.5772156649015328606
_COND_LIMIT = 1e12


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
    condition: float

    def field(self) -> ComplexField:
        n = self.grid.n_per_side
        return ComplexField(self.grid, self.u.reshape(n, n))


class _NystromSystem:
    """Dense Nystrom matrix I + G W V with its factorization, reused across theta."""

    def __init__(self, V: ComplexField, k: float):
        g = V.grid
        n = g.n_per_side
        if n > 128:
            raise ValueError("dense Nystrom solve limited to grids up to 128 per side")
        self.grid = g
        self.k = float(k)
        pts1 = g.Z1.ravel()
        pts2 = g.Z2.ravel()
        self.pts = np.stack([pts1, pts2], axis=-1)
        self.v = V.values.ravel()
        h = g.h

        dx = pts1[:, None] - pts1[None, :]
        dy = pts2[:, None] - pts2[None, :]
        dist = np.sqrt(dx * dx + dy * dy)
        del dx, dy
        np.fill_diagonal(dist, 1.0)
        kern = green0(dist, k) * h * h
        del dist
        # diagonal: integrate the small-argument kernel over the equal-area disk
        rho = h / np.sqrt(np.pi)
        log_int = h * h * (np.log(rho) - 0.5)  # int of ln|y| over the cell
        diag = 0.25j * h * h - (1.0 / (2 * np.pi)) * (
            h * h * (np.log(k / 2.0) + _EULER_GAMMA) + log_int
        )
        np.fill_diagonal(kern, diag)

        a = np.eye(len(self.v), dtype=complex) + kern * self.v[None, :]
        self._a = a
        anorm = np.linalg.norm(a, 1)
        self._lu, self._piv = sla.lu_factor(a)
        rcond, info = zgecon(self._lu, anorm)
        if info != 0:
            raise NearSingular(f"LAPACK zgecon failed (info={info}); no condition estimate")
        self.condition = 1.0 / max(float(rcond), 1e-300)
        if self.condition > _COND_LIMIT:
            raise NearSingular(
                f"Nystrom system condition estimate {self.condition:.2e}; "
                "k^2 is (numerically) a resonance of the discretization"
            )

    def solve(self, theta) -> ScatterSolution:
        theta = np.asarray(theta, float)
        theta = theta / np.hypot(theta[0], theta[1])
        inc = np.exp(1j * self.k * (self.pts @ theta))
        u = sla.lu_solve((self._lu, self._piv), inc)
        res = float(np.linalg.norm(self._a @ u - inc) / np.linalg.norm(inc))
        return ScatterSolution(grid=self.grid, k=self.k, theta=theta, u=u,
                               residual=res, condition=self.condition)


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
    """Assemble A_V on the full angular grid; one factorization, many directions."""
    system = _NystromSystem(V, k)
    etas = 2 * np.pi * np.arange(n_eta) / n_eta
    thetas = 2 * np.pi * np.arange(n_theta) / n_theta
    g = V.grid
    pts = np.stack([g.Z1.ravel(), g.Z2.ravel()], axis=-1)
    eta_vecs = np.stack([np.cos(etas), np.sin(etas)], axis=-1)
    recv = np.exp(-1j * k * (eta_vecs @ pts.T)) * (g.h**2 * V.values.ravel())[None, :]
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
