"""Independent reference values for the diagonal-rhombus failure example.

Everything here deliberately avoids the FFT/CGO machinery.  Coordinates
rotate to u = z1 + z2, v = z1 - z2, where the rhombus with vertices (0,0),
(1,1), (2,0), (1,-1) becomes the square [0,2]^2 with area element du dv / 2
and the phase seen from x = (-t,-t) factors as (u + 2t) v.  The brute-force
oracle is a plain 2D Simpson sum of the oscillatory integrand on that
square.  In closed form the same integral reduces to sine/cosine integrals
with the limit value i/(2 pi) * log(1 + 1/t), the corrected candidate below.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

# oracle resolution: samples per oscillation of the phase, and v-rows per block
_PTS_PER_OSC = 16
_CHUNK_ROWS = 2048


def brute_force_functional(lam: float, t: float) -> complex:
    """2D Simpson quadrature of the oscillatory rhombus integral, rotated frame.

    Resolution follows the phase gradients: lam*(u+2t) along v and lam*v
    along u, with ``_PTS_PER_OSC`` samples per oscillation.
    """
    grad_u = 2.0 * lam          # max |d phase / du| = lam * max v
    grad_v = lam * (2.0 + 2.0 * t)
    n_u = int(max(_PTS_PER_OSC * grad_u * 2.0 / (2 * np.pi), 512)) | 1
    n_v = int(max(_PTS_PER_OSC * grad_v * 2.0 / (2 * np.pi), 512)) | 1
    u = np.linspace(0.0, 2.0, n_u)
    v = np.linspace(0.0, 2.0, n_v)
    wu = _simpson_weights(n_u) * (2.0 / (n_u - 1))
    wv = _simpson_weights(n_v) * (2.0 / (n_v - 1))
    total = 0.0 + 0.0j
    for lo in range(0, n_v, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n_v)
        block = np.exp(1j * lam * np.outer(v[lo:hi], u + 2.0 * t))
        total += (wv[lo:hi] @ block) @ wu
    return complex(lam / np.pi * 0.5 * total)


def _simpson_weights(n):
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def oracle_limit(t: float, lams=(160.0, 224.0, 288.0)) -> complex:
    """Brute-force limit estimate: sweep-average of the oscillatory quadrature."""
    vals = [brute_force_functional(lam, t) for lam in lams]
    return complex(np.mean(vals))


def side_phase_claims(t: float):
    """The four side parametrizations with the claimed restricted phases."""
    return (
        ("l1", lambda s: (s, s), lambda s: 0.0 * s),
        ("l2", lambda s: (1 + s, 1 - s), lambda s: 4 * s * (t + 1)),
        ("l3", lambda s: (2 - s, -s), lambda s: 4 * (t - s + 1)),
        ("l4", lambda s: (1 - s, s - 1), lambda s: 4 * t * (1 - s)),
    )


def side_phase_max_error(t: float, n: int = 257) -> float:
    """Max deviation of phi_x on the four sides from the closed forms."""
    s = np.linspace(0.0, 1.0, n)
    worst = 0.0
    for _, param, claimed in side_phase_claims(t):
        z1, z2 = param(s)
        phi = (np.asarray(z1) + t) ** 2 - (np.asarray(z2) + t) ** 2
        worst = max(worst, float(np.max(np.abs(phi - claimed(s)))))
    return worst


def diagonal_line_integral(t: float) -> tuple[float, float]:
    """Quadrature and closed form of int_0^1 -sqrt(2)/(4(s+t)) ds.

    This is the flat-side line integral in the parameter measure (the
    arc-length Jacobian sqrt(2) is the subject of the constant discrepancy;
    see the candidate constants below).
    """
    val, _ = quad(lambda s: -np.sqrt(2.0) / (4.0 * (s + t)), 0.0, 1.0,
                  epsabs=1e-13, epsrel=1e-13)
    closed = np.sqrt(2.0) / 4.0 * (np.log(t) - np.log(t + 1.0))
    return float(val), float(closed)


def candidate_constants(t: float) -> dict:
    """The two candidate limit values for the reconstructed potential at (-t,-t)."""
    log_term = np.log(1.0 + 1.0 / t)
    return {
        "printed_sqrt2_over_4pi": complex(1j * np.sqrt(2.0) / (4 * np.pi) * log_term),
        "jacobian_corrected_1_over_2pi": complex(1j / (2 * np.pi) * log_term),
    }
