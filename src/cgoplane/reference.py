"""Independent reference values for the diagonal-rhombus failure example.

Everything here deliberately avoids the FFT/CGO machinery.  Coordinates
rotate to u = z1 + z2, v = z1 - z2, where the rhombus with vertices (0,0),
(1,1), (2,0), (1,-1) becomes the square [0,2]^2 with area element du dv / 2
and the phase seen from x = (-t,-t) factors as (u + 2t) v.  Integrating over
v and substituting s = 2 lam (u + 2t) turns the functional into
(1/2 pi i) int_a^b (e^{is} - 1) ds / s with a = 4 lam t, b = 4 lam (1 + t),
which is exact in sine and cosine integrals (Abramowitz & Stegun 5.2; DLMF
6.2).  Its lam -> infinity limit is i/(2 pi) * log(1 + 1/t), the corrected
candidate below; the oracle is the finite-lam value averaged over
``ORACLE_LAMBDAS``.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.special import sici

ORACLE_LAMBDAS = (160.0, 224.0, 288.0)


def rhombus_functional(lam: float, t: float) -> complex:
    """(lam / 2 pi) int_0^2 int_0^2 exp(i lam (u + 2t) v) du dv, in closed form."""
    si_a, ci_a = sici(4.0 * lam * t)
    si_b, ci_b = sici(4.0 * lam * (1.0 + t))
    return complex((ci_b - ci_a + 1j * (si_b - si_a) - np.log1p(1.0 / t)) / (2j * np.pi))


def oracle_limit(t: float) -> complex:
    """Limit estimate: the exact functional averaged over ``ORACLE_LAMBDAS``."""
    return complex(np.mean([rhombus_functional(lam, t) for lam in ORACLE_LAMBDAS]))


def side_phase_claims(t: float):
    """The four side parametrizations with the claimed restricted phases."""
    return (
        ("l1", lambda s: (s, s), lambda s: 0.0 * s),
        ("l2", lambda s: (1 + s, 1 - s), lambda s: 4 * s * (t + 1)),
        ("l3", lambda s: (2 - s, -s), lambda s: 4 * (t - s + 1)),
        ("l4", lambda s: (1 - s, s - 1), lambda s: 4 * t * (1 - s)),
    )


def side_phase_max_error(t: float) -> float:
    """Max deviation of phi_x on the four sides from the closed forms, at 257 points each."""
    s = np.linspace(0.0, 1.0, 257)
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
