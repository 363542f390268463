"""Correctness checks on the outputs of the benchmark's operations.

Each check compares against a closed form computed here, apart from the
program, or against a property the method must have.  None compares
against stored output.  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- interior-jump -----------------------------------------------------------

def disk_truth(x, radius, value):
    """Closed form of the piecewise-constant disk potential at x."""
    return complex(value) if np.hypot(x[0], x[1]) < radius else 0.0j


def sweep_limits_within(values, truths, max_abs, bound=0.15):
    """Mean of the last three lambdas per probe within ``bound`` * max|V| of V(x).

    ``values[i]`` holds probe i's interior values in increasing lambda.
    Returns the worst error as a share of max|V|.
    """
    worst = 0.0
    for vals, truth in zip(values, truths):
        limit = complex(np.mean(np.asarray(vals[-3:], dtype=complex)))
        worst = max(worst, abs(limit - truth) / max_abs)
    _require(worst <= bound,
             f"sweep limit off by {worst:.4f} of max|V| (bound {bound})")
    return worst


def fixed_point_residual(s1_apply, V, p, w, tol):
    """Grid L^2 norm of S1[V(1+w)] - w; the solver promises at most ``tol``."""
    res = float(V.grid.h * np.linalg.norm(s1_apply(V * (1 + w), p).values - w.values))
    _require(res <= tol, f"correction field residual {res:.3e} > tol {tol:.1e}")
    return res


# -- dtn-stability -----------------------------------------------------------

def complex_symmetric(entries, tol=1e-6):
    a = np.asarray(entries)
    defect = float(np.linalg.norm(a - a.T) / max(np.linalg.norm(a), 1e-300))
    _require(defect <= tol, f"DtN symmetry defect {defect:.2e} > {tol:.0e}")
    return defect


def disk_spectrum(entries, theta, radius, n_max=8, tol=0.05):
    """Zero-potential DtN on a disk: Fourier mode n has eigenvalue |n| / R."""
    m = len(theta)
    worst = 0.0
    for n in range(-n_max, n_max + 1):
        if n == 0:
            continue
        e = np.exp(1j * n * np.asarray(theta))
        rayleigh = complex(np.vdot(e, np.asarray(entries) @ e)) / m
        worst = max(worst, abs(rayleigh - abs(n) / radius) / (abs(n) / radius))
    _require(worst <= tol, f"disk DtN eigenvalues off by {worst:.4f} (bound {tol})")
    return worst


def bit_identical(hit, miss):
    hit = np.ascontiguousarray(hit)
    miss = np.ascontiguousarray(miss)
    _require(hit.dtype == miss.dtype and hit.shape == miss.shape
             and hit.tobytes() == miss.tobytes(),
             "cache hit differs from the matrix the miss assembled")


def strictly_decreasing(gaps):
    """Gaps listed for decreasing perturbation size must strictly decrease."""
    gaps = [float(g) for g in gaps]
    _require(all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] > 0,
             f"DtN gaps do not strictly decrease with delta: {gaps}")


def routes_agree(boundary, interior, tol=0.02):
    _require(boundary is not None, "boundary-route sample refused")
    rel = abs(boundary - interior) / max(abs(interior), 1e-300)
    _require(rel <= tol, f"routes disagree by {rel:.3e} (bound {tol})")
    return rel


# -- far-field ---------------------------------------------------------------

def reciprocity(samples, tol=1e-10):
    """A(eta, theta) = A(-theta, -eta) on the uniform angle grid."""
    a = np.asarray(samples)
    n_eta, n_theta = a.shape
    _require(n_eta == n_theta and n_eta % 2 == 0, "reciprocity needs a square even grid")
    half = n_eta // 2
    idx = (np.arange(n_eta) + half) % n_eta
    swapped = a[np.ix_(idx, idx)].T          # swapped[i, j] = a[j + half, i + half]
    rel = float(np.max(np.abs(a - swapped)) / np.max(np.abs(a)))
    _require(rel <= tol, f"reciprocity defect {rel:.2e} > {tol:.0e}")
    return rel


def born_amplitude(eps, k, sigma, center, n_angles):
    """Closed-form Born amplitude of eps * exp(-|x - c|^2 / (2 sigma^2))."""
    ang = 2 * np.pi * np.arange(n_angles) / n_angles
    d1 = np.cos(ang)[:, None] - np.cos(ang)[None, :]
    d2 = np.sin(ang)[:, None] - np.sin(ang)[None, :]
    xi1, xi2 = k * d1, k * d2
    return (eps * 2 * np.pi * sigma**2 * np.exp(-sigma**2 * (xi1**2 + xi2**2) / 2)
            * np.exp(-1j * (xi1 * center[0] + xi2 * center[1])))


def born_mismatch(samples, born):
    """Worst pointwise relative distance to the Born amplitude."""
    return float(np.max(np.abs(np.asarray(samples) - born) / np.abs(born)))


def born_halving(mismatch_hi, mismatch_lo, lo=1.5, hi=2.5):
    """Halving eps halves the Born mismatch: the ratio lies in [lo, hi]."""
    ratio = mismatch_hi / mismatch_lo
    _require(lo <= ratio <= hi, f"Born mismatch ratio {ratio:.3f} outside [{lo}, {hi}]")
    return ratio


def k_norm_single_coefficients(k_norm, from_samples, size=64, cutoff=8):
    """The weighted norm of c e^{i(n eta + m theta)} is |c| w_n^{1/2} w_m^{1/2}.

    The modes lie on the axes, where the FFT of the samples is exact.  With a
    mode off both axes the FFT's roundoff in the other coefficients, times the
    weights, moves the norm by 8e-8 relative at (1, 1), k = 4.
    """
    ang = 2 * np.pi * np.arange(size) / size
    c = 0.4 - 0.3j
    for n, m, k in ((0, 0, 7.0), (1, 0, 3.0), (0, -3, 5.0), (4, 0, 4.0), (0, 7, 6.0)):
        samples = c * np.exp(1j * (n * ang[:, None] + m * ang[None, :]))
        got = float(k_norm(from_samples(k, samples), cutoff=cutoff).value)
        want = abs(c) * ((3 + 3 * abs(n)) / k) ** abs(n) * ((3 + 3 * abs(m)) / k) ** abs(m)
        _require(abs(got - want) <= 1e-12 * want,
                 f"k_norm of coefficient ({n}, {m}) at k={k}: {got!r}, want {want!r}")
