"""FFT construction of quadratic-phase correction fields and their oscillatory functionals.

Conventions
-----------
Points z = (z1, z2) are identified with z1 + i z2.  The quadratic phase
centered at x is

    psi_x(z) = (1/2) * ((z1 - x1) + i(z2 - x2))^2,

and the real oscillatory phase is phi_x = psi_x + conj(psi_x)
= (z1 - x1)^2 - (z2 - x2)^2.

Wirtinger derivatives act on plane waves e^{i xi . z} as multiplication by
(i/2)(xi1 - i xi2) for d/dz and (i/2)(xi1 + i xi2) for d/dzbar, so their
periodic inverses are the Fourier multipliers 2/(i(xi1 - i xi2)) and
2/(i(xi1 + i xi2)) with the zero mode set to 0.  These are good surrogates
for the Cauchy transforms of compactly supported fields as long as the
support keeps the side_len/4 padding margin of the grid.  Both multipliers
are cached per grid object, and e^{i lam phi_x} per (grid object, lam, x).

The correction field w = w_{lambda,x} solves the fixed-point equation

    w = (1/4) * dzbar_inv[ e^{-i lam phi} * dz_inv[ e^{+i lam phi} * V (1 + w) ] ],

iterated by plain Picard; failure to contract signals that lambda is below
the contraction threshold for the given potential.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonConvergence
from .grid import ComplexField, FourierGrid, check_padding_support, fft2, ifft2

SUPPORT_TOL = 1e-6


@dataclass(frozen=True)
class PhaseParams:
    """Phase frequency lambda and reconstruction point x."""

    lam: float
    x: tuple[float, float]

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        object.__setattr__(self, "x", (float(self.x[0]), float(self.x[1])))


def psi_at(z1, z2, x) -> np.ndarray:
    """psi_x at the points (z1, z2) (complex)."""
    zeta = (z1 - x[0]) + 1j * (z2 - x[1])
    return 0.5 * zeta * zeta


def psi_values(grid: FourierGrid, x) -> np.ndarray:
    """psi_x on the nodes (complex)."""
    return psi_at(grid.Z1, grid.Z2, x)


def phi_values(grid: FourierGrid, x) -> np.ndarray:
    """phi_x = psi_x + conj(psi_x) on the nodes (real)."""
    return (grid.Z1 - x[0]) ** 2 - (grid.Z2 - x[1]) ** 2


def _dz_symbol(grid):
    return 0.5j * (grid.XI1 - 1j * grid.XI2)


def _dzbar_symbol(grid):
    return 0.5j * (grid.XI1 + 1j * grid.XI2)


def _apply_multiplier(F: ComplexField, mult) -> ComplexField:
    return ComplexField(F.grid, ifft2(fft2(F.values) * mult))


def dz(F: ComplexField) -> ComplexField:
    """Spectral d/dz derivative."""
    return _apply_multiplier(F, _dz_symbol(F.grid))


def dzbar(F: ComplexField) -> ComplexField:
    """Spectral d/dzbar derivative."""
    return _apply_multiplier(F, _dzbar_symbol(F.grid))


@lru_cache(maxsize=4)
def _inverse_multiplier(grid: FourierGrid, symbol) -> np.ndarray:
    """1/symbol(grid), 0 at xi = 0; built once per (grid, symbol), read-only."""
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = 1.0 / symbol(grid)
    mult[0, 0] = 0.0
    # the Nyquist row/column has no conjugate partner on the lattice; zeroing
    # it keeps dzbar_inv(conj F) == conj(dz_inv F) exact for every field
    nyq = grid.n_per_side // 2
    mult[nyq, :] = mult[:, nyq] = 0.0
    mult.flags.writeable = False
    return mult


def dz_inv(F: ComplexField, check_support: bool = True) -> ComplexField:
    """Periodic inverse of d/dz; zero frequency of the result is 0.

    Applying the spectral d/dz to the result recovers F minus its grid mean.
    Rejects fields whose support touches the padding band.
    """
    if check_support:
        check_padding_support(F, SUPPORT_TOL)
    return _apply_multiplier(F, _inverse_multiplier(F.grid, _dz_symbol))


def dzbar_inv(F: ComplexField, check_support: bool = True) -> ComplexField:
    """Periodic inverse of d/dzbar; mirror of dz_inv with the conjugate symbol."""
    if check_support:
        check_padding_support(F, SUPPORT_TOL)
    return _apply_multiplier(F, _inverse_multiplier(F.grid, _dzbar_symbol))


def resolution_ok(grid: FourierGrid, lam: float) -> bool:
    """Oscillation-resolution condition lam * side^2 / n^2 <= 1/4."""
    return lam * grid.side_len**2 / grid.n_per_side**2 <= 0.25


@lru_cache(maxsize=1)
def _phase(grid: FourierGrid, p: PhaseParams) -> np.ndarray:
    """e^{i lam phi_x} on the nodes, built once per (grid, p), read-only."""
    phase = np.exp(1j * p.lam * phi_values(grid, p.x))
    phase.flags.writeable = False
    return phase


def phase_mul(F: ComplexField, p: PhaseParams, sign: int) -> ComplexField:
    """Multiply by e^{sign * i * lam * phi_x}; |result| = |F| pointwise.

    The grid covers exactly the auxiliary square, so the square cutoff is the
    identity here.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if not resolution_ok(F.grid, p.lam):
        warnings.warn(
            f"lam*side^2/n^2 = {p.lam * F.grid.side_len**2 / F.grid.n_per_side**2:.3g} "
            "> 1/4: oscillatory factor under-resolved on this grid",
            RuntimeWarning,
            stacklevel=2,
        )
    phase = _phase(F.grid, p)
    return ComplexField(F.grid, (phase if sign > 0 else phase.conj()) * F.values)


def s1_apply(F: ComplexField, p: PhaseParams, check_support: bool = True) -> ComplexField:
    """One pass of the smoothing operator behind the correction-field equation.

    Equals (1/4) dzbar_inv[e^{-i lam phi} dz_inv[e^{+i lam phi} F]].  The
    outer inverse acts on a field that fills the square by construction, so
    only the inner inverse checks the support of F.
    """
    inner = dz_inv(phase_mul(F, p, +1), check_support=check_support)
    outer = dzbar_inv(phase_mul(inner, p, -1), check_support=False)
    return ComplexField(outer.grid, 0.25 * outer.values)


def s1_adjoint(F: ComplexField, p: PhaseParams) -> ComplexField:
    """Adjoint of s1_apply in the grid L^2 pairing.

    Equals (1/4) e^{-i lam phi} dzbar_inv[e^{+i lam phi} dz_inv[F]]: on the
    lattice conj(1/sigma_z) = -1/sigma_zbar, so the adjoint of each inverse is
    minus the other one and the two signs cancel.
    """
    inner = phase_mul(dz_inv(F, check_support=False), p, +1)
    outer = phase_mul(dzbar_inv(inner, check_support=False), p, -1)
    return ComplexField(outer.grid, 0.25 * outer.values)


def solve_w(
    V: ComplexField,
    p: PhaseParams,
    tol: float = 1e-8,
    max_iter: int = 200,
    check_support: bool = True,
) -> ComplexField:
    """Solve w = S1[V(1+w)] by Picard iteration on the Neumann series.

    The iteration is affine, so the fixed-point residual of the k-th iterate
    equals the step size ||w_{k+1} - w_k|| in grid L^2.  Raises NonConvergence
    when the steps stop decreasing (lambda below the contraction threshold
    for this potential) or max_iter is exhausted.
    """
    if check_support:
        check_padding_support(V, SUPPORT_TOL, what="potential")
    w = ComplexField.zeros(V.grid)
    prev_step = np.inf
    grow = 0
    for _ in range(max_iter):
        w_next = s1_apply(V * (1 + w), p, check_support=False)
        step = (w_next - w).l2_norm()
        w = w_next
        if step <= tol:
            return w
        if step >= prev_step:
            grow += 1
            if grow >= 3:
                raise NonConvergence(
                    f"fixed-point residual stopped decreasing at {step:.3e} "
                    f"(lam={p.lam:g} likely below the contraction threshold)"
                )
        else:
            grow = 0
        prev_step = step
    raise NonConvergence(
        f"fixed-point residual {step:.3e} > tol {tol:.1e} after {max_iter} iterations"
    )


def t_w_lambda(F: ComplexField, w: ComplexField, p: PhaseParams) -> complex:
    """(lam/pi) * integral of e^{i lam phi_x} F w over the grid."""
    if not F.grid.same_as(w.grid):
        raise ValueError("F and w must share a grid")
    total = F.grid.h**2 * np.sum(_phase(F.grid, p) * F.values * w.values)
    return complex(p.lam / np.pi * total)


def homogeneous_weight(grid: FourierGrid, s: float) -> np.ndarray:
    """Fourier weight |xi|^s on the grid, defined as 0 at xi = 0 for all s."""
    with np.errstate(divide="ignore"):
        w = grid.xi_sq ** (s / 2.0)
    w[0, 0] = 0.0
    return w


def _weighted_l2(F: ComplexField, weight_sq) -> float:
    """h/n * sqrt(sum weight_sq |F^hat|^2): weight_sq = 1 gives the grid L^2 norm."""
    total = np.sum(weight_sq * np.abs(fft2(F.values)) ** 2)
    return float(F.grid.h / F.grid.n_per_side * np.sqrt(total))


def hs_norm(F: ComplexField, s: float) -> float:
    """Discrete homogeneous Sobolev norm || |xi|^s F^hat ||_{L^2}.

    Normalized so that s = 0 reproduces the grid L^2 norm (Parseval).  The
    weight at xi = 0 is defined as 0 for all s, so means are ignored; for
    s < 0 the input should be mean-free for the norm to be meaningful.
    """
    if not -1 < s < 1:
        raise ValueError("hs_norm supports only |s| < 1")
    return _weighted_l2(F, homogeneous_weight(F.grid, 2 * s))
