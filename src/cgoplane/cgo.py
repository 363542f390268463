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
phi_x separates, so the phase is built as the outer product of two 1-D
chirps, e^{-i lam (z2 - x2)^2} and e^{i lam (z1 - x1)^2}: 2n exponentials, not
n^2 (about 1 ms against 15 ms at 512^2 on 2 vCPU).

Sampled at spacing h, the phase has ghost stationary points at
x + (pi / (lam h)) (k1, k2) for integers k1, k2, the nearest at
x -+ (pi n / (lam side)) e_j.  alias_margin measures how far they stay from
the support of V; the runners record it, the solvers do not check it.

The correction field w = w_{lambda,x} solves the fixed-point equation

    w = (1/4) * dzbar_inv[ e^{-i lam phi} * dz_inv[ e^{+i lam phi} * V (1 + w) ] ],

iterated by plain Picard; failure to contract signals that lambda is below
the contraction threshold for the given potential.  Every periodic inverse
is one kernel, _periodic_inverse, and S1 itself is one kernel,
_s1_spectrum, which returns the spectrum S of 4 S1 u from a work array it may
overwrite: each forward/inverse FFT pair transforms its work array in place
(``overwrite_x``), and the multipliers and phases are applied with in-place
products that keep the operand order of the field composition, so every
value is bit-identical to the out-of-place composition of phase_mul, dz_inv
and dzbar_inv.  Inputs are never written to.  s1_apply is (1/4) ifft2 of it.

solve_w keeps each iterate as its spectrum S_k, w_k = (1/4) ifft2(S_k), and
works on V's support box [r0, r1) x [c0, c1) (for the 1 + 0.5i disk of
radius 0.3 at 512^2 of side 4, 77 x 77 nodes):
  * V (1 + w_k) and its phase product are formed on the box only, in a
    zeroed work array, so grid.fft2 transforms only the box's columns in its
    first pass;
  * the step ||w_{k+1} - w_k|| is (1/4) h/n ||S_{k+1} - S_k|| (Parseval),
    the grid L^2 step up to rounding, so no iterate is inverted to test it;
  * a non-final iterate is inverted onto the box rows only
    (grid.ifft2(rows=(r0, r1))); only the converged one gets a full inverse.
Its work arrays are grid.padded_zeros, whose row stride is not a power of
two.  The returned w is bit-identical to that of the field loop
w <- s1_apply(V (1 + w)).
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonConvergence
from .grid import (ComplexField, FourierGrid, check_padding_support, fft2, ifft2,
                   padded_zeros, support_box)

# distance a ghost stationary point must keep from the support of V (alias_margin)
ALIAS_CLEARANCE = 0.1


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


def _dz_symbol(grid):
    return 0.5j * (grid.XI1 - 1j * grid.XI2)


def _dzbar_symbol(grid):
    return 0.5j * (grid.XI1 + 1j * grid.XI2)


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


def _periodic_inverse(a, grid, symbol, overwrite_x=False):
    """ifft2(fft2(a) / symbol), the one periodic inverse; overwrite_x as for grid.fft2.

    s1_apply calls it directly, not through dz_inv and dzbar_inv, so a trace of
    those two sees only the inverses their own callers ask for.
    """
    spec = fft2(a, overwrite_x=overwrite_x)
    spec *= _inverse_multiplier(grid, symbol)
    return ifft2(spec, overwrite_x=True)


def dz_inv(F: ComplexField, check_support: bool = True) -> ComplexField:
    """Periodic inverse of d/dz; zero frequency of the result is 0.

    Applying the spectral d/dz to the result recovers F minus its grid mean.
    Rejects fields whose support touches the padding band.
    """
    if check_support:
        check_padding_support(F)
    return ComplexField(F.grid, _periodic_inverse(F.values, F.grid, _dz_symbol))


def dzbar_inv(F: ComplexField, check_support: bool = True) -> ComplexField:
    """Periodic inverse of d/dzbar; mirror of dz_inv with the conjugate symbol."""
    if check_support:
        check_padding_support(F)
    return ComplexField(F.grid, _periodic_inverse(F.values, F.grid, _dzbar_symbol))


def resolution_ok(grid: FourierGrid, lam: float) -> bool:
    """Oscillation-resolution condition lam * side^2 / n^2 <= 1/4."""
    return lam * grid.side_len**2 / grid.n_per_side**2 <= 0.25


def alias_margin(V: ComplexField, p: PhaseParams) -> float:
    """Distance from the ghosts of x to the nonzero nodes of V, less ALIAS_CLEARANCE.

    On nodes of spacing h, e^{i lam phi_x} is a constant times e^{i lam phi_g}
    for every g = x + s (k1, k2), s = pi / (lam h) = pi n / (lam side), with
    integers k1, k2: the grid quadrature of the interior functional has a
    stationary point at each of these ghosts as well as at x.  The nearest
    are x -+ s e_j.  A ghost on or next to the support of V spoils the value
    at x, so the margin should be positive.  The zero potential gives +inf.
    """
    g = V.grid
    s = np.pi / (p.lam * g.h)
    i2, i1 = np.nonzero(V.values)
    if i1.size == 0:
        return np.inf
    # node offsets from x in units of s, and the nearest ghost to each node;
    # a node nearest to x itself takes the neighbour ghost on its longer axis
    d1, d2 = (g.z1[i1] - p.x[0]) / s, (g.z2[i2] - p.x[1]) / s
    k1, k2 = np.rint(d1), np.rint(d2)
    home = (k1 == 0) & (k2 == 0)
    first = home & (np.abs(d1) >= np.abs(d2))
    k1[first] = np.copysign(1.0, d1[first])
    k2[home & ~first] = np.copysign(1.0, d2[home & ~first])
    return float(s * np.min(np.hypot(d1 - k1, d2 - k2))) - ALIAS_CLEARANCE


_phase_slot = threading.local()


def _chirp(t, c, lam):
    """e^{i lam (t - c)^2} on the 1-D nodes t."""
    return np.exp(1j * lam * (t - c) ** 2)


def _phase(grid: FourierGrid, p: PhaseParams) -> np.ndarray:
    """e^{i lam phi_x} on the nodes, built once per (grid, p), read-only.

    phi_x = (z1 - x1)^2 - (z2 - x2)^2 separates, so the phase is the outer
    product of two 1-D chirps, e^{-i lam (z2 - x2)^2} down the rows and
    e^{i lam (z1 - x1)^2} along them: 2n exponentials instead of n^2.  Each
    chirp rounds its own argument, so the product is within
    4 eps lam max|z - x|^2 of the exponential of the joint argument (2.3e-13
    at 512^2 of side 4, lam = 512), and exactly 1 at a node x.

    One entry per thread, holding the grid object itself: the sweep threads of
    a parallel run keep their own phase instead of evicting each other's.
    """
    entry = getattr(_phase_slot, "entry", None)
    if entry is not None and entry[0] is grid and entry[1] == p:
        return entry[2]
    phase = _chirp(grid.z2, p.x[1], -p.lam)[:, None] * _chirp(grid.z1, p.x[0], p.lam)
    phase.flags.writeable = False
    _phase_slot.entry = (grid, p, phase)
    return phase


def _warn_if_under_resolved(grid: FourierGrid, lam: float) -> None:
    """RuntimeWarning, pointed at the caller's caller, when resolution_ok fails."""
    if not resolution_ok(grid, lam):
        warnings.warn(
            f"lam*side^2/n^2 = {lam * grid.side_len**2 / grid.n_per_side**2:.3g} "
            "> 1/4: oscillatory factor under-resolved on this grid",
            RuntimeWarning,
            stacklevel=3,
        )


def phase_mul(F: ComplexField, p: PhaseParams, sign: int) -> ComplexField:
    """Multiply by e^{sign * i * lam * phi_x}; |result| = |F| pointwise.

    The grid covers exactly the auxiliary square, so the square cutoff is the
    identity here.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    _warn_if_under_resolved(F.grid, p.lam)
    phase = _phase(F.grid, p)
    return ComplexField(F.grid, (phase if sign > 0 else phase.conj()) * F.values)


def _s1_spectrum(a, grid, phase_conj, overwrite_x=False):
    """M fft2(e^{-i lam phi} dz_inv(a)), M the dzbar_inv multiplier: S1 u = (1/4) ifft2 of it.

    a holds e^{i lam phi} u; phase_conj is e^{-i lam phi}.  overwrite_x as for
    grid.fft2: with True every step runs in a's memory and the spectrum is
    left there.  Each product keeps the operand order of the field
    composition, since complex products are not bit-for-bit commutative.
    """
    inner = _periodic_inverse(a, grid, _dz_symbol, overwrite_x=overwrite_x)
    np.multiply(phase_conj, inner, out=inner)
    spec = fft2(inner, overwrite_x=True)
    spec *= _inverse_multiplier(grid, _dzbar_symbol)
    return spec


def s1_apply(F: ComplexField, p: PhaseParams, check_support: bool = True) -> ComplexField:
    """One pass of the smoothing operator behind the correction-field equation.

    Equals (1/4) dzbar_inv[e^{-i lam phi} dz_inv[e^{+i lam phi} F]] bit for bit,
    computed by _s1_spectrum on two new arrays: F is never written to, and each
    FFT transforms its work array in place.  The phase comes from _phase, two
    1-D chirps.  The first transform's input e^{i lam phi} F vanishes wherever
    F does, so for a compactly supported F grid.fft2 transforms only F's
    columns along axis 0.  The outer inverse acts on a field that fills the
    square by construction, so only F's support is checked.  Warns like
    phase_mul when lam is under-resolved on the grid.
    """
    g = F.grid
    if check_support:
        check_padding_support(F)
    _warn_if_under_resolved(g, p.lam)
    phase = _phase(g, p)
    spec = _s1_spectrum(phase * F.values, g, np.conj(phase), overwrite_x=True)
    b = ifft2(spec, overwrite_x=True)
    b *= 0.25
    return ComplexField(g, b)


def s1_adjoint(F: ComplexField, p: PhaseParams) -> ComplexField:
    """Adjoint of s1_apply in the grid L^2 pairing.

    Equals (1/4) e^{-i lam phi} dzbar_inv[e^{+i lam phi} dz_inv[F]]: on the
    lattice conj(1/sigma_z) = -1/sigma_zbar, so the adjoint of each inverse is
    minus the other one and the two signs cancel.  Computed like s1_apply, on
    two new arrays with in-place transforms.
    """
    g = F.grid
    _warn_if_under_resolved(g, p.lam)
    phase = _phase(g, p)
    a = dz_inv(F, check_support=False).values
    b = _periodic_inverse(phase * a, g, _dzbar_symbol, overwrite_x=True)
    np.conjugate(phase, out=a)
    a *= b
    a *= 0.25
    return ComplexField(g, a)


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
    when a step is not finite, when the steps stop decreasing (lambda below
    the contraction threshold for this potential) or when max_iter is
    exhausted.  The zero potential gives w = 0 without a transform.

    Iterates on V's support box as the module docstring describes, with the
    spectra S_k in two padded_zeros arrays allocated once per call; the
    result is bit-identical to the field loop w <- s1_apply(V (1 + w)).
    """
    if check_support:
        box = check_padding_support(V, what="potential")
    else:
        box = support_box(V.values)
    g = V.grid
    n = g.n_per_side
    if box is None:
        return ComplexField.zeros(g)
    r0, r1, c0, c1 = box
    _warn_if_under_resolved(g, p.lam)
    phase = _phase(g, p)
    phase_conj = np.conj(phase)
    v_box, phase_box = V.values[r0:r1, c0:c1], phase[r0:r1, c0:c1]
    work, prev = padded_zeros(n), padded_zeros(n)
    w_box = np.zeros((r1 - r0, c1 - c0), dtype=np.complex128)
    prev_step = np.inf
    grow = 0
    for _ in range(max_iter):
        # V (1 + w) with V as the left operand, then the phase, as in s1_apply
        u = w_box + 1
        np.multiply(v_box, u, out=u)
        np.multiply(phase_box, u, out=work[r0:r1, c0:c1])
        spec = _s1_spectrum(work, g, phase_conj, overwrite_x=True)
        # S_k is not needed again: its memory takes S_k - S_{k+1}; the padding
        # columns of both blocks stay 0, so the block's norm is the view's
        np.subtract(prev, spec, out=prev)
        step = 0.25 * g.h / n * float(np.linalg.norm(prev.base))
        if not np.isfinite(step):
            raise NonConvergence(f"fixed-point step is not finite ({step}) at lam={p.lam:g}")
        if step <= tol:
            w = ifft2(spec, overwrite_x=True)
            return ComplexField(g, w * 0.25)
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
        np.copyto(prev, spec)
        w_box = ifft2(prev, overwrite_x=True, rows=(r0, r1))[:, c0:c1] * 0.25
        # S_{k+1} is in work's memory; the other block is the next work array
        prev, work = work, prev
        work.fill(0)
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
