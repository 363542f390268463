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
are cached per grid object; e^{i lam phi_x} is built on every call that needs
it.  phi_x separates, so the phase is the outer product of two 1-D chirps,
e^{-i lam (z2 - x2)^2} and e^{i lam (z1 - x1)^2}: 2n exponentials, not n^2
(about 1 ms against 15 ms at 512^2 on 2 vCPU).  _phase_block builds the
full-grid phase and is the one place that warns on an under-resolved lam;
_phase builds it on a box.

Flat-base rule: every full-grid elementwise pass of S1, its adjoint,
dz_inv, dzbar_inv and the Picard loop runs on the flat (n, n + 4) block of
a grid.padded_zeros view, whose row stride is not a power of two (see the
grid module).  The cached multipliers and the phase between the two inverses
(_phase_block) are held in that layout with zero pad columns, once each, so
each product is one pass over contiguous memory, twice as fast as the same
product on the n x n views (0.34 against 0.67 ms at 512^2).  The pads stay
0 through every pass.

Sampled at spacing h, the phase has ghost stationary points at
x + (pi / (lam h)) (k1, k2) for integers k1, k2, the nearest at
x -+ (pi n / (lam side)) e_j.  alias_margin measures how far they stay from
the support of V; the runners record it, the solvers do not check it.

The correction field w = w_{lambda,x} solves the fixed-point equation

    w = (1/4) * dzbar_inv[ e^{-i lam phi} * dz_inv[ e^{+i lam phi} * V (1 + w) ] ],

iterated by plain Picard; failure to contract signals that lambda is below
the contraction threshold for the given potential.  S1, its adjoint and the
Picard loop share one kernel, _s1_spectrum: a full periodic inverse
(_periodic_inverse, the kernel of dz_inv and dzbar_inv), a phase in the slot
between the two inverses, then the forward FFT and the multiplier of the outer
inverse.  It returns that spectrum from a work array it may overwrite, and
each caller completes the outer inverse its own way: s1_apply and s1_adjoint
with a full ifft2, solve_w on the box rows only, since it measures its steps
on the spectra.  Each forward/inverse FFT pair transforms its work view in
place (``overwrite_x``), and the multipliers and phases are applied with
in-place products on its block that keep the operand order of the field
composition, so every value is bit-identical to the out-of-place composition
of phase_mul, dz_inv and dzbar_inv.  Inputs are never written to.  s1_apply,
s1_adjoint, dz_inv and dzbar_inv return their work view.

solve_w keeps each iterate as its spectrum S_k, w_k = (1/4) ifft2(S_k), and
works on V's support box [r0, r1) x [c0, c1) (for the 1 + 0.5i disk of
radius 0.3 at 512^2 of side 4, 77 x 77 nodes):
  * V (1 + w_k) and its phase product are formed on the box only, in a
    zeroed work array, with the box slice of e^{+i lam phi} taken from the
    chirps (the full phase is never built), so grid.fft2 transforms only
    the box's columns in its first pass;
  * the step ||w_{k+1} - w_k|| is (1/4) h/n ||S_{k+1} - S_k|| (Parseval),
    the grid L^2 step up to rounding, so no iterate is inverted to test it;
  * a non-final iterate is inverted onto the box rows only
    (grid.ifft2(rows=(r0, r1))); only the converged one gets a full inverse.
Its work arrays are two grid.padded_zeros views, and it holds e^{-i lam phi}
once, as a _phase_block.  The returned w is bit-identical to that of the
field loop w <- s1_apply(V (1 + w)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NonConvergence
from .grid import (ComplexField, FourierGrid, check_padding_support, fft2, ifft2, padded_zeros,
                   support_box)

# distance a ghost stationary point must keep from the support of V (alias_margin)
ALIAS_CLEARANCE = 0.1


@dataclass(frozen=True)
class PhaseParams:
    """Phase frequency lambda and reconstruction point x."""

    lam: float
    x: tuple[float, float]

    def __post_init__(self):
        if not 0 < self.lam < np.inf:  # NaN fails this too
            raise DomainError(f"lam must be positive and finite, got {self.lam}")
        x = (float(self.x[0]), float(self.x[1]))
        if not (math.isfinite(x[0]) and math.isfinite(x[1])):
            raise DomainError(f"x must be a finite point, got {x}")
        object.__setattr__(self, "x", x)


def psi_at(z1, z2, x) -> np.ndarray:
    """psi_x at the points (z1, z2) (complex)."""
    zeta = (z1 - x[0]) + 1j * (z2 - x[1])
    return 0.5 * zeta * zeta


def _dz_symbol(grid):
    return 0.5j * (grid.xi[None, :] - 1j * grid.xi[:, None])


def _dzbar_symbol(grid):
    return 0.5j * (grid.xi[None, :] + 1j * grid.xi[:, None])


@lru_cache(maxsize=4)
def _inverse_multiplier(grid: FourierGrid, symbol) -> np.ndarray:
    """1/symbol(grid), 0 at xi = 0, as the (n, n + 4) block of a padded_zeros view.

    Its pad columns are 0.  Built once per (grid, symbol), read-only.
    """
    mult = padded_zeros(grid.n_per_side)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(1.0, symbol(grid), out=mult)
    mult[0, 0] = 0.0
    # the Nyquist row/column has no conjugate partner on the lattice; zeroing
    # it keeps dzbar_inv(conj F) == conj(dz_inv F) exact for every field
    nyq = grid.n_per_side // 2
    mult[nyq, :] = mult[:, nyq] = 0.0
    mult = mult.base
    mult.flags.writeable = False
    return mult


def _padded_copy(a):
    """A padded_zeros view holding a copy of the n x n array a."""
    work = padded_zeros(a.shape[0])
    work[...] = a
    return work


def _periodic_inverse(a, grid, symbol, overwrite_x=False, cols=None):
    """ifft2(fft2(a) / symbol), the one periodic inverse, in a padded_zeros view.

    With overwrite_x=True, a must be such a view, and the inverse runs in its
    memory; otherwise in a padded_zeros copy of a.  The multiplier acts on the
    view's flat block.  cols as for grid.fft2.  _s1_spectrum calls it
    directly, not through dz_inv and dzbar_inv, so a trace of those two sees
    only the inverses their own callers ask for.
    """
    work = a if overwrite_x else _padded_copy(a)
    fft2(work, overwrite_x=True, cols=cols)
    block = work.base
    block *= _inverse_multiplier(grid, symbol)
    return ifft2(work, overwrite_x=True)


def _inverse(F: ComplexField, symbol, check_support: bool) -> ComplexField:
    """The periodic inverse of F, after F's support check when check_support."""
    if check_support:
        check_padding_support(F)
    return ComplexField(F.grid, _periodic_inverse(F.values, F.grid, symbol))


def dz_inv(F: ComplexField, check_support: bool = True) -> ComplexField:
    """Periodic inverse of d/dz; zero frequency of the result is 0.

    Applying the spectral d/dz to the result recovers F minus its grid mean.
    Rejects fields whose support touches the padding band.
    """
    return _inverse(F, _dz_symbol, check_support)


def dzbar_inv(F: ComplexField, check_support: bool = True) -> ComplexField:
    """Periodic inverse of d/dzbar; mirror of dz_inv with the conjugate symbol."""
    return _inverse(F, _dzbar_symbol, check_support)


def lam_resolution_limit(grid: FourierGrid) -> float:
    """Largest lam the grid resolves: lam * side^2 / n^2 <= 1/4."""
    return 0.25 * grid.n_per_side**2 / grid.side_len**2


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


def _chirp(t, c, lam):
    """e^{i lam (t - c)^2} on the 1-D nodes t."""
    return np.exp(1j * lam * (t - c) ** 2)


def _chirps(grid: FourierGrid, p: PhaseParams, box):
    """The row chirp (a column vector) and the column chirp of e^{i lam phi_x} on box."""
    r0, r1, c0, c1 = box
    return (_chirp(grid.z2[r0:r1], p.x[1], -p.lam)[:, None],
            _chirp(grid.z1[c0:c1], p.x[0], p.lam))


def _phase(grid: FourierGrid, p: PhaseParams, box) -> np.ndarray:
    """e^{i lam phi_x} on the nodes of box = (r0, r1, c0, c1), read-only.

    phi_x = (z1 - x1)^2 - (z2 - x2)^2 separates, so the phase is the outer
    product of two 1-D chirps, e^{-i lam (z2 - x2)^2} down the rows and
    e^{i lam (z1 - x1)^2} along them: 2n exponentials instead of n^2.  Each
    chirp rounds its own argument, so the product is within
    4 eps lam max|z - x|^2 of the exponential of the joint argument (2.3e-13
    at 512^2 of side 4, lam = 512), and exactly 1 at a node x.  It is that
    box of the full-grid phase, _phase_block, bit for bit, and does not warn.
    """
    phase = np.multiply(*_chirps(grid, p, box))
    phase.flags.writeable = False
    return phase


def _phase_block(grid: FourierGrid, p: PhaseParams, sign: int) -> np.ndarray:
    """e^{sign i lam phi_x} as the (n, n + 4) block of a padded_zeros view, read-only.

    The one full-grid phase, which phase_mul, s1_apply, s1_adjoint and
    solve_w each build: _phase on the box (0, n, 0, n), or its conjugate, bit
    for bit, with pad columns 0.  The one warning site: past
    lam_resolution_limit it warns (RuntimeWarning) at the caller's caller.
    """
    if not p.lam <= lam_resolution_limit(grid):
        warnings.warn(f"lam*side^2/n^2 = {p.lam * grid.side_len**2 / grid.n_per_side**2:.3g} "
                      "> 1/4: oscillatory factor under-resolved on this grid",
                      RuntimeWarning, stacklevel=3)
    n = grid.n_per_side
    view = padded_zeros(n)
    np.multiply(*_chirps(grid, p, (0, n, 0, n)), out=view)
    block = view.base
    if sign < 0:
        np.conjugate(block, out=block)
    block.flags.writeable = False
    return block


def phase_mul(F: ComplexField, p: PhaseParams, sign: int) -> ComplexField:
    """Multiply by e^{sign * i * lam * phi_x}; |result| = |F| pointwise.

    The grid covers exactly the auxiliary square, so the square cutoff is the
    identity here.
    """
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    n = F.grid.n_per_side
    return ComplexField(F.grid, _phase_block(F.grid, p, sign)[:, :n] * F.values)


def _s1_spectrum(a, grid, mid_phase, overwrite_x=False, cols=None):
    """M fft2(mid_phase dz_inv(a)), M the dzbar_inv multiplier; ifft2 completes the outer inverse.

    For S1 u = (1/4) ifft2 of it, a holds e^{i lam phi} u and mid_phase is
    e^{-i lam phi}; s1_adjoint passes F and e^{+i lam phi}.  mid_phase is a
    _phase_block.  overwrite_x as for _periodic_inverse: with True, a is a
    padded_zeros view and the spectrum is left in its memory.  Both products
    run on the view's flat block.  cols as for grid.fft2, for the first
    transform.  Each product keeps the operand order of the field
    composition, since complex products are not bit-for-bit commutative.
    """
    work = a if overwrite_x else _padded_copy(a)
    _periodic_inverse(work, grid, _dz_symbol, overwrite_x=True, cols=cols)
    block = work.base
    np.multiply(mid_phase, block, out=block)
    fft2(work, overwrite_x=True)
    block *= _inverse_multiplier(grid, _dzbar_symbol)
    return work


def s1_apply(F: ComplexField, p: PhaseParams, check_support: bool = True) -> ComplexField:
    """One pass of the smoothing operator behind the correction-field equation.

    Equals (1/4) dzbar_inv[e^{-i lam phi} dz_inv[e^{+i lam phi} F]] bit for bit,
    computed by _s1_spectrum in one padded_zeros view, which the result
    holds: F is never written to, and each FFT transforms the view in place.
    e^{i lam phi} F vanishes off F's support box, so it is formed there only,
    with the box slice of the phase, and grid.fft2 transforms only the box's
    columns along axis 0.  The outer inverse acts on a field that fills the
    square by construction, so only F's support is checked.  Warns like
    phase_mul when lam is under-resolved on the grid.
    """
    g = F.grid
    box = check_padding_support(F) if check_support else support_box(F.values)
    mid_phase = _phase_block(g, p, -1)
    if box is None:
        return ComplexField.zeros(g)
    r0, r1, c0, c1 = box
    work = padded_zeros(g.n_per_side)
    np.multiply(_phase(g, p, box), F.values[r0:r1, c0:c1], out=work[r0:r1, c0:c1])
    _s1_spectrum(work, g, mid_phase, overwrite_x=True, cols=(c0, c1))
    ifft2(work, overwrite_x=True)
    block = work.base
    block *= 0.25
    return ComplexField(g, work)


def s1_adjoint(F: ComplexField, p: PhaseParams) -> ComplexField:
    """Adjoint of s1_apply in the grid L^2 pairing.

    Equals (1/4) e^{-i lam phi} dzbar_inv[e^{+i lam phi} dz_inv[F]] bit for
    bit: on the lattice conj(1/sigma_z) = -1/sigma_zbar, so the adjoint of
    each inverse is minus the other one and the two signs cancel.  The same
    kernel as s1_apply with e^{+i lam phi} between the inverses, on a
    padded_zeros copy of F.  No support check: the norm of S1 is taken over
    all grid functions, so the adjoint meets full-square fields.
    """
    g = F.grid
    phase = _phase_block(g, p, +1)
    work = _s1_spectrum(F.values, g, phase)
    ifft2(work, overwrite_x=True)
    block = work.base
    np.multiply(np.conj(phase), block, out=block)
    block *= 0.25
    return ComplexField(g, work)


def solve_w(
    V: ComplexField,
    p: PhaseParams,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> ComplexField:
    """Solve w = S1[V(1+w)] by Picard iteration on the Neumann series.

    The iteration is affine, so the fixed-point residual of the k-th iterate
    equals the step size ||w_{k+1} - w_k|| in grid L^2.  Raises NonConvergence
    when a step is not finite, when the steps stop decreasing (lambda below
    the contraction threshold for this potential) or when max_iter is
    exhausted.  The zero potential gives w = 0 without a transform, and a
    potential with mass in the padding band raises SupportViolation.

    Iterates on V's support box as the module docstring describes, with the
    spectra S_k in two padded_zeros arrays allocated once per call and every
    full-grid pass on their flat blocks; the result is bit-identical to the
    field loop w <- s1_apply(V (1 + w)).
    """
    box = check_padding_support(V, what="potential")
    g = V.grid
    n = g.n_per_side
    if box is None:
        return ComplexField.zeros(g)
    r0, r1, c0, c1 = box
    phase_conj = _phase_block(g, p, -1)
    v_box, phase_box = V.values[r0:r1, c0:c1], _phase(g, p, box)
    work, prev = padded_zeros(n), padded_zeros(n)
    w_box = np.zeros((r1 - r0, c1 - c0), dtype=np.complex128)
    prev_step = np.inf
    grow = 0
    for _ in range(max_iter):
        # V (1 + w) with V as the left operand, then the phase, as in s1_apply
        u = w_box + 1
        np.multiply(v_box, u, out=u)
        np.multiply(phase_box, u, out=work[r0:r1, c0:c1])
        _s1_spectrum(work, g, phase_conj, overwrite_x=True, cols=(c0, c1))
        # S_k is not needed again: its memory takes S_k - S_{k+1}; the padding
        # columns of both blocks stay 0, so the block's norm is the view's
        np.subtract(prev.base, work.base, out=prev.base)
        step = 0.25 * g.h / n * float(np.linalg.norm(prev.base))
        if not np.isfinite(step):
            raise NonConvergence(f"fixed-point step is not finite ({step}) at lam={p.lam:g}")
        if step <= tol:
            w = ifft2(work, overwrite_x=True)
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
        np.copyto(prev.base, work.base)
        w_box = ifft2(prev, overwrite_x=True, rows=(r0, r1))[:, c0:c1] * 0.25
        # S_{k+1} is in work's memory; the other block is the next work array
        prev, work = work, prev
        work.base.fill(0)
    raise NonConvergence(
        f"fixed-point residual {step:.3e} > tol {tol:.1e} after {max_iter} iterations"
    )


def t_w_lambda(F: ComplexField, w: ComplexField, p: PhaseParams, shift=0.0) -> complex:
    """(lam/pi) * integral of e^{i lam phi_x} F (shift + w) over the grid.

    Only F's support box is summed: the integrand vanishes off it, so the
    phase and shift + w are formed there only.
    """
    if not F.grid.same_as(w.grid):
        raise DomainError("F and w must share a grid")
    box = support_box(F.values)
    if box is None:
        return 0j
    r0, r1, c0, c1 = box
    total = F.grid.h**2 * np.sum(_phase(F.grid, p, box) * F.values[r0:r1, c0:c1]
                                 * (shift + w.values[r0:r1, c0:c1]))
    return complex(p.lam / np.pi * total)


def homogeneous_weight(grid: FourierGrid, s: float) -> np.ndarray:
    """Fourier weight |xi|^s on the grid, defined as 0 at xi = 0 for all s."""
    with np.errstate(divide="ignore"):
        w = grid.xi_sq ** (s / 2.0)
    w[0, 0] = 0.0
    return w


def hs_norm(F: ComplexField, s: float) -> float:
    """Discrete homogeneous Sobolev norm || |xi|^s F^hat ||_{L^2}.

    Normalized so that s = 0 reproduces the grid L^2 norm (Parseval).  The
    weight at xi = 0 is defined as 0 for all s, so means are ignored; for
    s < 0 the input should be mean-free for the norm to be meaningful.
    """
    if not -1 < s < 1:
        raise DomainError("hs_norm supports only |s| < 1")
    return F.weighted_l2_norm(homogeneous_weight(F.grid, 2 * s))
