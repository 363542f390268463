"""Uniform periodic grid on the auxiliary square and complex fields sampled on it.

The square Q has side ``side_len`` and is centered at ``center``; nodes along
each axis sit at ``center - side/2 + h*j`` with ``h = side_len/n``, so the
grid is periodic with period ``side_len`` (right/top edges not duplicated).
The central sub-square of side ``side_len/2`` is the working region that must
contain the experiment domain; the surrounding frame of width ``side_len/4``
is the padding band that keeps the periodic Cauchy transforms away from
wrap-around artifacts.

FFTs run on scipy's single worker; parallelism comes only from the runners'
``jobs``, which pays only with ``OPENBLAS_NUM_THREADS=1``: OpenBLAS's default
threads spin on the second core (timings in the README).  A second FFT
worker did not pay at the sizes used here: an in-place 128^2 transform took
0.164 ms against 0.133 ms on one worker, 256^2 0.648 against 0.591 ms, and
512^2 was a tie (3.37 ms; medians of 30 interleaved trials on 2 vCPU).

``fft2(a, cols=(c0, c1))`` prunes the all-zero columns outside [c0, c1)
from the axis-0 pass (Markel's pruned FFT, 1971): a compactly supported
field, such as the first transform of every S1 pass or the far-field pad,
costs its columns, not n.  The caller knows the columns (a support box), so
fft2 looks at no entry to find them.  The result is bit-identical to
scipy's fft2.  At 512^2 of side 4, the 1 + 0.5i disk of radius 0.3 fills 77
of 512 columns, and an in-place transform of phase * V took 3.8 ms against
6.7 ms unpruned (medians of 100 interleaved trials on 2 vCPU).

``ifft2(a, rows=(r0, r1))`` prunes the output side the same way: axis 0 over
every column, then axis 1 over rows r0..r1 only, which is pocketfft's own
order, so the rows equal ``scipy.fft.ifft2(a)[r0:r1]`` bit for bit (n is a
power of two, so scaling by 1/n per axis rounds like 1/n^2 on the first).

The axis-0 pass over a C-contiguous n x n array steps through memory one row,
n * 16 bytes, at a time; at a power-of-two n that stride maps every element
of a column onto the same few cache sets.  ``padded_zeros`` gives n x n views
of (n, n + 4) blocks instead, whose transforms are bit-identical (Bailey
1990): in place at 512^2, fft2 took 5.4 ms against 7.1 ms and ifft2 5.6 against
7.1 ms; at 1024^2, 24 against 33 ms and 25 against 34 ms (medians of 40 and 15
interleaved trials on 2 vCPU of a Xeon).  cgo.solve_w allocates them once per
call.  Allocating them once per S1 pass gained nothing: a padded block is
larger than the mmap threshold glibc sets after freeing an n^2 array, so each
one is a fresh mmap that page-faults.  Keeping them across calls, one set per
thread, took 12 % off the interior-jump benchmark's median sample but added
8.3 MB to its peak resident memory.

Elementwise passes over such blocks run on the flat (n, n + 4) memory
behind the view, ``view.base``, never on the n x n view: numpy runs a
strided view's inner loop row by row, at about half the speed.  At 512^2 a
complex product took 0.67 ms on two views against 0.34 ms on their blocks,
a subtraction 0.76 against 0.33 ms, and a view times a contiguous array
0.63 ms (medians of 60 interleaved trials on 2 vCPU of a Xeon).  An array
multiplied into a block therefore has the block's layout, with zero pad
columns, so the pads stay 0 and a block's norm is its view's.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as _sfft

from .errors import DomainError, SupportViolation

# relative magnitude in the padding band that check_padding_support calls support
SUPPORT_TOL = 1e-6


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def fft2(a, overwrite_x=False, cols=None):
    """2-D FFT; with overwrite_x=True a complex128 input is transformed in its own memory.

    With cols=(c0, c1), a complex128 input that is zero outside columns
    [c0, c1) is transformed along axis 0 over those columns only, then along
    axis 1 in full (a pruned FFT, Markel 1971).  pocketfft also runs axis 0
    first, column by column, so the result equals scipy's fft2 bit for bit.
    Without cols, or with cols that span every column, the input goes to
    scipy's fft2 unchanged.
    """
    if cols is None or (cols[0] == 0 and cols[1] == a.shape[1]):
        return _sfft.fft2(a, overwrite_x=overwrite_x)
    c0, c1 = cols
    # the caller's array is the work array only when the caller gave it up
    out = a if overwrite_x else np.zeros_like(a)
    out[:, c0:c1] = _sfft.fft(a[:, c0:c1], axis=0)
    return _sfft.fft(out, axis=1, overwrite_x=True)


def ifft2(a, overwrite_x=False, rows=None):
    """2-D inverse FFT; overwrite_x as for fft2.

    With rows=(r0, r1) only those rows of the result are computed and
    returned: axis 0 in full, then axis 1 over rows r0..r1, as pocketfft runs
    the full transform, so the rows equal scipy's ifft2(a)[r0:r1] bit for bit
    for a power-of-two shape.  overwrite_x then applies to the axis-0 pass.
    """
    if rows is None:
        return _sfft.ifft2(a, overwrite_x=overwrite_x)
    r0, r1 = rows
    return _sfft.ifft(_sfft.ifft(a, axis=0, overwrite_x=overwrite_x)[r0:r1], axis=1)


def padded_zeros(n):
    """n x n complex zeros whose rows lie n + 4 entries apart (see the module docstring).

    The view's ``base`` is the whole (n, n + 4) block, the memory elementwise
    passes run on.
    """
    return np.zeros((n, n + 4), dtype=np.complex128)[:, :n]


def support_box(values):
    """(r0, r1, c0, c1) such that values is zero outside [r0, r1) x [c0, c1); None if all zero."""
    rows = np.flatnonzero(values.any(axis=1))
    if rows.size == 0:
        return None
    r0, r1 = int(rows[0]), int(rows[-1]) + 1
    # the columns are looked for only within the rows found
    cols = np.flatnonzero(values[r0:r1].any(axis=0))
    return r0, r1, int(cols[0]), int(cols[-1]) + 1


class FourierGrid:
    """Periodic n x n grid on an axis-parallel square.

    Attributes
    ----------
    n_per_side : int
        Samples per axis (power of two).
    side_len : float
        Side of the periodic square.
    center : (float, float)
        Center of the square.
    h : float
        Node spacing, side_len / n_per_side.
    """

    def __init__(self, n_per_side, side_len, center=(0.0, 0.0)):
        n = int(n_per_side)
        if not _is_pow2(n):
            raise DomainError(f"n_per_side must be a power of two >= 2, got {n_per_side}")
        if not 0 < side_len < np.inf:  # NaN fails this too
            raise DomainError(f"side_len must be positive and finite, got {side_len}")
        self.n_per_side = n
        self.side_len = float(side_len)
        self.center = (float(center[0]), float(center[1]))
        self.h = self.side_len / n

        self.z1 = self.center[0] - self.side_len / 2 + self.h * np.arange(n)
        self.z2 = self.center[1] - self.side_len / 2 + self.h * np.arange(n)
        # the frequency axis, shared by both directions
        self.xi = 2 * np.pi * np.fft.fftfreq(n, d=self.h)

        # node meshes, values indexed [i2, i1]
        self.Z1, self.Z2 = np.meshgrid(self.z1, self.z2)
        # |xi|^2 mesh, [i2, i1] layout like the spatial meshes
        self.xi_sq = self.xi[None, :]**2 + self.xi[:, None]**2
        self._band = None

    def band_mask(self):
        """Boolean mask of the padding band (outside the central half-square)."""
        if self._band is None:
            q = self.side_len / 4
            self._band = (np.abs(self.Z1 - self.center[0]) > q) | (
                np.abs(self.Z2 - self.center[1]) > q
            )
        return self._band

    def same_as(self, other) -> bool:
        return (
            isinstance(other, FourierGrid)
            and self.n_per_side == other.n_per_side
            and self.side_len == other.side_len
            and self.center == other.center
        )

    def __repr__(self):
        return (
            f"FourierGrid(n_per_side={self.n_per_side}, side_len={self.side_len}, "
            f"center={self.center})"
        )


class ComplexField:
    """Complex samples on a FourierGrid; values[i2, i1] lives at (z1[i1], z2[i2])."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: FourierGrid, values):
        values = np.asarray(values, dtype=np.complex128)
        n = grid.n_per_side
        if values.shape != (n, n):
            raise DomainError(f"values must have shape ({n}, {n}), got {values.shape}")
        if not np.all(np.isfinite(values.view(np.float64))):
            raise DomainError("field values must be finite")
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid):
        n = grid.n_per_side
        return cls(grid, np.zeros((n, n), dtype=np.complex128))

    @classmethod
    def from_function(cls, grid, fn):
        """Sample fn(Z1, Z2) on the nodes."""
        return cls(grid, np.asarray(fn(grid.Z1, grid.Z2), dtype=np.complex128))

    def _coerce(self, other):
        if isinstance(other, ComplexField):
            if not self.grid.same_as(other.grid):
                raise DomainError("fields live on different grids")
            return other.values
        return other

    def __add__(self, other):
        return ComplexField(self.grid, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return ComplexField(self.grid, self.values - self._coerce(other))

    def __mul__(self, other):
        return ComplexField(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__

    def l2_norm(self) -> float:
        """Grid L^2 norm, h * ||values||_2."""
        return float(self.grid.h * np.linalg.norm(self.values))

    def weighted_l2_norm(self, weight_sq) -> float:
        """Fourier-weighted L^2 norm h/n * sqrt(sum weight_sq |F^hat|^2); weight_sq = 1
        gives the grid L^2 norm (Parseval)."""
        total = np.sum(weight_sq * np.abs(fft2(self.values)) ** 2)
        return float(self.grid.h / self.grid.n_per_side * np.sqrt(total))

    def mean(self) -> complex:
        return complex(np.mean(self.values))


def check_padding_support(field: ComplexField, what: str = "field"):
    """Raise SupportViolation if the field has mass in the padding band.

    The check is relative: band values above SUPPORT_TOL * max|field| count as
    support.  Zero fields pass trivially.  Only the field's support box is
    read: outside it the field is 0, so both maxima are those of the whole grid.
    Returns that box, support_box(field.values).
    """
    box = support_box(field.values)
    if box is None:
        return None
    r0, r1, c0, c1 = box
    mod = np.abs(field.values[r0:r1, c0:c1])
    m = float(np.max(mod))
    band_max = float(np.max(mod[field.grid.band_mask()[r0:r1, c0:c1]], initial=0.0))
    if band_max > SUPPORT_TOL * m:
        raise SupportViolation(
            f"{what} has relative magnitude {band_max / m:.3e} in the padding band "
            f"(tolerance {SUPPORT_TOL:.1e}); periodic wrap-around would corrupt the transform"
        )
    return box
