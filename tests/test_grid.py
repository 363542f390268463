import numpy as np
import pytest
from scipy import fft as sfft

from cgoplane.errors import SupportViolation
from cgoplane.grid import (ComplexField, FourierGrid, check_padding_support, fft2, ifft2,
                           padded_zeros, support_box)


def test_grid_requires_power_of_two():
    with pytest.raises(ValueError):
        FourierGrid(100, 4.0)
    with pytest.raises(ValueError):
        FourierGrid(256, -1.0)


def test_grid_nodes_and_spacing():
    g = FourierGrid(128, 4.0, center=(1.0, -0.5))
    assert g.h == 4.0 / 128
    assert np.isclose(g.z1[0], 1.0 - 2.0)
    assert np.isclose(g.z2[0], -0.5 - 2.0)
    # right edge is not duplicated (periodic convention)
    assert np.isclose(g.z1[-1], 1.0 + 2.0 - g.h)


def test_band_mask_geometry():
    g = FourierGrid(64, 4.0)
    band = g.band_mask()
    # central half-square is not in the band
    inner = (np.abs(g.Z1) <= 1.0) & (np.abs(g.Z2) <= 1.0)
    assert not np.any(band & inner)
    assert np.all(band | inner)


def test_field_shape_and_finiteness():
    g = FourierGrid(64, 4.0)
    with pytest.raises(ValueError):
        ComplexField(g, np.zeros((32, 32)))
    bad = np.zeros((64, 64), dtype=complex)
    bad[3, 3] = np.nan
    with pytest.raises(ValueError):
        ComplexField(g, bad)


def test_field_arithmetic_and_norms():
    g = FourierGrid(64, 4.0)
    a = ComplexField.from_function(g, lambda Z1, Z2: Z1 + 1j * Z2)
    b = ComplexField.from_function(g, lambda Z1, Z2: np.ones_like(Z1))
    s = a + 2 * b - b
    assert np.allclose(s.values, a.values + b.values)
    assert np.isclose(b.l2_norm(), 4.0)  # sqrt(area of the square) = sqrt(16)
    assert np.isclose(b.integral().real, 16.0)


def test_support_check_rejects_band_mass():
    g = FourierGrid(64, 4.0)
    ok = ComplexField.from_function(
        g, lambda Z1, Z2: np.exp(-(Z1**2 + Z2**2) / (2 * 0.1**2)))
    check_padding_support(ok)  # no raise
    shifted = ComplexField.from_function(
        g, lambda Z1, Z2: np.exp(-((Z1 - 1.5) ** 2 + Z2**2) / (2 * 0.1**2)))
    with pytest.raises(SupportViolation):
        check_padding_support(shifted)
    # zero fields pass trivially
    check_padding_support(ComplexField.zeros(g))
    # the check reads the support box: a lone node in the band's corner is support
    corner = np.zeros((64, 64), complex)
    corner[2, 3] = 1e-3
    with pytest.raises(SupportViolation):
        check_padding_support(ComplexField(g, corner))


def test_support_box_bounds_the_nonzero_entries():
    a = np.zeros((32, 32), complex)
    assert support_box(a) is None
    a[5, 7] = 1j
    a[9, 3] = -1.0
    assert support_box(a) == (5, 10, 3, 8)
    a[31, 31] = 1e-300
    assert support_box(a) == (5, 32, 3, 32)


def _columns(n, cols, rng, dtype=np.complex128):
    """n x n field, zero outside the given columns, with zeros scattered inside them."""
    a = np.zeros((n, n), dtype=dtype)
    vals = rng.standard_normal((n, len(cols)))
    if np.dtype(dtype).kind == "c":
        vals = vals + 1j * rng.standard_normal((n, len(cols)))
    vals[rng.random(vals.shape) < 0.2] = 0.0
    a[:, cols] = vals
    return a


@pytest.mark.parametrize("n, cols", [
    (512, list(range(211, 301))),       # a strip: 90 columns
    (256, [97]),                        # one column
    (128, [0, 127]),                    # support only in the first and last columns
    (128, list(range(128))),            # no zero column
    (64, []),                           # the zero field
    (256, list(range(128))),            # a far-field pad: the left half
    (64, list(range(5, 20)) + [40]),    # two strips with a gap
])
def test_fft2_equals_scipy_bit_for_bit(n, cols):
    # pruned or not, the axis-0 pass of every column and the axis-1 pass of
    # every row do the arithmetic scipy's fft2 does
    a = _columns(n, cols, np.random.default_rng(n + len(cols)))
    expected = sfft.fft2(a)
    before = a.copy()
    assert np.array_equal(fft2(a), expected)
    assert np.array_equal(a, before)          # overwrite_x=False leaves the input alone
    assert np.array_equal(fft2(a, overwrite_x=True), expected)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex64])
def test_fft2_of_other_dtypes_equals_scipy(dtype):
    a = _columns(64, list(range(10, 30)), np.random.default_rng(3), dtype)
    got = fft2(a)
    assert got.dtype == sfft.fft2(a).dtype
    assert np.array_equal(got, sfft.fft2(a))


def _as_layout(a, layout):
    """A copy of a, C-contiguous or in a padded_zeros view (rows n + 4 entries apart)."""
    if layout == "contiguous":
        return a.copy()
    out = padded_zeros(a.shape[0])
    out[...] = a
    return out


@pytest.mark.parametrize("layout", ["contiguous", "padded"])
@pytest.mark.parametrize("n", [64, 128, 512])
def test_ifft2_rows_equal_scipy_rows_bit_for_bit(n, layout):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    expected = sfft.ifft2(a)
    for r0, r1 in [(0, n), (n // 3, n // 3 + 1), (n - 1, n), (n // 4, 3 * n // 4)]:
        x = _as_layout(a, layout)
        assert np.array_equal(ifft2(x, rows=(r0, r1)), expected[r0:r1])
        assert np.array_equal(x, a)               # overwrite_x=False leaves the input alone
        assert np.array_equal(ifft2(x, overwrite_x=True, rows=(r0, r1)), expected[r0:r1])


@pytest.mark.parametrize("cols", [list(range(40, 70)), list(range(128))], ids=["strip", "full"])
def test_transforms_of_a_padded_view_equal_those_of_the_contiguous_copy(cols):
    a = _columns(128, cols, np.random.default_rng(len(cols)))
    x = _as_layout(a, "padded")
    assert x.shape == a.shape and x.strides[0] == 132 * 16
    for fn in (fft2, ifft2):
        expected = fn(a.copy())
        assert np.array_equal(fn(x), expected)
        got = fn(x, overwrite_x=True)
        assert np.shares_memory(got, x)           # transformed in the view's own memory
        assert np.array_equal(got, expected)
        assert np.array_equal(x, expected)
        x[...] = a
    # the transforms never touch the padding
    assert not x.base[:, 128:].any()
