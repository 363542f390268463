import numpy as np
import pytest
from scipy import fft as sfft

from cgoplane.errors import SupportViolation
from cgoplane.grid import ComplexField, FourierGrid, check_padding_support, fft2


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
