import numpy as np
import pytest

from cgoplane.grid import ComplexField, FourierGrid, fft2, ifft2


@pytest.fixture(scope="session")
def grid256():
    return FourierGrid(256, 4.0)


@pytest.fixture(scope="session")
def grid128():
    return FourierGrid(128, 4.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def gaussian_bump(grid, sigma=0.15, center=(0.0, 0.0), amp=1.0):
    return ComplexField.from_function(
        grid,
        lambda Z1, Z2: amp * np.exp(-((Z1 - center[0]) ** 2 + (Z2 - center[1]) ** 2)
                                    / (2 * sigma**2)),
    )


def supported_noise(grid, rng, radius=0.35):
    """Random complex field tapered to the padding-safe central region."""
    n = grid.n_per_side
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    r2 = grid.Z1**2 + grid.Z2**2
    taper = np.exp(-np.maximum(r2 - radius**2, 0.0) / (2 * 0.05**2))
    return ComplexField(grid, vals * taper)


# Oracles: formulas the package no longer needs, kept here to test against.

def psi_values(grid, x):
    """psi_x = (1/2)((z1 - x1) + i(z2 - x2))^2 on the nodes (complex)."""
    zeta = (grid.Z1 - x[0]) + 1j * (grid.Z2 - x[1])
    return 0.5 * zeta * zeta


def phi_values(grid, x):
    """phi_x = psi_x + conj(psi_x) = (z1 - x1)^2 - (z2 - x2)^2 on the nodes (real)."""
    return (grid.Z1 - x[0]) ** 2 - (grid.Z2 - x[1]) ** 2


def dz(F):
    """Spectral d/dz: the symbol (i/2)(xi1 - i xi2)."""
    g = F.grid
    return ComplexField(g, ifft2(fft2(F.values) * (0.5j * (g.xi[None, :] - 1j * g.xi[:, None]))))


def dzbar(F):
    """Spectral d/dzbar: the symbol (i/2)(xi1 + i xi2)."""
    g = F.grid
    return ComplexField(g, ifft2(fft2(F.values) * (0.5j * (g.xi[None, :] + 1j * g.xi[:, None]))))
