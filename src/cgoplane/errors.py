"""Exception types shared across the workbench."""


class CgoplaneError(Exception):
    """Base class for all workbench errors."""


class SupportViolation(CgoplaneError):
    """A field (or domain) reaches into the padding band of the periodic square."""


class NonConvergence(CgoplaneError):
    """Fixed-point iteration for the correction field failed to contract.

    Usually means the phase frequency is below the contraction threshold
    for the given potential.
    """


class NearSingular(CgoplaneError):
    """Discrete forward operator is numerically singular.

    Raised on a condition estimate that is too large, or when an iterative
    solve stops short of its residual tolerance.
    """


class MeshMismatch(CgoplaneError):
    """Two boundary operators do not share the same boundary mesh."""


class AmplificationExceeded(CgoplaneError):
    """Boundary-route phase frequency is beyond what double-precision data carry.

    ``exponent`` is the predicted lam * osc(Im psi_x) over the mesh and
    ``budget`` the largest exponent the route admits.
    """

    def __init__(self, message, exponent: float, budget: float):
        super().__init__(message)
        self.exponent = exponent
        self.budget = budget


class ResolutionExceeded(CgoplaneError):
    """Oscillatory quadrature would need more sample points than allowed."""


class PerturbationTooLarge(CgoplaneError):
    """C^1 distance between the two functions exceeds the root-tracking threshold."""


class CutoffExceedsNyquist(CgoplaneError):
    """Requested Fourier cutoff is beyond the angular grid's Nyquist frequency."""


class DomainError(CgoplaneError, ValueError):
    """Argument outside the mathematical domain of the function."""


class ConfigError(CgoplaneError, ValueError):
    """Invalid or inconsistent experiment configuration."""


class BlobFormatError(CgoplaneError, ValueError):
    """A binary blob file is not in the expected format (magic, header or size)."""
