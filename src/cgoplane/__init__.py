"""Numerical workbench for recovering piecewise-smooth planar potentials from
boundary (Dirichlet-to-Neumann) and fixed-energy scattering data, built around
quadratic-phase complex-geometrical-optics fields."""

from .cgo import (PhaseParams, alias_margin, dz_inv, dzbar_inv, hs_norm, phase_mul,
                  s1_apply, solve_w, t_w_lambda)
from .dtn import (BoundaryMesh, DtnMatrix, dtn_matrix, dtn_matrix_cached,
                  dtn_opnorm_diff, h1_norm, load_dtn, save_dtn, solve_dirichlet)
from .errors import (AmplificationExceeded, BlobFormatError, CgoplaneError, ConfigError,
                     CutoffExceedsNyquist, DomainError, MeshMismatch, NearSingular,
                     NonConvergence, PerturbationTooLarge, ResolutionExceeded,
                     SupportViolation)
from .geometry import (GraphSegment, PiecewiseBoundary, SubDomain, curve_distance_c2,
                       make_disk, make_rhombus)
from .grid import ComplexField, FourierGrid
from .potentials import (PiecewisePotential, chi_hr_norm, dsr_norm_upper,
                         potential_from_description, rasterize, w_s1_norm)
from .reconstruct import (AMPLIFICATION_BUDGET, ErrorWeightMap, ReconSample,
                          amplification_exponent, build_error_weight_map,
                          bukhgeim_trace, lambda_sweep,
                          reconstruct_boundary, reconstruct_interior)
from .scattering import (FarFieldData, compute_far_field_data, far_field, green0,
                         k_norm, solve_lippmann_schwinger)
from .stationary import (DegenerateLocus, FunctionBundle, StationaryPoint,
                         degenerate_locus, find_stationary, osc_integral_1d,
                         phase_on_curve, tangent_set_area, track_roots)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
