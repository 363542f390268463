"""Reproducible experiment runners: counterexample, convergence, stability, lemma
decay suite, and the fixed-energy scattering study.

Each runner takes an ExperimentConfig, writes plot-ready CSV tables plus a
JSON summary into the output directory, and returns the summary dict.  The
config's ``params`` override the runner's defaults, and a key the runner does
not read raises ConfigError before any work.  All randomness is seeded from
the config, and CSV floats use shortest-roundtrip formatting, so identical
configs give byte-identical outputs.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, svds

from . import reference
from .cgo import (PhaseParams, alias_margin, homogeneous_weight, hs_norm,
                  lam_resolution_limit, phase_mul, s1_adjoint, s1_apply, solve_w)
from .dtn import (BoundaryMesh, assemble_polar_operator, dtn_matrix,
                  dtn_matrix_cached, dtn_opnorm_diff, h1_norm, solve_dirichlet)
from .errors import BlobFormatError, ConfigError
from .geometry import curve_distance_c2
from .grid import SUPPORT_TOL, ComplexField, FourierGrid, _is_pow2, fft2, ifft2
from .potentials import potential_from_description, rasterize
from .reconstruct import (AMPLIFICATION_BUDGET, build_error_weight_map, bukhgeim_trace,
                          lambda_sweep, reconstruct_interior)
from .scattering import (FarFieldData, compute_far_field_data, far_field, k_norm,
                         solve_lippmann_schwinger)
from .stationary import FunctionBundle, osc_integral_1d
from .utils import fit_loglog_slope, read_blob, write_blob, write_csv, write_json


@dataclass
class ExperimentConfig:
    """Configuration shared by all runners; per-experiment knobs in ``params``."""

    name: str
    out_dir: str = "out"
    grid_n: int = 256
    seed: int = 12345
    jobs: int = 1
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, low in (("grid_n", 1), ("seed", 0), ("jobs", 1)):
            value = getattr(self, key)
            if not _is_number(value, numbers.Integral) or value < low:
                raise ConfigError(f"{key} must be an integer >= {low}, got {value!r}")
        # only convergence reads jobs; an unread setting is refused like an unread key
        if self.jobs > 1 and self.name != "convergence":
            raise ConfigError(f"jobs is read only by convergence, not by {self.name}")
        # FourierGrid's own refusal would come only once a runner builds its grid
        if not _is_pow2(self.grid_n):
            raise ConfigError(f"grid_n must be a power of two >= 2, got {self.grid_n!r}")
        if not isinstance(self.params, dict):
            raise ConfigError("params must be an object")
        # JSON's NaN and Infinity: a NaN compares False with everything, so no
        # later range check would catch it
        bad = sorted(key for key, value in self.params.items() if _has_non_finite(value))
        if bad:
            raise ConfigError(f"params {', '.join(bad)} must hold only finite numbers")
        sched = self.params.get("lambdas")
        if sched is not None and (not isinstance(sched, (list, tuple))
                                  or not all(_is_number(v, numbers.Real) for v in sched)):
            raise ConfigError(f"lambdas must be a list of numbers, got {sched!r}")
        if sched is not None and any(b <= a for a, b in zip(sched, sched[1:])):
            raise ConfigError("lambda schedule must be strictly increasing")


def _is_number(value, kind) -> bool:
    """A config value of the numbers ABC kind; JSON's true and false are not numbers."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _has_non_finite(value) -> bool:
    """A NaN or infinite number anywhere in value, through nested lists and objects."""
    if isinstance(value, dict):
        return any(_has_non_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_has_non_finite(v) for v in value)
    return _is_number(value, numbers.Real) and not -np.inf < value < np.inf


def _same_kind(value, default) -> bool:
    """value has the JSON type of default; an integer may stand for a float.

    A None default (an optional table) takes any value, and None may replace
    a table to turn it off.  A list's elements must each have the kind of the
    default's first element, recursively, and a list whose default is not
    empty must not be empty either.  An element that is itself a list (a
    point, a complex value as a pair) must also have that element's length.
    """
    if default is None:
        return True
    if value is None:
        return isinstance(default, dict)
    if isinstance(default, bool):
        return isinstance(value, bool)
    for kind in (numbers.Integral, numbers.Real):
        if isinstance(default, kind):
            return _is_number(value, kind)
    if isinstance(default, (list, tuple)):
        if not isinstance(value, (list, tuple)) or (default and not value):
            return False
        item = default[0] if default else None
        return all(_same_kind(v, item) and (not isinstance(item, (list, tuple))
                                            or len(v) == len(item)) for v in value)
    return isinstance(value, type(default))


def _merge_params(cfg, defaults, groups=()):
    """The runner's defaults overridden by ``cfg.params``.

    A key outside the defaults raises ConfigError, so a typo cannot silently
    run the default, and so does a value whose type differs from its
    default's, or an n_r below 2.  Each of ``groups`` is a nested
    dict merged key by key over its default under the same rules.
    """
    def merge(given, base, where):
        unknown = sorted(set(given) - set(base))
        if unknown:
            raise ConfigError(f"unknown {where} params: {', '.join(unknown)}")
        for key, value in given.items():
            if key in base and not _same_kind(value, base[key]):
                raise ConfigError(f"{where} param {key} must be of the type of its "
                                  f"default {base[key]!r}, got {value!r}")
            if key == "n_r" and value < 2:
                # dtn.assemble_polar_operator needs 2 rings; refuse before any output
                raise ConfigError(f"{where} param n_r must be >= 2, got {value!r}")
        return {**base, **given}

    params = merge(cfg.params, defaults, cfg.name)
    for key in groups:
        if not isinstance(params[key], dict):
            raise ConfigError(f"{cfg.name} param {key} must be an object")
        params[key] = merge(params[key], defaults[key], f"{cfg.name} {key}")
    return params


def _outdir(cfg):
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _complex_cols(v):
    if v is None:
        return ("", "")
    return (v.real, v.imag)


# ---------------------------------------------------------------------------
# rhombus counterexample
# ---------------------------------------------------------------------------

RHOMBUS_POTENTIAL = {
    "s": 2.5,
    "r": 0.3,
    "domains": {"rhombus": {"builtin": "rhombus"}},
    "pieces": [{"q": {"type": "constant", "value": [1.0, 0.0]}, "domain": "rhombus"}],
}


def counterexample_defaults() -> dict:
    return {
        "t_values": [0.5, 1.0, 1.5],
        "lambdas": [8.0, 12.0, 16.0, 20.0],
        "side": 8.0,
    }


def run_counterexample(cfg: ExperimentConfig) -> dict:
    """Diagonal-rhombus failure study: side phases, line integral, sweep vs oracle.

    The grid is offset by half a cell in z2: the flat diagonal side carries a
    constant phase, and any other alignment turns the half-cell rasterization
    bias into a coherent error that grows linearly in lambda.
    """
    params = _merge_params(cfg, counterexample_defaults())
    t_values = [float(t) for t in params["t_values"]]
    if any(not 0 < t < 2 for t in t_values):
        raise ConfigError("t values must lie in (0, 2)")
    lams = [float(v) for v in params["lambdas"]]
    side = float(params["side"])
    n = cfg.grid_n
    h = side / n
    g = FourierGrid(n, side, center=(0.0, h / 2))
    # the oracle, the candidate constants and the side phases hold for this potential only
    V = rasterize(potential_from_description(RHOMBUS_POTENTIAL), g)

    out = _outdir(cfg)
    rows = []
    summary_t = []
    for t in t_values:
        x = (-t, -t)
        side_err = reference.side_phase_max_error(t)
        lint_quad, lint_closed = reference.diagonal_line_integral(t)
        sweep = lambda_sweep(V, x, lams)
        oracle = reference.oracle_limit(t)
        cands = reference.candidate_constants(t)
        est = sweep.limit
        rel_oracle = abs(est - oracle) / abs(oracle)
        for smp in sweep.samples:
            rows.append((t, *x, smp.lam, *_complex_cols(smp.value_boundary),
                         *_complex_cols(smp.value_interior), 0.0, 0.0, False))
        summary_t.append({
            "t": t,
            "side_phase_max_error": side_err,
            "line_integral_quadrature": lint_quad,
            "line_integral_closed_form": lint_closed,
            "line_integral_abs_error": abs(lint_quad - lint_closed),
            "sweep_limit": est,
            "sweep_dispersion": sweep.dispersion,
            "sweep_failures": list(sweep.failures),
            "oracle": oracle,
            "rel_error_vs_oracle": rel_oracle,
            "re_over_im": abs(est.real) / abs(est.imag) if est.imag else None,
            "candidate_printed": cands["printed_sqrt2_over_4pi"],
            "candidate_jacobian_corrected": cands["jacobian_corrected_1_over_2pi"],
            "rel_to_printed": abs(est - cands["printed_sqrt2_over_4pi"]) / abs(cands["printed_sqrt2_over_4pi"]),
            "rel_to_corrected": abs(est - cands["jacobian_corrected_1_over_2pi"]) / abs(cands["jacobian_corrected_1_over_2pi"]),
        })

    # proportionality to log(1 + 1/t) across t values (ratio test)
    base = summary_t[len(summary_t) // 2]
    ratio_rows = []
    for entry in summary_t:
        measured = abs(entry["sweep_limit"]) / abs(base["sweep_limit"])
        expected = np.log(1 + 1 / entry["t"]) / np.log(1 + 1 / base["t"])
        ratio_rows.append({"t": entry["t"], "measured_ratio": measured,
                           "expected_ratio": expected,
                           "rel_dev": abs(measured - expected) / expected})

    supported = ("jacobian_corrected_1_over_2pi"
                 if all(e["rel_to_corrected"] < e["rel_to_printed"] for e in summary_t)
                 else "printed_sqrt2_over_4pi")
    write_csv(os.path.join(out, "counterexample_sweep.csv"),
              ["t", "x1", "x2", "lambda", "re_boundary", "im_boundary",
               "re_interior", "im_interior", "re_truth", "im_truth", "masked"],
              rows)
    summary = {"experiment": "counterexample", "grid_n": n, "side": side,
               "grid_center": list(g.center), "lambdas": lams,
               "per_t": summary_t, "ratio_test": ratio_rows,
               "constant_supported_by_data": supported}
    write_json(os.path.join(out, "counterexample_summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

SMOOTH_BUMP_POTENTIAL = {
    "s": 2.5,
    "r": 0.3,
    "domains": {"disk": {"builtin": "disk", "radius": 1.0}},
    "pieces": [{"q": {"type": "gaussian-bump", "center": [0.0, 0.0], "sigma": 0.2,
                      "amplitude": [1.0, 0.0]}, "domain": "disk"}],
}

PWC_DISK_POTENTIAL = {
    "s": 2.5,
    "r": 0.3,
    "domains": {"disk": {"builtin": "disk", "radius": 0.3}},
    "pieces": [{"q": {"type": "constant", "value": [1.0, 0.5]}, "domain": "disk"}],
}


def convergence_defaults(variant="smooth-bump") -> dict:
    if variant == "smooth-bump":
        return {
            "variant": variant,
            "potential": SMOOTH_BUMP_POTENTIAL,
            "side": 4.0,
            # spans the boundary route's window (lam * osc(Im psi) <= budget,
            # lam <~ 16-24 here) and the interior route's large-lam regime
            "lambdas": [2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0, 128.0, 256.0, 512.0],
            "probes": [[a, b] for a in (-0.15, 0.0, 0.15) for b in (-0.15, 0.0, 0.15)],
            "mesh_nodes": 128,
            "n_r": 192,
            "mask_grid": None,
        }
    if variant == "pwc-disk":
        return {
            "variant": variant,
            "potential": PWC_DISK_POTENTIAL,
            "side": 4.0,
            "lambdas": [128.0, 256.0, 384.0, 512.0],
            "probes": [[0.0, 0.0], [0.15, 0.0], [0.0, 0.15], [-0.15, 0.0], [0.0, -0.15],
                       [0.45, 0.0], [0.0, 0.45], [-0.45, 0.0], [0.0, -0.45]],
            "mask_grid": {"lo": -0.55, "hi": 0.55, "n": 21},
        }
    raise ConfigError(f"unknown convergence variant {variant!r}")


def run_convergence(cfg: ExperimentConfig) -> dict:
    """Error-vs-lambda tables and fitted slopes at probe points off the mask."""
    variant = cfg.params.get("variant", "smooth-bump")
    params = _merge_params(cfg, convergence_defaults(variant))
    mg = params["mask_grid"]
    if mg and not (_is_number(mg["n"], numbers.Integral) and mg["n"] >= 1):
        # an empty dense grid would write its NaN fractions after the sweeps
        raise ConfigError(f"convergence mask_grid n must be an integer >= 1, got {mg['n']!r}")
    # the mesh refuses its node count before the output directory exists
    mesh = (BoundaryMesh(radius=1.0, n_nodes=int(params["mesh_nodes"]))
            if "mesh_nodes" in params else None)
    n = cfg.grid_n
    side = float(params["side"])
    g = FourierGrid(n, side)
    V_pw = potential_from_description(params["potential"])
    V = rasterize(V_pw, g)
    lams = [float(v) for v in params["lambdas"]]
    probes = np.asarray(params["probes"], float)
    out = _outdir(cfg)

    boundaries = [dom.boundary for _, dom in V_pw.pieces]
    wm = build_error_weight_map(probes, boundaries, exclusion_band=2 * g.h)
    excluded = wm.degenerate_mask | wm.near_curve_mask

    dtn_pair = None
    if mesh is not None:
        cache_dir = os.path.join(out, "dtn_cache")
        A_V = dtn_matrix_cached(cache_dir, V_pw.content_hash(), V_pw, mesh,
                                n_r=int(params["n_r"]), potential_tag=V_pw.content_hash())
        A_0 = dtn_matrix_cached(cache_dir, "zero-potential", None, mesh,
                                n_r=int(params["n_r"]), potential_tag="zero-potential")
        dtn_pair = (A_V, A_0)

    max_v = V_pw.max_abs()
    rows = []
    per_point = []

    def sweep_point(i):
        return lambda_sweep(V, probes[i], lams, dtn_pair=dtn_pair)

    indices = [i for i in range(len(probes)) if not excluded[i]]
    with ThreadPoolExecutor(max_workers=cfg.jobs) as ex:
        sweeps = list(ex.map(sweep_point, indices))

    for i, sweep in zip(indices, sweeps):
        x = probes[i]
        truth = complex(np.asarray(V_pw(np.array([x[0]]), np.array([x[1]])))[0])
        errs_i = [abs(s.value_interior - truth) for s in sweep.samples]
        lams_i = [s.lam for s in sweep.samples]
        slope_i = fit_loglog_slope(lams_i, errs_i)
        # worst over the requested lambdas: negative when a ghost of x comes
        # within ALIAS_CLEARANCE of V; +inf (written null) for the zero potential
        margin = min(alias_margin(V, PhaseParams(lam, (x[0], x[1]))) for lam in lams)
        entry = {
            "x": [float(x[0]), float(x[1])],
            "truth": truth,
            "interior_slope": slope_i,
            "interior_errors": errs_i,
            "limit": sweep.limit,
            "limit_abs_error": abs(sweep.limit - truth),
            "limit_rel_error_of_max": abs(sweep.limit - truth) / max_v,
            "weight": float(wm.weights[i]),
            "alias_margin": margin if np.isfinite(margin) else None,
        }
        if dtn_pair is not None:
            # boundary statistics over the admitted lambdas only (no slope
            # below two); refused lambdas are listed with their exponents
            admitted = [s for s in sweep.samples if s.value_boundary is not None]
            errs_b = [abs(s.value_boundary - truth) for s in admitted]
            entry["boundary_lambdas"] = [s.lam for s in admitted]
            entry["boundary_slope"] = fit_loglog_slope(entry["boundary_lambdas"], errs_b)
            entry["boundary_errors"] = errs_b
            agree = [abs(s.value_boundary - s.value_interior) / max(abs(s.value_interior), 1e-300)
                     for s in admitted]
            entry["route_agreement"] = agree
            entry["boundary_refused"] = [{"lambda": lam, "exponent": e}
                                         for lam, e in sweep.refused]
        per_point.append(entry)
        for s in sweep.samples:
            rows.append((*entry["x"], s.lam, *_complex_cols(s.value_boundary),
                         *_complex_cols(s.value_interior), *_complex_cols(truth), False))
    for i in range(len(probes)):
        if excluded[i]:
            rows.append((probes[i][0], probes[i][1], "", "", "", "", "", "", "", True))

    # dense mask-fraction grid, stationary analysis only
    mask_info = None
    if mg:
        ax = np.linspace(mg["lo"], mg["hi"], mg["n"])
        g1, g2 = np.meshgrid(ax, ax)
        pts = np.stack([g1.ravel(), g2.ravel()], axis=-1)
        dense = build_error_weight_map(pts, boundaries, exclusion_band=2 * g.h)
        mask_info = {
            "n_points": int(len(pts)),
            "degenerate_fraction": float(np.mean(dense.degenerate_mask)),
            "near_curve_fraction": float(np.mean(dense.near_curve_mask)),
        }
        write_csv(os.path.join(out, f"mask_grid_{variant}.csv"),
                  ["x1", "x2", "weight", "degenerate", "near_curve"],
                  [(p[0], p[1], w, bool(dm), bool(nm)) for p, w, dm, nm in
                   zip(pts, dense.weights, dense.degenerate_mask, dense.near_curve_mask)])

    write_csv(os.path.join(out, f"convergence_{variant}.csv"),
              ["x1", "x2", "lambda", "re_boundary", "im_boundary",
               "re_interior", "im_interior", "re_truth", "im_truth", "masked"],
              rows)
    summary = {"experiment": "convergence", "variant": variant, "grid_n": n,
               "side": side, "lambdas": lams, "max_abs_potential": max_v,
               "per_point": per_point, "mask": mask_info,
               "excluded_probe_fraction": float(np.mean(excluded))}
    if dtn_pair is not None:
        summary["amplification_budget"] = AMPLIFICATION_BUDGET
    write_json(os.path.join(out, f"convergence_{variant}_summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# stability experiment
# ---------------------------------------------------------------------------

def _lens_potential_description(delta: float, half_width, height, bump_amp, q_value) -> dict:
    """Lens bounded by two parabolic arcs; the top arc carries the perturbation.

    The perturbation bump (1 - (t/w)^2)^2 vanishes with its first derivative
    at the corners, so the perturbed boundary still chains and stays C^2 on
    each piece; its size in C^2 norm scales exactly with delta.
    """
    w, hgt = half_width, height
    top = [hgt, 0.0, -hgt / w**2]
    bump = np.array([1.0, 0.0, -2.0 / w**2, 0.0, 1.0 / w**4]) * bump_amp * delta
    top_pert = (np.array(top + [0.0, 0.0]) + bump).tolist()
    bottom = [-hgt, 0.0, hgt / w**2]
    return {
        "s": 2.5,
        "r": 0.3,
        "domains": {
            "lens": {"segments": [
                {"orientation": "z1", "interval": [-w, w],
                 "function": {"type": "polynomial", "coeffs": top_pert}},
                {"orientation": "z1", "interval": [-w, w], "reverse": True,
                 "function": {"type": "polynomial", "coeffs": bottom}},
            ]},
        },
        "pieces": [{"q": {"type": "constant", "value": list(q_value)}, "domain": "lens"}],
    }


def stability_defaults() -> dict:
    return {
        "deltas": [0.1, 0.05, 0.02, 0.01],
        "disk_radius": 0.15,
        "mesh_nodes": 128,
        "n_r": 128,
        "side": 0.6,
        "probes": [[0.0, 0.1], [0.0, -0.1], [0.1, 0.0], [-0.1, 0.0], [0.07, -0.09]],
        "lens": {"half_width": 0.08, "height": 0.04, "bump_amp": 0.02,
                 "q_value": [1.0, 0.2]},
    }


def schedule_lambda(gap: float, diameter: float):
    """Log schedule lam = -ln(gap) / (6 d^2); a vanished gap licenses any lam."""
    if not gap >= 0:
        raise ConfigError(f"DtN gap must be a nonnegative number, not {gap}")
    if gap >= 1:
        raise ConfigError("DtN gap >= 1: potentials are not close; schedule undefined")
    if gap == 0.0:
        return np.inf
    return -np.log(gap) / (6.0 * diameter**2)


def run_stability(cfg: ExperimentConfig) -> dict:
    """Perturb the discontinuity curve, track DtN gap, schedule lambda, reconstruct."""
    params = _merge_params(cfg, stability_defaults(), groups=("lens",))
    lens = params["lens"]
    if not lens["half_width"] > 0:
        raise ConfigError(f"stability lens half_width must be > 0, got {lens['half_width']!r}")
    deltas = [float(d) for d in params["deltas"]]
    radius = float(params["disk_radius"])
    diameter = 2 * radius
    mesh = BoundaryMesh(radius=radius, n_nodes=int(params["mesh_nodes"]))
    n_r = int(params["n_r"])
    side = float(params["side"])
    g = FourierGrid(cfg.grid_n, side)
    lam_max = lam_resolution_limit(g)
    out = _outdir(cfg)

    desc1 = _lens_potential_description(0.0, **lens)
    V1_pw = potential_from_description(desc1)
    V1 = rasterize(V1_pw, g)
    A1 = dtn_matrix(V1_pw, mesh, n_r=n_r, potential_tag="lens-base")

    probes = np.asarray(params["probes"], float)
    # per-delta measurements; moduli are |ln gap|^{1 - s/2}, schedule residuals
    # |lambda - (-ln gap)/(6 d^2)| unless clamped
    run = {key: [] for key in ("deltas", "curve_distances", "dtn_gaps", "lambdas",
                               "lambda_clamped", "sup_errors", "moduli",
                               "schedule_residuals")}
    s_index = V1_pw.s
    rows = []
    for delta in deltas:
        desc2 = _lens_potential_description(delta, **lens)
        V2_pw = potential_from_description(desc2)
        V2 = rasterize(V2_pw, g)
        cdist = curve_distance_c2(V1_pw.pieces[0][1].boundary.segments,
                                  V2_pw.pieces[0][1].boundary.segments)
        if not np.isfinite(cdist):
            raise ConfigError("perturbed boundary lost the common cover")
        A2 = dtn_matrix(V2_pw, mesh, n_r=n_r, potential_tag=f"lens-delta-{delta}")
        gap = dtn_opnorm_diff(A1, A2)
        lam = schedule_lambda(gap, diameter)
        clamped = lam > lam_max
        lam_used = min(lam, lam_max)
        residual = 0.0 if clamped else abs(lam_used - (-np.log(gap) / (6 * diameter**2)))

        boundaries = [V1_pw.pieces[0][1].boundary, V2_pw.pieces[0][1].boundary]
        wm = build_error_weight_map(probes, boundaries, exclusion_band=2 * g.h)
        excluded = wm.degenerate_mask | wm.near_curve_mask
        sup_err = 0.0
        for i, x in enumerate(probes):
            if excluded[i]:
                continue
            p = PhaseParams(lam_used, (x[0], x[1]))
            r1 = reconstruct_interior(V1, p)
            r2 = reconstruct_interior(V2, p)
            sup_err = max(sup_err, abs(r1 - r2))
            rows.append((delta, x[0], x[1], lam_used, r1.real, r1.imag,
                         r2.real, r2.imag, abs(r1 - r2)))
        run["deltas"].append(delta)
        run["curve_distances"].append(float(cdist))
        run["dtn_gaps"].append(float(gap))
        run["lambdas"].append(float(lam_used))
        run["lambda_clamped"].append(bool(clamped))
        run["sup_errors"].append(float(sup_err))
        # |ln 0| = inf, and inf ** (1 - s/2) is the gap -> 0 limit of the modulus
        log_gap = abs(np.log(gap)) if gap > 0 else np.inf
        run["moduli"].append(float(log_gap ** (1 - s_index / 2)))
        run["schedule_residuals"].append(float(residual))

    write_csv(os.path.join(out, "stability_probes.csv"),
              ["delta", "x1", "x2", "lambda", "re_recon1", "im_recon1",
               "re_recon2", "im_recon2", "abs_difference"], rows)
    write_csv(os.path.join(out, "stability_trend.csv"),
              ["delta", "curve_distance_c2", "dtn_gap", "lambda", "clamped",
               "modulus", "sup_error"],
              zip(*(run[key] for key in ("deltas", "curve_distances", "dtn_gaps", "lambdas",
                                         "lambda_clamped", "moduli", "sup_errors"))))
    summary = {"experiment": "stability", "diameter": diameter, "s": s_index, "run": run}
    write_json(os.path.join(out, "stability_summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# lemma decay suite
# ---------------------------------------------------------------------------

def _taper(r2, radius=0.3, width=0.04):
    """1 inside the given radius, a Gaussian of the given width in r beyond it."""
    return np.exp(-np.maximum(r2 - radius**2, 0.0) / (2 * width**2))


# headroom of the critical fields' taper under SUPPORT_TOL where the padding band
# begins: a field's band values reached 1.2 times the taper's over 40 draws at 32^2-256^2
_TAPER_HEADROOM = 10.0


def _bandlimited_field(g, rng, xi_max):
    n = g.n_per_side
    spec = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mask = np.sqrt(g.xi_sq) <= xi_max
    f = ifft2(spec * mask) * _taper(g.Z1**2 + g.Z2**2, radius=0.35)
    f = f - np.mean(f)
    return ComplexField(g, f)


def _critical_field(g, rng, s, amp=1.0):
    """Random field with spectral envelope |xi|^{-(1+s)}: borderline H^s in 2D.

    The mean is removed before the taper, so the field keeps the taper's
    support and passes the padding guard of solve_w.
    """
    n = g.n_per_side
    with np.errstate(divide="ignore"):
        env = np.sqrt(g.xi_sq) ** (-(1.0 + s))
    env[0, 0] = 0.0
    phase = np.exp(2j * np.pi * rng.random((n, n)))
    f = ifft2(env * phase * (n * n)).real.astype(complex)
    f = (f - np.mean(f)) * _taper(g.Z1**2 + g.Z2**2)
    return ComplexField(g, f / np.max(np.abs(f)) * amp)


def _s1_opnorm(g, lam, s1, s2, rng):
    """|| W_{s2} S1 W_{s1}^{-1} ||_2 on Fourier coefficients, by ARPACK (scipy svds).

    The start vector comes from ``rng``, so the value is reproducible.
    """
    p = PhaseParams(lam, (0.03, -0.02))
    w_out = homogeneous_weight(g, s2)
    w_in_inv = homogeneous_weight(g, -s1)
    n = g.n_per_side

    # ARPACK hands over (N, 1) columns: reshape them to the grid before
    # weighting, or they broadcast against it
    def fwd(v):
        f = s1_apply(ComplexField(g, ifft2(w_in_inv * v.reshape(n, n))), p,
                     check_support=False)
        return (w_out * fft2(f.values)).ravel()

    def adj(v):
        f = s1_adjoint(ComplexField(g, ifft2(w_out * v.reshape(n, n))), p)
        return (w_in_inv * fft2(f.values)).ravel()

    op = LinearOperator((n * n, n * n), matvec=fwd, rmatvec=adj, dtype=complex)
    v0 = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
    return float(svds(op, k=1, v0=v0, return_singular_vectors=False)[0])


def lemma_defaults() -> dict:
    return {
        "side": 2.0,
        "lambda_factor": 1.0,
        "phase_probes": [[0.0, 0.0], [0.05, 0.02], [-0.04, 0.06]],
        "growth": {"disk_radius": 1.0, "mesh_nodes": 128, "n_r": 128,
                   "lambdas": [4.0, 8.0, 16.0, 32.0], "sigma": 0.3, "amp": 0.3,
                   "x": [0.3, -0.2], "side": 4.0},
    }


def run_lemma_checks(cfg: ExperimentConfig) -> dict:
    """One decay/growth fit per lemma against its slope budget."""
    params = _merge_params(cfg, lemma_defaults(), groups=("growth",))
    fac = float(params["lambda_factor"])
    side = float(params["side"])
    # solve_w refuses a critical field with mass in the padding band |z_i| > side/4
    if _taper((side / 4) ** 2) * _TAPER_HEADROOM > SUPPORT_TOL:
        raise ConfigError(f"lemmas side {side:g} is too small: the critical fields' taper "
                          f"(radius 0.3, width 0.04) reaches the padding band at {side / 4:g}")
    g = FourierGrid(cfg.grid_n, side)
    rng = np.random.default_rng(cfg.seed)
    probes = [tuple(p) for p in params["phase_probes"]]
    checks = []

    def record(name, lams, values, budget_lo, budget_hi, note="", fit=fit_loglog_slope):
        # budget_lo None: one-sided budget; slope None: too few positive values
        slope = fit(lams, values)
        passed = (slope is not None and slope <= budget_hi
                  and (budget_lo is None or budget_lo <= slope))
        checks.append({"name": name, "lambdas": list(lams), "values": list(values),
                       "slope": slope, "budget": [budget_lo, budget_hi],
                       "passed": passed, "note": note})

    s = 0.25

    def dual_norm(p, F):
        # || e^{i lam phi} F - mean ||_{H^{-s}}
        MF = phase_mul(F, p, +1)
        return hs_norm(MF - MF.mean(), -s)

    # phase multiplication decay, band-limited fields
    lams = [v * fac for v in (16.0, 32.0, 64.0, 128.0, 256.0)]
    ratios = []
    for lam in lams:
        vals = []
        for _ in range(5):
            F = _bandlimited_field(g, rng, xi_max=10.0)
            vals.append(dual_norm(PhaseParams(lam, (0.05, -0.03)), F) / hs_norm(F, s))
        ratios.append(float(np.mean(vals)))
    record("phase_mul_duality_decay", lams, ratios, -s - 0.2, -s + 0.2)

    # smoothing-operator norms, largest singular value by ARPACK
    for (s1, s2) in ((0.25, 0.5), (0.5, 0.25)):
        tau = 1.0 - s2 + min(s1, s2)
        norms = [_s1_opnorm(g, lam, s1, s2, rng) for lam in lams]
        record(f"smoothing_opnorm_{s1}_{s2}", lams, norms, -tau - 0.2, -tau + 0.2)

    # correction-field functionals: for each lam, the mean over three seeded
    # draws of critical fields of the sup over the phase probes
    lams2 = [v * fac for v in (64.0, 128.0, 256.0, 512.0)]

    def functional_sweep(seed_base, n_fields, functional):
        sups = {lam: [] for lam in lams2}
        for seed_off in range(3):
            rng_c = np.random.default_rng(cfg.seed + seed_base + seed_off)
            fields = [_critical_field(g, rng_c, s, 0.8) for _ in range(n_fields)]
            for lam in lams2:
                sups[lam].append(max(
                    lam / np.pi * functional(p, *(solve_w(V, p) for V in fields))
                    for p in (PhaseParams(lam, x) for x in probes)))
        return [float(np.mean(sups[lam])) for lam in lams2]

    record("correction_functional_decay", lams2, functional_sweep(1000, 1, dual_norm),
           -s - 0.2, -s + 0.2, note="sup over unit test fields via the dual norm")

    # two-correction functional decay; sup over unit L^2 test fields is the
    # grid L^2 norm of the product (the phase carries modulus one).  Faster
    # decay than the -2s rate cannot be ruled in, so the budget is one-sided.
    vals = functional_sweep(
        2000, 2, lambda p, w1, w2: ComplexField(g, w1.values * w2.values).l2_norm())
    record("double_correction_decay", lams2, vals, None, -2 * s + 0.2,
           note="sup over unit test fields via the dual norm; one-sided budget")

    # 1D oscillatory integrals
    lams3 = [v * fac for v in (100.0, 316.23, 1000.0, 3162.3, 10000.0)]
    gb = FunctionBundle(lambda t: t**2, lambda t: 2 * t, lambda t: 2 + 0 * t, (-1.0, 1.0))
    h1 = lambda t: np.exp(-t**2) * (1 + 0.3 * t)  # noqa: E731
    record("osc1d_one_stationary_point", lams3,
           [abs(osc_integral_1d(gb, h1, lam)) for lam in lams3], -0.6, -0.4)
    gb2 = FunctionBundle(lambda t: t, lambda t: 1 + 0 * t, lambda t: 0 * t, (0.0, 3.0))
    h2 = lambda t: np.exp(-t)  # noqa: E731
    record("osc1d_no_stationary_point", lams3,
           [abs(osc_integral_1d(gb2, h2, lam)) for lam in lams3], -1.1, -0.9)

    # exponential growth of the special solutions through the forward solver
    gr = params["growth"]
    gg = FourierGrid(cfg.grid_n, float(gr["side"]))
    radius = float(gr["disk_radius"])
    sig, amp = float(gr["sigma"]), float(gr["amp"])
    Vf = lambda Z1, Z2: (amp * np.exp(-(Z1**2 + Z2**2) / (2 * sig**2))  # noqa: E731
                         * ((Z1**2 + Z2**2) <= radius**2))
    Vg = ComplexField.from_function(gg, Vf)
    mesh = BoundaryMesh(radius=radius, n_nodes=int(gr["mesh_nodes"]))
    op = assemble_polar_operator(Vf, mesh, n_r=int(gr["n_r"]))
    lams4 = [v * fac for v in gr["lambdas"]]
    h1s = []
    for lam in lams4:
        p = PhaseParams(lam, tuple(gr["x"]))
        tr = bukhgeim_trace(Vg, p, mesh)
        h1s.append(h1_norm(op, solve_dirichlet(op, tr)))
    record("special_solution_growth", lams4, h1s, None, 1.1 * (2 * radius) ** 2,
           note="linear fit of log H^1 norm vs lambda",
           fit=lambda lams, vals: float(np.polyfit(lams, np.log(vals), 1)[0]))

    out = _outdir(cfg)
    write_csv(os.path.join(out, "lemma_checks.csv"),
              ["name", "slope", "budget_lo", "budget_hi", "passed"],
              [(c["name"], c["slope"], -np.inf if c["budget"][0] is None else c["budget"][0],
                c["budget"][1], c["passed"]) for c in checks])
    summary = {"experiment": "lemmas", "grid_n": cfg.grid_n,
               "lambda_factor": fac, "checks": checks,
               "all_passed": all(c["passed"] for c in checks)}
    write_json(os.path.join(out, "lemma_summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# scattering study
# ---------------------------------------------------------------------------

def scatter_defaults() -> dict:
    return {
        "k": 4.0,
        "side": 2.2,
        "nystrom_n": 64,
        "sigma": 0.25,
        "epsilons": [0.2, 0.1],
        "n_angles": 128,
        "cutoff": 10,
    }


def run_scatter(cfg: ExperimentConfig) -> dict:
    """Born-regime far-field check, angular dataset, and the weighted norm."""
    params = _merge_params(cfg, scatter_defaults())
    k = float(params["k"])
    sig = float(params["sigma"])
    nys_n = int(params["nystrom_n"])
    n_angles = int(params["n_angles"])
    if not k > 0:
        # y0(0) is NaN, which the solver would report as a resonance
        raise ConfigError(f"scatter k must be > 0, got {k!r}")
    if not _is_pow2(nys_n):
        raise ConfigError(f"scatter nystrom_n must be a power of two >= 2, got {nys_n!r}")
    try:
        FarFieldData.angle_grid((n_angles, n_angles))
    except ValueError as exc:
        raise ConfigError(f"scatter n_angles: {exc}") from exc
    g = FourierGrid(nys_n, float(params["side"]))
    out = _outdir(cfg)

    def make_v(eps):
        # bump cut to the unit disk: the weighted norm assumes that support
        return ComplexField.from_function(
            g, lambda Z1, Z2: eps * np.exp(-(Z1**2 + Z2**2) / (2 * sig**2))
            * ((Z1**2 + Z2**2) <= 1.0))

    def born_amp(eps, eta, theta):
        xi = k * (np.asarray(eta) - np.asarray(theta))
        return eps * 2 * np.pi * sig**2 * np.exp(-sig**2 * (xi @ xi) / 2)

    # first-order scaling of the Born mismatch
    directions = [((1.0, 0.0), (0.0, 1.0)), ((np.cos(0.7), np.sin(0.7)), (1.0, 0.0))]
    mismatches = []
    residuals = []
    for eps in params["epsilons"]:
        V = make_v(eps)
        worst = 0.0
        for eta, theta in directions:
            sol = solve_lippmann_schwinger(V, k, theta)
            residuals.append(sol.residual)
            a = far_field(V, eta, sol)
            worst = max(worst, abs(a - born_amp(eps, eta, theta)) / abs(born_amp(eps, eta, theta)))
        mismatches.append(worst)
    halving_ratio = mismatches[0] / mismatches[1] if len(mismatches) > 1 else None

    # full angular dataset and the weighted norm
    V = make_v(params["epsilons"][0])
    data = compute_far_field_data(V, k, n_eta=n_angles, n_theta=n_angles)
    norm = k_norm(data, cutoff=int(params["cutoff"]))
    write_csv(os.path.join(out, "far_field_samples.csv"),
              ["i_eta", "j_theta", "re", "im"],
              [(i, j, data.samples[i, j].real, data.samples[i, j].imag)
               for i in range(0, data.samples.shape[0], 4)
               for j in range(0, data.samples.shape[1], 4)])
    _save_far_field(os.path.join(out, "far_field.ffd"), data)

    summary = {"experiment": "scatter", "k": k, "nystrom_n": nys_n,
               "born_mismatch": mismatches, "halving_ratio": halving_ratio,
               "max_residual": max(residuals),
               "k_norm": norm.value, "k_norm_tail": norm.tail,
               "coeff_consistency": data.consistency()}
    write_json(os.path.join(out, "scatter_summary.json"), summary)
    return summary


_FF_MAGIC = b"FARFLD01"


def _save_far_field(path, data: FarFieldData):
    write_blob(path, _FF_MAGIC, {"k": data.k}, data.coeffs)


def load_far_field(path) -> FarFieldData:
    header, coeffs = read_blob(path, _FF_MAGIC)
    try:
        FarFieldData.angle_grid(coeffs.shape)
        k = float(header["k"])
    except (KeyError, TypeError, ValueError) as exc:
        raise BlobFormatError(f"{path}: {exc!r}") from exc
    return FarFieldData(k=k, samples=np.fft.ifft2(coeffs) * coeffs.size, coeffs=coeffs)


RUNNERS = {
    "counterexample": run_counterexample,
    "convergence": run_convergence,
    "stability": run_stability,
    "lemmas": run_lemma_checks,
    "scatter": run_scatter,
}
