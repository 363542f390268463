"""The three workloads: inputs made from a seed, one round of operations, checks.

Every workload runs whole rounds of the same operations.  ``setup`` builds
everything a round needs before its first operation; ``run_round`` times each
operation with ``clock.op`` and runs its checks inside ``clock.outside``, so
check time is not in the measured phase and checks record no spans.
"""

from __future__ import annotations

import math
import os
import shutil

import numpy as np

import checks

# -- interior-jump -------------------------------------------------------------
# The paper's jump case: value 1 + 0.5i inside r = 0.3, 0 outside.  The
# limit error of the interior route ripples with x at these lambda: up to
# 7.6 % of max|V| over 40 random points in r <= 0.08, but 13.2 % at
# r = 0.11, too near criterion 3's 15 % for a check every seed must pass, so
# inside probes stay in r <= 0.08.  The hyperbolic phase sampled at spacing h
# aliases a stationary point onto the ghosts x -+ (pi n / (lam side)) e_j,
# 0.785 away at lam = 512; outside probes lie 0.15 from the jump and are
# drawn so that both ghosts stay 0.1 clear of the disk, since a ghost nearer
# the jump spoils the limit (22 % of max|V| at x = (0.47, 0), ghost 0.015 away).

DISK_RADIUS = 0.3
DISK_VALUE = 1.0 + 0.5j
DISK = {
    "s": 2.5, "r": 0.3,
    "domains": {"disk": {"builtin": "disk", "radius": DISK_RADIUS}},
    "pieces": [{"q": {"type": "constant", "value": [DISK_VALUE.real, DISK_VALUE.imag]},
                "domain": "disk"}],
}
JUMP_GRID = (512, 4.0)
JUMP_LAMBDAS = (128.0, 256.0, 384.0, 512.0)
JUMP_INSIDE = (5, 0.0, 0.08)       # count, inner and outer radius of the probe annulus
JUMP_OUTSIDE = (4, 0.45, 0.55)
GHOST_CLEARANCE = 0.1
SOLVE_TOL = 1e-8


def _annulus(rng, count, r_in, r_out):
    r = np.sqrt(rng.uniform(r_in**2, r_out**2, count))
    t = rng.uniform(0.0, 2 * np.pi, count)
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)


def _ghost_clear(x, spacing):
    ghosts = ((x[0] - math.copysign(spacing, x[0]), x[1]),
              (x[0], x[1] - math.copysign(spacing, x[1])))
    return all(math.hypot(*g) >= DISK_RADIUS + GHOST_CLEARANCE for g in ghosts)


def _outside_probes(rng, count, r_in, r_out, spacing):
    probes = []
    while len(probes) < count:
        x = _annulus(rng, 1, r_in, r_out)[0]
        if _ghost_clear(x, spacing):
            probes.append(x)
    return np.array(probes)


def _unmasked_weight_map(cg, probes, boundaries, grid):
    wm = cg.build_error_weight_map(probes, boundaries, exclusion_band=2 * grid.h)
    if np.any(wm.degenerate_mask | wm.near_curve_mask):
        raise ValueError("a probe fell in the stationary-phase mask")


class InteriorJump:
    name = "interior-jump"

    def setup(self, cg, seed):
        grid = cg.FourierGrid(*JUMP_GRID)
        pot = cg.potential_from_description(DISK)
        V = cg.rasterize(pot, grid)
        rng = np.random.default_rng(seed)
        spacing = math.pi * grid.n_per_side / (max(JUMP_LAMBDAS) * grid.side_len)
        probes = np.concatenate([_annulus(rng, *JUMP_INSIDE),
                                 _outside_probes(rng, *JUMP_OUTSIDE, spacing)])
        _unmasked_weight_map(cg, probes, [dom.boundary for _, dom in pot.pieces], grid)
        return {"V": V, "probes": probes}

    def run_round(self, cg, st, clock):
        V = st["V"]
        values, truths, residuals = [], [], []
        for x in st["probes"]:
            vals = []
            for lam in JUMP_LAMBDAS:
                p = cg.PhaseParams(lam, (x[0], x[1]))
                with clock.op("sample"):
                    w = cg.solve_w(V, p, tol=SOLVE_TOL)
                    vals.append(cg.reconstruct_interior(V, p, w=w))
                with clock.outside():
                    residuals.append(
                        checks.fixed_point_residual(cg.s1_apply, V, p, w, SOLVE_TOL))
            values.append(vals)
            truths.append(checks.disk_truth(x, DISK_RADIUS, DISK_VALUE))
        with clock.outside():
            worst = checks.sweep_limits_within(values, truths, abs(DISK_VALUE))
        return {"worst_limit_error_of_max": worst, "worst_residual": max(residuals)}


# -- dtn-stability -------------------------------------------------------------
# The stability pipeline of the paper's log estimate: a lens whose top arc is
# bent by delta, its DtN gap to delta = 0, and lambda from the log schedule.
# Each DtN matrix is requested twice from an empty cache (one miss, one hit),
# so assembly, blob writes and blob reads all run.  Probes lie in a ring
# clear of every lens (the lens reaches 0.08 along z1 and 0.04 along z2).
#
# One operation is one step of the pipeline as a user runs it: the first
# fetches the two reference matrices (zero potential and delta = 0); each
# later one takes one delta from its DtN requests through its gap to its
# two-route samples at the probes.  A delta step is about 3/4 DtN assembly,
# so its latency swings less with the host than a 40-80 ms sample's does.

LENS_DELTAS = (0.1, 0.05, 0.02, 0.01)
LENS = {"half_width": 0.08, "height": 0.04, "bump_amp": 0.02, "q_value": (1.0, 0.2)}
STAB_RADIUS = 0.15
STAB_MESH_NODES = 128
STAB_NR = 128
STAB_GRID = (256, 0.6)
STAB_PROBES = (5, 0.095, 0.125)
ZERO_TAG = "zero-potential"


def lens_description(delta, half_width, height, bump_amp, q_value):
    """Lens between two parabolic arcs; the top arc carries delta times a C^2 bump."""
    w, hgt = half_width, height
    bump = np.array([1.0, 0.0, -2.0 / w**2, 0.0, 1.0 / w**4]) * bump_amp * delta
    top = (np.array([hgt, 0.0, -hgt / w**2, 0.0, 0.0]) + bump).tolist()
    return {
        "s": 2.5, "r": 0.3,
        "domains": {"lens": {"segments": [
            {"orientation": "z1", "interval": [-w, w],
             "function": {"type": "polynomial", "coeffs": top}},
            {"orientation": "z1", "interval": [-w, w], "reverse": True,
             "function": {"type": "polynomial", "coeffs": [-hgt, 0.0, hgt / w**2]}},
        ]}},
        "pieces": [{"q": {"type": "constant", "value": list(q_value)}, "domain": "lens"}],
    }


def log_schedule(gap, diameter):
    """lambda = -ln(gap) / (6 d^2), the rate the logarithmic stability estimate allows."""
    return -math.log(gap) / (6.0 * diameter**2)


class DtnStability:
    name = "dtn-stability"

    def __init__(self, out_dir):
        self.out_dir = out_dir

    def setup(self, cg, seed):
        grid = cg.FourierGrid(*STAB_GRID)
        mesh = cg.BoundaryMesh(radius=STAB_RADIUS, n_nodes=STAB_MESH_NODES)
        pots = {d: cg.potential_from_description(lens_description(d, **LENS))
                for d in (0.0,) + LENS_DELTAS}
        fields = {d: cg.rasterize(pots[d], grid) for d in LENS_DELTAS}
        probes = _annulus(np.random.default_rng(seed), *STAB_PROBES)
        _unmasked_weight_map(cg, probes, [p.pieces[0][1].boundary for p in pots.values()],
                             grid)
        return {"mesh": mesh, "pots": pots, "fields": fields, "probes": probes}

    def run_round(self, cg, st, clock):
        mesh = st["mesh"]
        cache_dir = os.path.join(self.out_dir, f"dtn_cache_{os.getpid()}")
        with clock.outside():
            shutil.rmtree(cache_dir, ignore_errors=True)
        try:
            return self._round(cg, st, clock, mesh, cache_dir)
        finally:
            with clock.outside():
                shutil.rmtree(cache_dir, ignore_errors=True)

    def _round(self, cg, st, clock, mesh, cache_dir):
        tags = {key: ZERO_TAG if key == ZERO_TAG else st["pots"][key].content_hash()
                for key in (ZERO_TAG, 0.0) + LENS_DELTAS}

        def fetch(key):
            pot = None if key == ZERO_TAG else st["pots"][key]
            return [cg.dtn_matrix_cached(cache_dir, tags[key], pot, mesh, n_r=STAB_NR,
                                         potential_tag=tags[key]) for _ in range(2)]

        symmetry = []

        def check_fetch(got):
            symmetry.append(checks.complex_symmetric(got[0].entries))
            checks.bit_identical(got[1].entries, got[0].entries)

        with clock.op("reference"):
            ref = {key: fetch(key) for key in (ZERO_TAG, 0.0)}
        with clock.outside():
            for got in ref.values():
                check_fetch(got)
            spectrum = checks.disk_spectrum(ref[ZERO_TAG][0].entries, mesh.theta,
                                            STAB_RADIUS)
        zero, base = ref[ZERO_TAG][0], ref[0.0][0]

        gaps, lams, agreement = [], [], []
        for delta in LENS_DELTAS:
            V = st["fields"][delta]
            with clock.op("delta"):
                got = fetch(delta)
                gap = cg.dtn_opnorm_diff(base, got[0])
                lam = log_schedule(gap, 2 * STAB_RADIUS)
                routes = [self._sample(cg, V, got[0], zero, mesh, lam, x)
                          for x in st["probes"]]
            with clock.outside():
                check_fetch(got)
                agreement.extend(checks.routes_agree(*r) for r in routes)
            gaps.append(gap)
            lams.append(lam)
        with clock.outside():
            checks.strictly_decreasing(gaps)
        return {"worst_symmetry_defect": max(symmetry), "disk_spectrum_deviation": spectrum,
                "gaps": gaps, "lambdas": lams, "worst_route_disagreement": max(agreement)}

    @staticmethod
    def _sample(cg, V, dtn, zero, mesh, lam, x):
        """Both routes at one probe: (boundary value or None if refused, interior value)."""
        p = cg.PhaseParams(lam, (x[0], x[1]))
        w = cg.solve_w(V, p, tol=SOLVE_TOL)
        trace = cg.bukhgeim_trace(V, p, mesh, w=w)
        try:
            boundary = cg.reconstruct_boundary(dtn, zero, V, p, w=w, trace=trace)
        except cg.AmplificationExceeded:
            boundary = None
        return boundary, cg.reconstruct_interior(V, p, w=w)


# -- far-field -----------------------------------------------------------------
# Fixed-energy scattering at the scatter runner's defaults: a Gaussian cut to
# the unit disk, its centre drawn from the seed within 0.05 of the origin so
# the cut stays below 1e-3 of the peak.

FF_K = 4.0
FF_GRID = (64, 2.2)
FF_SIGMA = 0.25
FF_EPSILONS = (0.2, 0.1)
FF_ANGLES = 128
FF_CENTER_RADIUS = 0.05


class FarField:
    name = "far-field"

    def setup(self, cg, seed):
        grid = cg.FourierGrid(*FF_GRID)
        rng = np.random.default_rng(seed)
        r = FF_CENTER_RADIUS * math.sqrt(rng.uniform())
        t = rng.uniform(0.0, 2 * np.pi)
        center = (r * math.cos(t), r * math.sin(t))

        def bump(eps):
            return lambda Z1, Z2: eps * np.exp(
                -((Z1 - center[0])**2 + (Z2 - center[1])**2) / (2 * FF_SIGMA**2)
            ) * ((Z1**2 + Z2**2) <= 1.0)

        fields = {eps: cg.ComplexField.from_function(grid, bump(eps)) for eps in FF_EPSILONS}
        return {"fields": fields, "center": center}

    def run_round(self, cg, st, clock):
        mismatch, reciprocity, norms = [], [], []
        for eps in FF_EPSILONS:
            with clock.op("dataset"):
                data = cg.compute_far_field_data(st["fields"][eps], FF_K,
                                                 n_eta=FF_ANGLES, n_theta=FF_ANGLES)
                norms.append(float(cg.k_norm(data).value))
            with clock.outside():
                reciprocity.append(checks.reciprocity(data.samples))
                born = checks.born_amplitude(eps, FF_K, FF_SIGMA, st["center"], FF_ANGLES)
                mismatch.append(checks.born_mismatch(data.samples, born))
        with clock.outside():
            ratio = checks.born_halving(*mismatch)
            checks.k_norm_single_coefficients(cg.k_norm, cg.FarFieldData.from_samples)
        return {"worst_reciprocity_defect": max(reciprocity), "born_mismatch": mismatch,
                "born_ratio": ratio, "k_norm": norms}


def make(name, out_dir):
    if name == InteriorJump.name:
        return InteriorJump()
    if name == DtnStability.name:
        return DtnStability(out_dir)
    if name == FarField.name:
        return FarField()
    raise ValueError(f"unknown workload {name!r}")

