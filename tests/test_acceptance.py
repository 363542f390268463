"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2 holds the boundary route to the lambda window that double-precision
DtN data can carry.  Boundary-data errors are amplified by
e^{lambda * osc(Im psi_x)}, and the route is admitted only while that exponent
stays within ``AMPLIFICATION_BUDGET`` = ln(0.02 / (eps_mach * 128)) ~ 27
(lambda <~ 16-24 on the unit disk).  Within the window the two routes must
agree and the boundary error must decay; above it, lambda in {64..512} must be
refused with ``AmplificationExceeded`` rather than reported, and the large-lambda
accuracy bound is checked on the interior route, which the boundary route
equals in exact arithmetic by the pairing identity.
"""

import time

import numpy as np
import pytest

from cgoplane import reference
from cgoplane.cgo import PhaseParams, lam_resolution_limit
from cgoplane.dtn import BoundaryMesh, assemble_polar_operator, dtn_matrix, solve_dirichlet
from cgoplane.experiments import (ExperimentConfig, run_convergence,
                                  run_counterexample, run_lemma_checks,
                                  run_scatter, run_stability, stability_defaults)
from cgoplane.geometry import GraphSegment, make_disk
from cgoplane.grid import FourierGrid
from cgoplane.stationary import (degenerate_locus, find_stationary, phase_on_curve,
                                 stationarity_residuals, tangent_set_area)


def _report(number, name, checks):
    """Print one acceptance line; checks is [(label, ok, detail), ...]."""
    ok = all(c[1] for c in checks)
    print(f"\nACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'}")
    for label, good, detail in checks:
        print(f"    {'ok  ' if good else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {number} ({name}) failed: " + "; ".join(
        f"{c[0]}: {c[2]}" for c in checks if not c[1])


def test_criterion_1_rhombus_counterexample(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(name="counterexample", out_dir=str(tmp_path), grid_n=512)
    summary = run_counterexample(cfg)
    elapsed = time.time() - t0

    checks = []
    for e in summary["per_t"]:
        t = e["t"]
        checks.append((f"side phases exact (t={t})", e["side_phase_max_error"] <= 1e-12,
                       f"max err {e['side_phase_max_error']:.2e}"))
        checks.append((f"line integral identity (t={t})",
                       e["line_integral_abs_error"] <= 1e-8,
                       f"err {e['line_integral_abs_error']:.2e}"))
        re_im = e["re_over_im"]
        checks.append((f"limit purely imaginary (t={t})", re_im < 0.05,
                       f"|Re|/|Im| = {re_im:.4f}"))
        checks.append((f"limit nonzero (t={t})", abs(e["sweep_limit"]) > 1e-3,
                       f"|limit| = {abs(e['sweep_limit']):.4f}"))
        checks.append((f"matches the exact-functional oracle within 10% (t={t})",
                       e["rel_error_vs_oracle"] <= 0.10,
                       f"rel {e['rel_error_vs_oracle']:.4f}"))
    for r in summary["ratio_test"]:
        checks.append((f"log(1+1/t) proportionality (t={r['t']})",
                       r["rel_dev"] <= 0.10, f"dev {r['rel_dev']:.4f}"))
    checks.append(("constant resolved and reported", True,
                   summary["constant_supported_by_data"]))
    checks.append(("runtime <= 10 min at 512^2", elapsed <= 600.0, f"{elapsed:.0f}s"))
    _report(1, "rhombus counterexample", checks)


CRITERION_2_LAMBDAS = [2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0, 128.0, 256.0, 512.0]


def test_criterion_2_boundary_route_positive_direction(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(name="convergence", out_dir=str(tmp_path), grid_n=512,
                           params={"variant": "smooth-bump",
                                   "lambdas": CRITERION_2_LAMBDAS})
    summary = run_convergence(cfg)
    elapsed = time.time() - t0

    max_v = summary["max_abs_potential"]
    budget = summary["amplification_budget"]
    assert summary["per_point"], "no unmasked probes"
    checks = []
    fewest, worst_slope, worst_agree, worst_final = np.inf, -np.inf, 0.0, 0.0
    unrefused = []
    for e in summary["per_point"]:
        window = e["boundary_lambdas"]
        fewest = min(fewest, len(window))
        if len(window) >= 2:
            worst_slope = max(worst_slope, e["boundary_slope"])
            worst_agree = max(worst_agree, max(e["route_agreement"]))
        # every ladder lambda must give an interior sample, the last at 512
        errs_i = e["interior_errors"]
        final = errs_i[-1] if len(errs_i) == len(CRITERION_2_LAMBDAS) else np.inf
        worst_final = max(worst_final, final / max_v)
        refused = {r["lambda"]: r["exponent"] for r in e["boundary_refused"]}
        unrefused += [(e["x"], lam) for lam in (64.0, 128.0, 256.0, 512.0)
                      if lam not in refused]
        if window:
            print(f"    x={e['x']}: window lambda <= {max(window):g} "
                  f"({len(window)} admitted), best boundary error "
                  f"{min(e['boundary_errors']) / max_v:.3e}; refused "
                  + ", ".join(f"{lam:g} (exponent {ex:.1f})" for lam, ex in refused.items()))
    checks.append(("at least three admitted lambdas per probe", fewest >= 3,
                   f"fewest {fewest}"))
    checks.append(("boundary and interior routes within 2% over the window",
                   worst_agree <= 0.02, f"worst {worst_agree:.3e}"))
    checks.append(("boundary-error log-log slope <= -0.3 over the window",
                   worst_slope <= -0.3, f"worst slope {worst_slope:.3f}"))
    checks.append(("interior-route error <= 10% of max|V| at lambda = 512",
                   worst_final <= 0.10, f"worst {worst_final:.3e}"))
    checks.append(("lambda in {64..512} refused with AmplificationExceeded",
                   not unrefused, f"not refused: {unrefused}" if unrefused
                   else f"budget {budget:.2f}"))
    checks.append(("runtime <= 15 min at 512^2 / 128 nodes", elapsed <= 900.0,
                   f"{elapsed:.0f}s"))
    _report(2, "boundary route in its double-precision window", checks)


def test_criterion_3_piecewise_constant_disk(tmp_path):
    cfg = ExperimentConfig(name="convergence", out_dir=str(tmp_path), grid_n=1024,
                           params={"variant": "pwc-disk"})
    summary = run_convergence(cfg)

    checks = []
    assert summary["per_point"], "no unmasked probes"
    worst = max(e["limit_rel_error_of_max"] for e in summary["per_point"])
    checks.append(("unmasked interior points converge: error <= 15% at lambda = 512",
                   worst <= 0.15, f"worst {worst:.4f} over "
                   f"{len(summary['per_point'])} probes"))
    frac = summary["mask"]["degenerate_fraction"]
    checks.append(("masked fraction of the probe grid <= 5%", frac <= 0.05,
                   f"{frac:.4f} of {summary['mask']['n_points']} points"))
    checks.append(("no probe excluded", summary["excluded_probe_fraction"] == 0.0,
                   f"{summary['excluded_probe_fraction']:.3f}"))
    _report(3, "piecewise-constant disk potential", checks)


def test_criterion_4_operator_decay_suite(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(name="lemmas", out_dir=str(tmp_path), grid_n=256)
    summary = run_lemma_checks(cfg)
    elapsed = time.time() - t0

    def detail(c):
        lo, hi = c["budget"]  # lo is None for a one-sided budget
        lo = "-inf" if lo is None else f"{lo:.3g}"
        return f"slope {c['slope']:+.3f} in [{lo}, {hi:.3g}]"

    checks = [(c["name"], c["passed"], detail(c)) for c in summary["checks"]]
    checks.append(("runtime <= 10 min at 256^2", elapsed <= 600.0, f"{elapsed:.0f}s"))
    _report(4, "operator decay suite", checks)


def test_criterion_5_dtn_fidelity():
    mesh = BoundaryMesh(radius=1.0, n_nodes=128)
    op0 = assemble_polar_operator(None, mesh, n_r=192)
    vfun = lambda Z1, Z2: np.exp(-(Z1**2 + Z2**2) / (2 * 0.25**2))  # noqa: E731
    opV = assemble_polar_operator(vfun, mesh, n_r=192)
    A0 = dtn_matrix(None, mesh, n_r=192, potential_tag="zero")
    AV = dtn_matrix(vfun, mesh, n_r=192, potential_tag="bump")

    checks = []
    eigs = np.fft.fft(A0.entries[:, 0]).real
    freqs = np.fft.fftfreq(128, d=1.0 / 128).astype(int)
    worst = max(abs(eigs[freqs == n][0] - n) / n for n in range(1, 9))
    checks.append(("disk eigenvalues within 5% of |n| for |n| <= 8", worst <= 0.05,
                   f"worst rel dev {worst:.4f}"))
    sym = max(A0.symmetry_defect(), AV.symmetry_defect())
    checks.append(("complex symmetry <= 1e-6", sym <= 1e-6, f"defect {sym:.2e}"))

    f1 = np.exp(1j * 2 * mesh.theta)
    f2 = np.exp(-1j * 2 * mesh.theta)
    lhs = complex(np.sum(mesh.arc_weights * ((AV.entries - A0.entries) @ f1) * f2))
    u1 = solve_dirichlet(opV, f1)
    u2 = solve_dirichlet(op0, f2)
    rhs = complex(np.sum(u1 * u2 * opV.potential * opV.node_weight))
    rel = abs(lhs - rhs) / abs(rhs)
    checks.append(("boundary/interior pairing identity <= 1%", rel <= 0.01,
                   f"rel {rel:.2e}"))
    _report(5, "DtN fidelity", checks)


def test_criterion_6_stationary_analyzer():
    rng = np.random.default_rng(1234)
    checks = []

    # 100 random parabola/point configurations against a dense-scan oracle
    mismatches = 0
    loc_err = 0.0
    tried = 0
    while tried < 100:
        a = rng.uniform(-1.2, 1.2)
        if abs(a) < 0.05:
            continue
        tried += 1
        seg = GraphSegment.from_polynomial("z1", (-2.0, 2.0), [rng.uniform(-0.5, 0.5),
                                                               rng.uniform(-0.8, 0.8), a])
        x = tuple(rng.uniform(-1.5, 1.5, 2))
        res = find_stationary(x, seg)
        oracle = _dense_scan(x, seg)
        if len(res.points) != len(oracle):
            mismatches += 1
            continue
        for pt, r in zip(sorted(p.param for p in res.points), oracle):
            loc_err = max(loc_err, abs(pt - r))
    checks.append(("root counts match dense-scan oracle on 100 configs",
                   mismatches == 0, f"{mismatches} mismatches"))
    checks.append(("root locations within 1e-6", loc_err <= 1e-6,
                   f"worst {loc_err:.2e}"))

    # stationarity-system residuals on every emitted locus point
    worst_r = 0.0
    for coeffs in ([0.0, 0.0, 0.5], [0.1, -0.4, 0.8], [0.0, 1.0, -0.6],
                   [0.2, 0.3, 0.4, -0.2]):
        seg = GraphSegment.from_polynomial("z1", (-1.5, 1.5), coeffs)
        loc = degenerate_locus(seg, 1024, delta=1e-6)
        r1, r2 = stationarity_residuals(loc, seg)
        if len(r1):
            worst_r = max(worst_r, r1.max(), r2.max())
    checks.append(("degenerate-locus residuals <= 1e-6", worst_r <= 1e-6,
                   f"worst {worst_r:.2e}"))

    seg = GraphSegment.from_polynomial("z1", (-3.0, 3.0), [0.0, 0.0, 0.5])
    omega = make_disk(radius=0.8)
    areas = [tangent_set_area(seg, 1.0, eps, omega, n_mc=10**6, band=0.001, seed=11)
             for eps in (0.1, 0.01, 0.001)]
    checks.append(("tangent-family area decreasing over eps {0.1, 0.01, 0.001}",
                   areas[0] > areas[1] > areas[2],
                   f"areas {[round(a, 5) for a in areas]}"))
    _report(6, "stationary analyzer", checks)


def _dense_scan(x, seg, n=100_000):
    b = phase_on_curve(x, seg)
    t = np.linspace(seg.interval[0], seg.interval[1], n)
    d = np.asarray(b.df(t))
    roots = []
    for k in np.flatnonzero(d[:-1] * d[1:] < 0):
        lo, hi = t[k], t[k + 1]
        flo = b.df(lo)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = b.df(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        roots.append(0.5 * (lo + hi))
    for k in np.flatnonzero(d == 0.0):
        roots.append(float(t[k]))
    return sorted(roots)


def test_criterion_7_scattering(tmp_path):
    cfg = ExperimentConfig(name="scatter", out_dir=str(tmp_path), grid_n=256,
                           params={"nystrom_n": 64})
    summary = run_scatter(cfg)

    checks = []
    ratio = summary["halving_ratio"]
    checks.append(("Born mismatch halving ratio in [1.5, 2.5]",
                   1.5 <= ratio <= 2.5, f"ratio {ratio:.3f}"))
    checks.append(("integral-equation residual <= 1e-6",
                   summary["max_residual"] <= 1e-6,
                   f"max residual {summary['max_residual']:.2e}"))

    # weighted-norm arithmetic on single-coefficient inputs
    from cgoplane.scattering import FarFieldData, k_norm
    size = 64
    etas = 2 * np.pi * np.arange(size) / size
    c = 0.4 - 0.3j
    single_00 = FarFieldData.from_samples(7.0, np.full((size, size), c))
    r00 = k_norm(single_00, cutoff=8)
    samples_10 = c * np.exp(1j * etas)[:, None] * np.ones((1, size))
    r10 = k_norm(FarFieldData.from_samples(3.0, samples_10), cutoff=8)
    exact = (abs(complex(r00.value) - abs(c)) < 1e-12
             and abs(complex(r10.value) - 2 * abs(c)) < 1e-12)
    checks.append(("weight arithmetic exact on single coefficients", exact,
                   f"|a00| -> {r00.value:.6f} (want {abs(c):.6f}), "
                   f"|a10|,k=3 -> {r10.value:.6f} (want {2*abs(c):.6f})"))
    _report(7, "fixed-energy scattering", checks)


def test_criterion_8_stability_experiment(tmp_path):
    cfg = ExperimentConfig(name="stability", out_dir=str(tmp_path), grid_n=256)
    summary = run_stability(cfg)
    run = summary["run"]

    checks = []
    gaps = run["dtn_gaps"]
    checks.append(("DtN gap monotone in the perturbation size",
                   all(a > b for a, b in zip(gaps, gaps[1:])),
                   f"gaps {['%.3e' % g for g in gaps]}"))
    # the rule recomputed from the reported gaps, independently of the runner
    lam_max = lam_resolution_limit(FourierGrid(cfg.grid_n, stability_defaults()["side"]))
    rule = [-np.log(g) / (6 * summary["diameter"] ** 2) if g > 0 else np.inf for g in gaps]
    rule_ok = all(lam == lam_max < want if clamped
                  else want <= lam_max and abs(lam - want) <= 1e-12 * want
                  for lam, want, clamped in zip(run["lambdas"], rule, run["lambda_clamped"]))
    checks.append(("lambda recomputed from gap and diameter (or the resolution limit)",
                   rule_ok, f"rule {['%.6g' % r for r in rule]}, lambdas "
                   f"{['%.6g' % v for v in run['lambdas']]}, limit {lam_max:.6g}"))
    # moduli |ln gap|^{1-s/2} decrease along the deltas; errors must not grow
    mods = run["moduli"]
    errs = run["sup_errors"]
    order = np.argsort(mods)  # increasing modulus
    errs_sorted = [errs[i] for i in order]
    trend_ok = all(a <= b * (1 + 1e-9) for a, b in zip(errs_sorted, errs_sorted[1:]))
    checks.append(("sup reconstruction error nonincreasing as the modulus decreases",
                   trend_ok, f"moduli {['%.4f' % m for m in mods]}, "
                   f"errors {['%.2e' % e for e in errs]}"))
    _report(8, "stability experiment", checks)
