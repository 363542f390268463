"""Tests of the benchmark's own machinery and of its correctness checks.

    python3 -m pytest perfbench -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cgoplane as cg  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# -- statistics and readings ---------------------------------------------------

def test_median_odd_even_and_empty():
    assert run.median([3.0, 1.0, 2.0]) == 2.0
    assert run.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert run.median([7.5]) == 7.5
    with pytest.raises(ValueError):
        run.median([])


def _status_mb(field):
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(field)


def test_peak_rss_reads_the_high_water_mark():
    assert abs(run.peak_rss_mb() - _status_mb("VmHWM")) < 2.0
    rss, peak = _status_mb("VmRSS"), run.peak_rss_mb()
    extra = max(peak - rss, 0.0) + 64.0
    block = np.ones(int(extra * 2**20) // 8)      # touched, so resident
    assert run.peak_rss_mb() >= rss + 0.9 * extra
    del block


class _CountedRounds:
    """A workload whose rounds are one empty operation each."""

    def __init__(self):
        self.rounds = 0

    def run_round(self, cg, state, clock):
        self.rounds += 1
        with clock.op("op"):
            pass
        return {"round": self.rounds}


def test_traced_run_does_one_round_and_untraced_run_whole_rounds_until_seconds():
    wl = _CountedRounds()
    _, figures = run.measure(cg, wl, None, None, run.Clock())
    assert wl.rounds == 1 and figures == {"round": 1}
    wl, clock = _CountedRounds(), run.Clock()
    phase_s, figures = run.measure(cg, wl, None, 0.01, clock)
    assert phase_s >= 0.01 and wl.rounds > 1
    assert len(clock.durations) == wl.rounds and figures == {"round": wl.rounds}


# -- spans and self time -----------------------------------------------------------

def _span(sid, name, start, end, parent=None):
    s = tracer.Span(sid, name, start, parent, "op")
    s.end = end
    return s


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        _span(0, "a", 0.0, 10.0),
        _span(1, "b", 2.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0),      # overlaps its sibling
        _span(3, "c", 8.0, 9.0, parent=0),
        _span(4, "d", 3.5, 3.75, parent=2),     # grandchild: not subtracted from a
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 0.25)
    assert selfs[4] == pytest.approx(0.25)


def test_layer_metrics_report_every_name_and_count_nested_calls():
    spans = [
        _span(0, "cgo.solve_w", 0.0, 1.0),
        _span(1, "cgo.s1_apply", 0.1, 0.4, parent=0),
        _span(2, "cgo.s1_apply", 0.5, 0.9, parent=0),
        _span(3, "cgo.s1_apply", 2.0, 2.1),     # outside solve_w: not a Picard step
        _span(4, "dtn.dtn_matrix_cached", 3.0, 4.0),
        _span(5, "dtn.dtn_matrix", 3.1, 3.9, parent=4),
        _span(6, "dtn.dtn_matrix_cached", 5.0, 5.1),
        _span(7, "dtn.load_dtn", 5.01, 5.09, parent=6),
    ]
    got = tracer.layer_metrics(spans)
    assert list(got) == [name for name, _ in tracer.LAYER_METRICS]
    assert got["cgo.picard_iters"]["value"] == 2
    assert got["cgo.solve_w.self_ms"]["value"] == pytest.approx(300.0)
    assert got["dtn.cache_misses"]["value"] == 1
    assert got["dtn.cache_hits"]["value"] == 1


def test_tracer_wraps_names_imported_into_other_modules():
    t = tracer.Tracer()
    original = cg.cgo.fft2
    t.install(cg)
    try:
        assert cg.cgo.fft2 is not original and cg.grid.fft2 is cg.cgo.fft2
        g = cg.FourierGrid(64, 4.0)
        V = cg.ComplexField.from_function(
            g, lambda z1, z2: 0.5 * np.exp(-(z1**2 + z2**2) / 0.02))
        t.op = "0:sample"
        cg.solve_w(V, cg.PhaseParams(64.0, (0.0, 0.0)))
        t.paused = True
        cg.s1_apply(V, cg.PhaseParams(64.0, (0.0, 0.0)))    # not recorded
        t.paused = False
    finally:
        t.uninstall()
    assert cg.cgo.fft2 is original
    m = tracer.layer_metrics(t.spans)
    iters = m["cgo.picard_iters"]["value"]
    assert iters >= 1 and m["cgo.solve_w.calls"]["value"] == 1
    assert m["grid.fft.calls"]["value"] == 4 * iters
    assert m["cgo.phase_mul.calls"]["value"] == 2 * iters
    assert m["grid.fft.bytes"]["value"] == 4 * iters * 64 * 64 * 16 * 2
    assert {s.op for s in t.spans} == {"0:sample"}


# -- each check passes on real output and fails on one perturbed entry -------------

def test_dtn_checks_catch_one_perturbed_entry():
    mesh = cg.BoundaryMesh(radius=0.15, n_nodes=64)
    a = cg.dtn_matrix(None, mesh, n_r=48).entries
    checks.complex_symmetric(a)
    checks.disk_spectrum(a, mesh.theta, 0.15)
    checks.bit_identical(a.copy(), a)
    bad = a.copy()
    bad[3, 17] += 1e-4 * np.abs(a).max()
    with pytest.raises(checks.CheckFailed):
        checks.complex_symmetric(bad)
    with pytest.raises(checks.CheckFailed):
        checks.bit_identical(bad, a)


def test_far_field_check_catches_one_perturbed_sample():
    g = cg.FourierGrid(16, 2.2)
    V = cg.ComplexField.from_function(
        g, lambda z1, z2: 0.2 * np.exp(-(z1**2 + z2**2) / (2 * 0.25**2)))
    data = cg.compute_far_field_data(V, 4.0, n_eta=64, n_theta=64)
    checks.reciprocity(data.samples)
    bad = data.samples.copy()
    bad[5, 40] *= 1 + 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.reciprocity(bad)


def test_interior_checks_catch_one_perturbed_value():
    g = cg.FourierGrid(*workloads.JUMP_GRID)
    V = cg.rasterize(cg.potential_from_description(workloads.DISK), g)
    probes = [(0.05, 0.02), (0.33, 0.40)]
    values, truths = [], []
    for x in probes:
        vals = []
        for lam in workloads.JUMP_LAMBDAS[1:]:
            p = cg.PhaseParams(lam, x)
            w = cg.solve_w(V, p, tol=workloads.SOLVE_TOL)
            checks.fixed_point_residual(cg.s1_apply, V, p, w, workloads.SOLVE_TOL)
            vals.append(cg.reconstruct_interior(V, p, w=w))
        values.append(vals)
        truths.append(checks.disk_truth(x, workloads.DISK_RADIUS, workloads.DISK_VALUE))
    checks.sweep_limits_within(values, truths, abs(workloads.DISK_VALUE))
    values[1][2] += 1.0
    with pytest.raises(checks.CheckFailed):
        checks.sweep_limits_within(values, truths, abs(workloads.DISK_VALUE))
    w.values[256, 256] += 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.fixed_point_residual(cg.s1_apply, V, p, w, workloads.SOLVE_TOL)


def test_round_level_checks_reject_bad_figures():
    with pytest.raises(checks.CheckFailed):
        checks.strictly_decreasing([2e-4, 1e-4, 1e-4, 2e-5])
    with pytest.raises(checks.CheckFailed):
        checks.routes_agree(None, 1.0 + 0j)
    with pytest.raises(checks.CheckFailed):
        checks.routes_agree(1.03 + 0j, 1.0 + 0j)
    with pytest.raises(checks.CheckFailed):
        checks.born_halving(0.03, 0.01)
    checks.k_norm_single_coefficients(cg.k_norm, cg.FarFieldData.from_samples)
