import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgoplane.errors import PerturbationTooLarge, ResolutionExceeded
from cgoplane.geometry import GraphSegment, make_disk, make_rhombus
from cgoplane.stationary import (FunctionBundle, degenerate_locus, find_stationary,
                                 osc_integral_1d, phase_on_curve,
                                 stationarity_residuals, tangent_set_area,
                                 track_roots)
from cgoplane.utils import fit_loglog_slope


def parabola(a=0.5, interval=(-2.0, 2.0)):
    return GraphSegment.from_polynomial("z1", interval, [0.0, 0.0, a])


class TestPhaseOnCurve:
    def test_rhombus_diagonal_is_flat(self):
        l1 = make_rhombus().boundary.segments[0]
        for t in (0.3, 1.0, 1.7):
            b = phase_on_curve((-t, -t), l1)
            s = np.linspace(0, 1, 64)
            assert np.max(np.abs(b.f(s))) == 0.0

    def test_rhombus_second_side_linear(self):
        l2 = make_rhombus().boundary.segments[1]
        t = 0.8
        b = phase_on_curve((-t, -t), l2)
        z1 = np.linspace(1, 2, 64)  # z1 = 1 + s
        s = z1 - 1
        assert np.allclose(b.f(z1), 4 * s * (t + 1), atol=1e-12)
        assert np.allclose(b.df(z1), 4 * (t + 1), atol=1e-12)

    def test_horizontal_line(self):
        line = GraphSegment.from_polynomial("z1", (-2.0, 2.0), [0.0])
        b = phase_on_curve((0.0, 1.0), line)
        z = np.linspace(-2, 2, 33)
        assert np.allclose(b.f(z), z**2 - 1)
        res = find_stationary((0.0, 1.0), line)
        assert len(res.points) == 1
        pt = res.points[0]
        assert abs(pt.param) < 1e-10
        assert abs(pt.g2 - 2.0) < 1e-12
        assert pt.order == 1

    def test_z2_oriented_graph(self):
        seg = GraphSegment.from_polynomial("z2", (-1.0, 1.0), [0.5, 0.0, 0.2])
        x = (1.3, 0.4)
        b = phase_on_curve(x, seg)
        t = 0.3
        z1 = 0.5 + 0.2 * t**2
        assert np.isclose(b.f(t), (x[0] - z1) ** 2 - (x[1] - t) ** 2)
        # derivative consistency by finite differences
        d = 1e-6
        assert np.isclose(b.df(t), (b.f(t + d) - b.f(t - d)) / (2 * d), atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=4),
       a=st.floats(-1.0, 0.5), length=st.floats(0.2, 1.5),
       x=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
def test_z2_graph_is_the_mirrored_z1_graph(coeffs, a, length, x):
    """z1 = f(z2) seen from (x1, x2) is z2 = f(z1) seen from (x2, x1), with the phase negated."""
    interval = (a, a + length)
    seg2 = GraphSegment.from_polynomial("z2", interval, coeffs)
    seg1 = GraphSegment.from_polynomial("z1", interval, coeffs)
    res2 = find_stationary(x, seg2)
    res1 = find_stationary(x[::-1], seg1)
    assert res2.whole_segment_flat == res1.whole_segment_flat
    assert [p.order for p in res2.points] == [p.order for p in res1.points]
    np.testing.assert_allclose([p.param for p in res2.points],
                               [p.param for p in res1.points], rtol=0, atol=1e-12)
    np.testing.assert_allclose([p.g2 for p in res2.points],
                               [-p.g2 for p in res1.points], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose([p.location[::-1] for p in res2.points],
                               [p.location for p in res1.points], rtol=0, atol=1e-12)
    loc2, loc1 = degenerate_locus(seg2, 256), degenerate_locus(seg1, 256)
    np.testing.assert_array_equal(loc2.source_params, loc1.source_params)
    np.testing.assert_allclose(loc2.points[:, ::-1], loc1.points, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(loc2.tangent_slopes, loc1.tangent_slopes)


class TestFindStationary:
    def test_rhombus_flat_flag(self):
        l1 = make_rhombus().boundary.segments[0]
        res = find_stationary((-1.0, -1.0), l1)
        assert res.whole_segment_flat
        assert res.points == ()

    def test_rhombus_l2_has_no_critical_point(self):
        l2 = make_rhombus().boundary.segments[1]
        res = find_stationary((-1.0, -1.0), l2)
        assert not res.whole_segment_flat
        assert res.points == ()

    def test_parabola_vs_dense_scan(self):
        seg = parabola()
        x = (0.0, -1.0)
        res = find_stationary(x, seg)
        roots = _dense_scan_roots(x, seg)
        assert len(res.points) == len(roots)
        for pt, r in zip(sorted(p.param for p in res.points), roots):
            assert abs(pt - r) < 1e-6

    def test_random_configurations_against_dense_scan(self, rng):
        matched = 0
        for _ in range(25):
            a = rng.uniform(-1.2, 1.2)
            if abs(a) < 0.1:
                continue
            seg = parabola(a=a, interval=(-2.0, 2.0))
            x = tuple(rng.uniform(-1.5, 1.5, 2))
            res = find_stationary(x, seg)
            roots = _dense_scan_roots(x, seg)
            assert len(res.points) == len(roots)
            for pt, r in zip(sorted(p.param for p in res.points), roots):
                assert abs(pt - r) < 1e-6
            matched += 1
        assert matched >= 15


def _dense_scan_roots(x, seg, n=100_000):
    """Independent oracle: dense scan + bisection on the phase derivative."""
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


class TestDegenerateLocus:
    def test_straight_segment_goes_to_tangent_branch(self):
        seg = GraphSegment.from_polynomial("z1", (-1.0, 1.0), [0.3, 0.9])
        loc = degenerate_locus(seg, 256, delta=1e-6)
        assert len(loc.points) == 0
        assert len(loc.tangent_params) == 256
        assert np.allclose(loc.tangent_slopes, 1 / 0.9)

    def test_parabola_closed_form(self):
        seg = parabola(a=0.5)  # Gamma = t^2/2, Gamma' = t, Gamma'' = 1
        loc = degenerate_locus(seg, 512, delta=1e-8)
        t = loc.source_params
        expected = np.stack([t**3, (3 * t**2 - 2) / 2], axis=-1)
        assert np.max(np.abs(loc.points - expected)) < 1e-12

    def test_residuals_of_emitted_points(self):
        for coeffs in ([0.0, 0.0, 0.5], [0.1, -0.4, 0.8], [0.0, 1.0, -0.6]):
            seg = GraphSegment.from_polynomial("z1", (-1.5, 1.5), coeffs)
            loc = degenerate_locus(seg, 512, delta=1e-6)
            r1, r2 = stationarity_residuals(loc, seg)
            assert len(r1) > 0
            assert r1.max() <= 1e-6
            assert r2.max() <= 1e-6


class TestTangentSetArea:
    def test_saturation_with_huge_eps(self):
        seg = parabola(a=0.5, interval=(-3.0, 3.0))
        omega = make_disk(radius=0.8)
        area = tangent_set_area(seg, slope=1.0, eps=10.0, omega=omega,
                                n_mc=200_000, band=2.0, seed=3)
        exact = np.pi * 0.8**2
        assert abs(area - exact) / exact < 0.02

    def test_monotone_and_shrinking(self):
        seg = parabola(a=0.5, interval=(-3.0, 3.0))
        omega = make_disk(radius=0.8)
        areas = [tangent_set_area(seg, 1.0, eps, omega, n_mc=400_000, band=0.005, seed=5)
                 for eps in (0.1, 0.01, 0.001)]
        assert areas[0] > areas[1] > areas[2]

    def test_straight_line_single_strip(self):
        seg = GraphSegment.from_polynomial("z1", (-3.0, 3.0), [0.0, 1.0])
        omega = make_disk(radius=0.8)
        band = 0.01
        a_small = tangent_set_area(seg, 1.0, 0.001, omega, n_mc=400_000, band=band, seed=7)
        a_big = tangent_set_area(seg, 1.0, 0.5, omega, n_mc=400_000, band=band, seed=7)
        assert a_small == a_big  # degenerate family: one strip regardless of eps
        strip = 2 * band * 2 * 0.8  # width x diameter, ignoring circular ends
        assert 0.3 * strip < a_small < 3 * strip


class TestOscIntegral:
    def test_zero_amplitude(self):
        gb = FunctionBundle(lambda t: t**2, lambda t: 2 * t, lambda t: 2 + 0 * t, (-1, 1))
        assert osc_integral_1d(gb, lambda t: 0.0 * t, 50.0) == 0.0

    def test_fresnel_like_decay(self):
        gb = FunctionBundle(lambda t: t**2, lambda t: 2 * t, lambda t: 2 + 0 * t, (-1, 1))
        h = lambda t: np.ones_like(t)  # noqa: E731
        lams = [100.0, 1000.0, 10000.0]
        vals = [abs(osc_integral_1d(gb, h, lam)) for lam in lams]
        slope = fit_loglog_slope(lams, vals)
        assert -0.6 <= slope <= -0.4

    def test_nonstationary_decay(self):
        gb = FunctionBundle(lambda t: t, lambda t: 1 + 0 * t, lambda t: 0 * t, (0.0, 3.0))
        h = lambda t: np.exp(-t)  # noqa: E731
        lams = [100.0, 1000.0, 10000.0]
        vals = [abs(osc_integral_1d(gb, h, lam)) for lam in lams]
        slope = fit_loglog_slope(lams, vals)
        assert -1.1 <= slope <= -0.9

    def test_resolution_guard(self):
        gb = FunctionBundle(lambda t: t**2, lambda t: 2 * t, lambda t: 2 + 0 * t, (-1, 1))
        with pytest.raises(ResolutionExceeded):
            osc_integral_1d(gb, lambda t: np.ones_like(t), 1e9)


class TestTrackRoots:
    @staticmethod
    def _bundle(f, df, interval):
        return FunctionBundle(f, df, None, interval)

    def test_identical_functions(self):
        f = self_b = self._bundle(np.sin, np.cos, (0.5, 6.0))
        match = track_roots(f, self_b, eps=0.1)
        assert len(match.pairs) == 1  # sin has one root (pi) in (0.5, 6)
        rf, rg = match.pairs[0]
        assert rf == rg
        assert match.c1_distance == 0.0

    def test_linear_shift(self):
        f = self._bundle(lambda t: t, lambda t: np.ones_like(t), (-1.0, 1.0))
        c = 1e-3
        gb = self._bundle(lambda t: t + c, lambda t: np.ones_like(t), (-1.0, 1.0))
        match = track_roots(f, gb, eps=0.05)
        (rf, rg), = match.pairs
        assert abs((rf - rg) - c) < 1e-9

    def test_sin_with_wiggle(self):
        f = self._bundle(np.sin, np.cos, (0.5, 6.0))
        pert = 0.01
        gb = self._bundle(lambda t: np.sin(t) + pert * np.cos(3 * t),
                          lambda t: np.cos(t) - 3 * pert * np.sin(3 * t), (0.5, 6.0))
        eps = 0.2
        match = track_roots(f, gb, eps=eps)
        assert len(match.pairs) == 1
        for rf, rg in match.pairs:
            assert abs(rf - rg) < eps
        # reported delta follows min(a/2, eta/4, eps*eta/4)
        assert match.delta <= 0.25 * eps * 1.0 + 1e-9

    def test_perturbation_too_large(self):
        f = self._bundle(np.sin, np.cos, (0.5, 6.0))
        gb = self._bundle(lambda t: np.sin(t) + 0.9, lambda t: np.cos(t), (0.5, 6.0))
        with pytest.raises(PerturbationTooLarge):
            track_roots(f, gb, eps=0.1)
