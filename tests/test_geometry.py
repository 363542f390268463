import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgoplane import geometry
from cgoplane.geometry import (GraphSegment, PiecewiseBoundary, SubDomain, _even_odd_inside,
                               curve_distance_c2, make_disk, make_rhombus)


class TestGraphSegment:
    def test_polynomial_derivatives(self):
        seg = GraphSegment.from_polynomial("z1", (-1.0, 2.0), [1.0, -2.0, 0.5])
        tau = np.linspace(-1, 2, 7)
        assert np.allclose(seg.f(tau), 1 - 2 * tau + 0.5 * tau**2)
        assert np.allclose(seg.df(tau), -2 + tau)
        assert np.allclose(seg.d2f(tau), 1.0)

    def test_inconsistent_derivatives_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            GraphSegment(
                "z1", (0.0, 1.0),
                f=lambda t: np.sin(t), df=lambda t: np.cos(t),
                d2f=lambda t: np.cos(t))  # wrong second derivative

    def test_spline_is_c2_consistent(self):
        knots = np.linspace(0, 1, 9)
        vals = np.sin(2 * knots)
        seg = GraphSegment.from_spline("z1", knots, vals,
                                       end_derivs=(2 * np.cos(0), 2 * np.cos(2)))
        # construction runs the internal consistency check; also probe values
        assert abs(float(seg.f(0.5)) - np.sin(1.0)) < 1e-3

    def test_orientation_point_mapping(self):
        seg = GraphSegment.from_polynomial("z2", (0.0, 1.0), [2.0])
        p = seg.point(0.5)
        assert np.allclose(p, [2.0, 0.5])
        assert seg.frame(*p) == (0.5, 2.0)
        assert seg.frame(*seg.frame(1.0, 3.0)) == (1.0, 3.0)
        z1_seg = GraphSegment.from_polynomial("z1", (0.0, 1.0), [2.0])
        assert z1_seg.frame(1.0, 3.0) == (1.0, 3.0)


class TestBoundary:
    def test_chain_gap_detected(self):
        a = GraphSegment.from_polynomial("z1", (0.0, 1.0), [0.0, 1.0])
        b = GraphSegment.from_polynomial("z1", (0.0, 1.0), [5.0])  # nowhere near
        with pytest.raises(ValueError, match="chain"):
            PiecewiseBoundary([a, b])

    def test_self_intersection_detected(self):
        # bowtie: two crossing segments chained into a "closed" curve
        up = GraphSegment.from_polynomial("z1", (0.0, 1.0), [0.0, 1.0])
        down = GraphSegment.from_polynomial("z1", (0.0, 1.0), [1.0, -1.0], reverse=False)
        with pytest.raises(ValueError):
            PiecewiseBoundary([up, down])

    def test_rhombus_polyline_length(self):
        rh = make_rhombus()
        pts = rh.boundary.polyline(512)
        d = np.diff(np.vstack([pts, pts[:1]]), axis=0)
        assert abs(np.sum(np.hypot(d[:, 0], d[:, 1])) - 4 * math.sqrt(2)) < 1e-6


class TestRhombus:
    def test_vertices(self):
        rh = make_rhombus()
        corners = {tuple(np.round(seg.start_end()[0], 12)) for seg in rh.boundary.segments}
        assert corners == {(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (1.0, -1.0)}

    def test_membership(self):
        rh = make_rhombus()
        assert bool(rh.inside(1.0, 0.0))
        assert not bool(rh.inside(-1.0, -1.0))


class TestDisk:
    def test_area_and_membership(self):
        dk = make_disk(center=(0.2, -0.1), radius=0.6)
        assert bool(dk.inside(0.2, -0.1))
        assert not bool(dk.inside(0.9, 0.6))

    def test_distance_to_boundary(self):
        dk = make_disk(radius=0.5)
        d = dk.boundary.distance_to(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert abs(d[0] - 0.5) < 1e-3
        assert abs(d[1] - 0.5) < 1e-3


class TestCurveDistance:
    def test_identity_is_zero(self):
        segs = make_rhombus().boundary.segments
        assert curve_distance_c2(segs, segs) == 0.0

    def test_constant_shift(self):
        segs = make_rhombus().boundary.segments
        shifted = GraphSegment.from_polynomial("z1", (0.0, 1.0), [1e-3, 1.0])
        # replace l1 by a shifted copy; the open chain is compared segment by segment
        assert abs(curve_distance_c2(segs, [shifted] + segs[1:]) - 1e-3) < 1e-12

    def test_mismatched_covers_are_infinite(self):
        segs = make_rhombus().boundary.segments
        one = [segs[0]]
        assert curve_distance_c2(segs, one) == math.inf
        # same count, different interval
        other = [GraphSegment.from_polynomial("z1", (0.0, 2.0), [0.0, 1.0])]
        assert curve_distance_c2(one, other) == math.inf

    def test_symmetry_and_triangle(self):
        base = [0.0, 1.0, -0.3]
        mk = lambda c: [GraphSegment.from_polynomial("z1", (0.0, 1.0), c)]  # noqa: E731
        A, B, C = mk(base), mk([0.05, 1.0, -0.3]), mk([0.02, 0.9, -0.3])
        dab = curve_distance_c2(A, B)
        dba = curve_distance_c2(B, A)
        assert dab == dba
        assert curve_distance_c2(A, C) <= dab + curve_distance_c2(B, C) + 1e-12


def test_subdomain_predicate_vs_winding():
    # deliberately wrong predicate must be caught
    rh = make_rhombus()
    with pytest.raises(ValueError, match="disagrees"):
        SubDomain(rh.boundary, inside=lambda q1, q2: np.asarray(q1) > 10.0)


def _even_odd_every_point(poly, q1, q2):
    """The crossing loop run over every query point, with no bounding-box filter."""
    x, y = np.broadcast_arrays(np.asarray(q1, float), np.asarray(q2, float))
    inside = np.zeros(x.shape, dtype=bool)
    px, py = poly[:, 0], poly[:, 1]
    nx, ny = np.roll(px, -1), np.roll(py, -1)
    for k in range(len(px)):
        x0, y0, x1, y1 = px[k], py[k], nx[k], ny[k]
        if y0 == y1:
            continue
        inside ^= ((y0 > y) != (y1 > y)) & (x < (x1 - x0) * (y - y0) / (y1 - y0) + x0)
    return inside


def _lens_boundary():
    w, h = 0.08, 0.04
    top = GraphSegment.from_polynomial("z1", (-w, w), [h, 0.0, -h / w**2])
    bottom = GraphSegment.from_polynomial("z1", (-w, w), [-h, 0.0, h / w**2], reverse=True)
    return PiecewiseBoundary([top, bottom])


_POLYLINES = {
    "rhombus": make_rhombus().boundary.polyline(256),
    "disk": make_disk(center=(0.2, -0.1), radius=0.6).boundary.polyline(256),
    "lens": _lens_boundary().polyline(256),
    # horizontal edges at y = 0, 0.5 and 1, and vertices sharing a y-level
    "steps": np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.5, 0.5], [0.5, 1.0],
                       [0.0, 1.0], [-0.5, 0.5], [-0.25, 0.5]]),
}


def _coordinate(lo, hi, levels):
    """Floats inside, outside and exactly on [lo, hi], a few ulps beyond its ends,
    exactly on the given vertex levels, and NaN."""
    span = hi - lo
    near = [np.nextafter(v, d) for v in (lo, hi) for d in (-np.inf, np.inf)]
    beyond = [lo - j * np.spacing(lo) for j in range(1, 17)] + \
        [hi + j * np.spacing(hi) for j in range(1, 17)]
    return st.one_of(st.floats(lo - span, hi + span),
                     st.sampled_from([lo, hi] + near + beyond),
                     st.sampled_from(sorted(set(levels.tolist()))),
                     st.just(np.nan))


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_POLYLINES)), data=st.data())
def test_even_odd_box_filter_is_bit_identical(name, data):
    poly = _POLYLINES[name]
    x = _coordinate(poly[:, 0].min(), poly[:, 0].max(), poly[:, 0])
    y = _coordinate(poly[:, 1].min(), poly[:, 1].max(), poly[:, 1])
    pts = data.draw(st.lists(st.tuples(x, y), min_size=1, max_size=64))
    q1, q2 = np.array(pts).T
    assert np.array_equal(_even_odd_inside(poly, q1, q2), _even_odd_every_point(poly, q1, q2))
    # also on a mesh, the shape rasterization passes
    m1, m2 = np.meshgrid(q1, q2)
    assert np.array_equal(_even_odd_inside(poly, m1, m2), _even_odd_every_point(poly, m1, m2))


def test_even_odd_on_edges_and_vertex_levels_is_bit_identical():
    # points on every vertex, on the horizontal edges, and on every vertex's
    # y-level across the polyline: the ends of the half-open edge intervals
    poly = _POLYLINES["steps"]
    xs = np.linspace(-0.75, 1.25, 41)
    q1 = np.concatenate([poly[:, 0], np.tile(xs, len(poly))])
    q2 = np.concatenate([poly[:, 1], np.repeat(poly[:, 1], len(xs))])
    got = _even_odd_inside(poly, q1, q2)
    assert np.array_equal(got, _even_odd_every_point(poly, q1, q2))
    assert got.any() and not got.all()


def test_even_odd_over_several_chunks_is_bit_identical():
    # more points than one sorted chunk holds, with vertex y-levels and NaNs among them
    poly = _POLYLINES["lens"]
    rng = np.random.default_rng(7)
    m = geometry._EVEN_ODD_CHUNK + 3001
    q1 = rng.uniform(-0.1, 0.1, m)
    q2 = rng.uniform(-0.05, 0.05, m)
    levels = rng.random(m) < 0.25
    q2[levels] = rng.choice(poly[:, 1], levels.sum())
    q1[rng.random(m) < 0.01] = np.nan
    q2[rng.random(m) < 0.01] = np.nan
    got = _even_odd_inside(poly, q1, q2)
    assert np.array_equal(got, _even_odd_every_point(poly, q1, q2))
    assert got.any() and not got.all()
