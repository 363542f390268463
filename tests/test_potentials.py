import json

import numpy as np
import pytest

from cgoplane.errors import ConfigError, SupportViolation
from cgoplane.geometry import make_disk, make_rhombus
from cgoplane.grid import ComplexField, FourierGrid
from cgoplane.potentials import (PiecewisePotential, chi_hr_norm, dsr_norm_upper,
                                 h_r_norm_field, potential_from_description, rasterize,
                                 w_s1_norm)


def constant_q(value):
    return lambda q1, q2: np.full(np.broadcast(np.asarray(q1), np.asarray(q2)).shape,
                                  value, dtype=complex)


@pytest.fixture(scope="module")
def unit_disk():
    return make_disk(radius=1.0)


class TestPiecewisePotential:
    def test_index_validation(self, unit_disk):
        q = constant_q(1.0)
        with pytest.raises(ValueError):
            PiecewisePotential(pieces=((q, unit_disk),), s=1.5, r=0.3)
        with pytest.raises(ValueError):
            PiecewisePotential(pieces=((q, unit_disk),), s=2.5, r=0.6)
        with pytest.raises(ValueError):
            # s - 2 = 0.8 >= 2r = 0.6
            PiecewisePotential(pieces=((q, unit_disk),), s=2.8, r=0.3)
        PiecewisePotential(pieces=((q, unit_disk),), s=2.5, r=0.3)  # valid

    def test_pointwise_evaluation(self, unit_disk):
        V = PiecewisePotential(pieces=((constant_q(2.0 + 1j), unit_disk),), s=2.0, r=0.25)
        vals = V(np.array([0.0, 3.0]), np.array([0.0, 0.0]))
        assert vals[0] == 2.0 + 1j
        assert vals[1] == 0.0

    def test_content_hash_needs_description(self, unit_disk):
        # same (s, r, #pieces), different values: no key may be shared
        V1 = PiecewisePotential(pieces=((constant_q(1.0), unit_disk),), s=2.5, r=0.3)
        V2 = PiecewisePotential(pieces=((constant_q(2.0), unit_disk),), s=2.5, r=0.3)
        for V in (V1, V2):
            with pytest.raises(ConfigError):
                V.content_hash()


class TestRasterize:
    def test_zero_pieces(self):
        g = FourierGrid(64, 4.0)
        V = PiecewisePotential(pieces=(), s=2.0, r=0.25)
        assert np.max(np.abs(rasterize(V, g).values)) == 0.0

    def test_disk_area_high_resolution(self, unit_disk):
        g = FourierGrid(512, 4.0)
        V = PiecewisePotential(pieces=((constant_q(1.0), unit_disk),), s=2.0, r=0.25)
        area = g.h**2 * np.sum(rasterize(V, g).values).real
        assert abs(area - np.pi) / np.pi < 0.005

    def test_disjoint_additivity(self):
        g = FourierGrid(128, 4.0)
        d1 = make_disk(center=(-0.45, 0.0), radius=0.3)
        d2 = make_disk(center=(0.45, 0.0), radius=0.3)
        q = constant_q(1.0 - 0.5j)
        both = rasterize(PiecewisePotential(pieces=((q, d1), (q, d2)), s=2.0, r=0.25), g)
        one = rasterize(PiecewisePotential(pieces=((q, d1),), s=2.0, r=0.25), g)
        two = rasterize(PiecewisePotential(pieces=((q, d2),), s=2.0, r=0.25), g)
        assert np.array_equal(both.values, (one + two).values)

    def test_support_violation(self):
        g = FourierGrid(64, 4.0)
        big = make_disk(radius=1.5)  # leaves the central square of side 2
        V = PiecewisePotential(pieces=((constant_q(1.0), big),), s=2.0, r=0.25)
        with pytest.raises(SupportViolation):
            rasterize(V, g)


class TestChiHrNorm:
    def test_empty_domain(self):
        g = FourierGrid(128, 4.0)
        tiny = make_disk(radius=1e-3)
        # indicator rasterizes to (at most) a point; H^0 norm ~ 0
        assert chi_hr_norm(tiny, 0.0, g) <= g.h

    def test_l2_of_disk_indicator(self, unit_disk):
        g = FourierGrid(512, 4.0)
        val = chi_hr_norm(unit_disk, 0.0, g)
        assert abs(val - np.sqrt(np.pi)) / np.sqrt(np.pi) < 0.01

    def test_monotone_in_r(self, unit_disk):
        g = FourierGrid(128, 4.0)
        vals = [chi_hr_norm(unit_disk, r, g) for r in (0.1, 0.25, 0.4)]
        assert vals[0] < vals[1] < vals[2]

    def test_refinement_stabilizes_below_half(self, unit_disk):
        vals_04, vals_06 = [], []
        for n in (256, 512, 1024):
            g = FourierGrid(n, 4.0)
            vals_04.append(chi_hr_norm(unit_disk, 0.4, g))
            vals_06.append(chi_hr_norm(unit_disk, 0.6, g))
        rel_changes_04 = [abs(b - a) / a for a, b in zip(vals_04, vals_04[1:])]
        rel_changes_06 = [abs(b - a) / a for a, b in zip(vals_06, vals_06[1:])]
        assert all(c < 0.05 for c in rel_changes_04)
        assert rel_changes_06[-1] > 0.05


class TestDsrNorm:
    def test_zero_potential(self):
        g = FourierGrid(64, 4.0)
        V = PiecewisePotential(pieces=(), s=2.0, r=0.25)
        assert dsr_norm_upper(V, g) == 0.0

    def test_composition_for_constant_disk(self, unit_disk):
        g = FourierGrid(256, 4.0)
        V = PiecewisePotential(pieces=((constant_q(1.0), unit_disk),), s=2.0, r=0.25)
        got = dsr_norm_upper(V, g)
        expect = w_s1_norm(constant_q(1.0), 2.0, g) * (1 + chi_hr_norm(unit_disk, 0.25, g))
        assert np.isclose(got, expect, rtol=1e-12)
        # the constant has flat spectrum: W^{2,1} norm over the window = its area
        assert np.isclose(w_s1_norm(constant_q(1.0), 2.0, g), 16.0, rtol=1e-10)

    def test_scaling_homogeneity(self, unit_disk):
        g = FourierGrid(128, 4.0)
        V1 = PiecewisePotential(pieces=((constant_q(1.0), unit_disk),), s=2.5, r=0.3)
        V3 = PiecewisePotential(pieces=((constant_q(3.0), unit_disk),), s=2.5, r=0.3)
        assert np.isclose(dsr_norm_upper(V3, g), 3 * dsr_norm_upper(V1, g), rtol=1e-10)


def test_sobolev_embedding_budget(rng):
    # grid H^r norm <= 10 x grid W^{r+1,1} norm for smooth bumps, r = 0.25
    g = FourierGrid(128, 4.0)
    for _ in range(20):
        cx, cy = rng.uniform(-0.4, 0.4, 2)
        sigma = rng.uniform(0.08, 0.3)
        amp = rng.uniform(0.2, 3.0)
        q = lambda Z1, Z2: amp * np.exp(-((Z1 - cx) ** 2 + (Z2 - cy) ** 2) / (2 * sigma**2))  # noqa: E731
        F = ComplexField.from_function(g, q)
        hr = h_r_norm_field(F, 0.25)
        w11 = w_s1_norm(q, 1.25, g)
        assert hr <= 10.0 * w11


class TestDescriptionFiles:
    def test_roundtrip(self):
        desc = {
            "s": 2.5, "r": 0.3,
            "domains": {
                "blob": {"segments": [
                    {"orientation": "z1", "interval": [-0.5, 0.5],
                     "function": {"type": "polynomial", "coeffs": [0.25, 0.0, -1.0]}},
                    {"orientation": "z1", "interval": [-0.5, 0.5], "reverse": True,
                     "function": {"type": "polynomial", "coeffs": [-0.25, 0.0, 1.0]}},
                ]},
                "ball": {"builtin": "disk", "radius": 0.2, "center": [0.9, 0.0]},
            },
            "pieces": [
                {"q": {"type": "gaussian-bump", "center": [0.0, 0.0], "sigma": 0.2,
                       "amplitude": [1.0, -0.5]}, "domain": "blob"},
                {"q": {"type": "constant", "value": [2.0, 0.0]}, "domain": "ball"},
            ],
        }
        V = potential_from_description(json.loads(json.dumps(desc)))
        assert len(V.pieces) == 2
        assert V.s == 2.5
        # value inside the second piece
        val = V(np.array([0.9]), np.array([0.0]))[0]
        assert val == 2.0
        # hashing is stable across loads
        assert V.content_hash() == potential_from_description(
            json.loads(json.dumps(desc))).content_hash()

    def test_spline_segment_description(self):
        knots = np.linspace(-1, 1, 7).tolist()
        vals = (0.3 * np.cos(np.linspace(-1, 1, 7))).tolist()
        desc = {
            "s": 2.0, "r": 0.25,
            "domains": {"band": {"segments": [
                {"orientation": "z1", "interval": [-1.0, 1.0],
                 "function": {"type": "spline", "knots": knots, "values": vals,
                              "end_derivs": [0.3 * np.sin(1.0), -0.3 * np.sin(1.0)]}},
                {"orientation": "z1", "interval": [-1.0, 1.0], "reverse": True,
                 "function": {"type": "polynomial",
                              "coeffs": [0.3 * np.cos(1.0) - 1.0, 0.0, 1.0]}},
            ]}},
            "pieces": [{"q": {"type": "constant", "value": [1.0, 0.0]},
                        "domain": "band"}],
        }
        V = potential_from_description(desc)
        assert len(V.pieces) == 1

    def test_unknown_form_rejected(self):
        desc = {"s": 2.0, "r": 0.25, "domains": {"d": {"builtin": "disk", "radius": 0.3}},
                "pieces": [{"q": {"type": "mystery"}, "domain": "d"}]}
        with pytest.raises(ValueError, match="unknown piece function"):
            potential_from_description(desc)
