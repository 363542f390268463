import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sfft
from scipy.sparse.linalg import gmres
from scipy.special import hankel1

from cgoplane import scattering
from cgoplane.errors import CutoffExceedsNyquist, DomainError, NearSingular
from cgoplane.grid import ComplexField, FourierGrid
from cgoplane.scattering import (FarFieldData, compute_far_field_data, far_field,
                                 green0, k_norm, plane_waves, solve_lippmann_schwinger)

EULER_GAMMA = 0.5772156649015328606


class TestGreen0:
    def test_against_library_hankel(self):
        # independent oracle: AMOS hankel1 against the Cephes j0/y0 in green0
        k = 2.3
        for d in (1e-4, 0.05, 0.8, 2.0, 3.47, 4.0, 10.0, 40.0):
            got = green0(d, k)
            ref = 0.25j * hankel1(0, k * d)
            assert abs(got - ref) / abs(ref) < 1e-12, d

    def test_large_argument_modulus(self):
        # |green0| ~ (1/4) sqrt(2/(pi k d)) at kd = 50
        k, d = 5.0, 10.0
        got = abs(green0(d, k))
        ref = 0.25 * np.sqrt(2 / (np.pi * k * d))
        assert abs(got - ref) / ref < 0.01

    def test_small_argument_form(self):
        # green0 ~ (i/4)(1 + (2i/pi)(ln(kd/2) + gamma)) at kd = 1e-3
        k, d = 1.0, 1e-3
        got = green0(d, k)
        ref = 0.25j * (1 + (2j / np.pi) * (np.log(k * d / 2) + EULER_GAMMA))
        assert abs(got - ref) / abs(ref) < 0.01

    def test_outgoing_sign_near_zero(self):
        # Im green0 = J0/4 -> +1/4 as the argument shrinks: outgoing convention
        val = green0(1e-6, 1.0)
        assert val.imag > 0
        assert val.real > 0  # -Y0/4 -> +inf

    def test_branch_continuity_at_crossover(self):
        k = 1.0
        lo = green0(8.0 - 1e-9, k)
        hi = green0(8.0 + 1e-9, k)
        assert abs(lo - hi) / abs(lo) < 1e-6

    def test_domain_error(self):
        with pytest.raises(DomainError):
            green0(0.0, 1.0)
        with pytest.raises(DomainError):
            green0(np.array([1.0, -0.5]), 1.0)


@pytest.fixture(scope="module")
def scatter_grid():
    return FourierGrid(32, 2.2)


def bump_field(grid, eps, sigma=0.25):
    return ComplexField.from_function(
        grid, lambda Z1, Z2: eps * np.exp(-(Z1**2 + Z2**2) / (2 * sigma**2))
        * ((Z1**2 + Z2**2) <= 1.0))


class TestLippmannSchwinger:
    def test_zero_potential_gives_plane_wave(self, scatter_grid):
        V = ComplexField.zeros(scatter_grid)
        k = 3.0
        sol = solve_lippmann_schwinger(V, k, (1.0, 0.0))
        pts = np.stack([scatter_grid.Z1.ravel(), scatter_grid.Z2.ravel()], axis=-1)
        inc = np.exp(1j * k * pts @ np.array([1.0, 0.0]))
        assert np.max(np.abs(sol.u - inc)) < 1e-12

    def test_residual_is_solver_level(self, scatter_grid):
        V = bump_field(scatter_grid, 0.5)
        sol = solve_lippmann_schwinger(V, 4.0, (0.0, 1.0))
        assert sol.residual <= 1e-6

    def test_gmres_short_of_tolerance_raises(self, scatter_grid, monkeypatch):
        # a GMRES that stops short of the tolerance, here while reporting
        # success, must not hand back its field
        monkeypatch.setattr(scattering, "gmres", lambda A, b, **kw: (0.5 * b, 0))
        with pytest.raises(NearSingular, match="residual"):
            solve_lippmann_schwinger(bump_field(scatter_grid, 0.5), 4.0, (0.0, 1.0))

    def test_solve_beyond_the_dense_cap(self):
        # 256^2 nodes: the dense matrix alone would need about 69 GB
        grid = FourierGrid(256, 2.2)
        sol = solve_lippmann_schwinger(bump_field(grid, 0.5), 4.0, (0.6, 0.8))
        assert sol.residual <= 1e-12
        assert sol.iterations > 0
        assert sol.u.shape == (256 * 256,)

    def test_system_freed_without_gc(self, scatter_grid):
        # no reference cycle: the kernel transform goes when the last reference does,
        # not at the next full gc pass
        gc.disable()
        try:
            system = scattering._NystromSystem(bump_field(scatter_grid, 0.5), 4.0)
            system.solve((0.0, 1.0))
            ref = weakref.ref(system)
            del system
            assert ref() is None
        finally:
            gc.enable()

    def test_small_potential_linear_response(self, scatter_grid):
        k = 4.0
        theta = (1.0, 0.0)
        pts = np.stack([scatter_grid.Z1.ravel(), scatter_grid.Z2.ravel()], axis=-1)
        inc = np.exp(1j * k * pts @ np.asarray(theta))
        devs = []
        for eps in (0.2, 0.1):
            sol = solve_lippmann_schwinger(bump_field(scatter_grid, eps), k, theta)
            devs.append(np.linalg.norm(sol.u - inc))
        ratio = devs[0] / devs[1]
        assert 1.8 <= ratio <= 2.2


class TestFarField:
    def test_zero_potential(self, scatter_grid):
        V = ComplexField.zeros(scatter_grid)
        assert far_field(V, (1.0, 0.0), solve_lippmann_schwinger(V, 3.0, (0.0, 1.0))) == 0.0

    def test_born_regime_against_gaussian_transform(self, scatter_grid):
        # A ~ eps * qhat(k(eta - theta)) with the closed-form Gaussian transform
        k, sigma = 4.0, 0.25
        eta = np.array([1.0, 0.0])
        theta = np.array([0.0, 1.0])
        xi = k * (eta - theta)
        born = 2 * np.pi * sigma**2 * np.exp(-sigma**2 * (xi @ xi) / 2)
        mism = []
        for eps in (0.2, 0.1):
            V = bump_field(scatter_grid, eps, sigma)
            a = far_field(V, eta, solve_lippmann_schwinger(V, k, theta))
            mism.append(abs(a - eps * born) / (eps * born))
        assert mism[1] < mism[0]
        assert 1.5 <= mism[0] / mism[1] <= 2.5

    def test_reciprocity_for_real_potential(self, scatter_grid):
        k = 4.0
        V = bump_field(scatter_grid, 0.6)
        eta = np.array([np.cos(0.3), np.sin(0.3)])
        theta = np.array([np.cos(1.9), np.sin(1.9)])
        a1 = far_field(V, eta, solve_lippmann_schwinger(V, k, theta))
        a2 = far_field(V, -theta, solve_lippmann_schwinger(V, k, -eta))
        assert abs(a1 - a2) / abs(a1) < 1e-4

    def test_v_on_another_grid_refused(self, scatter_grid):
        # same n, another side: the quadrature weight h would silently change
        sol = solve_lippmann_schwinger(bump_field(scatter_grid, 0.2), 3.0, (0.0, 1.0))
        other = FourierGrid(scatter_grid.n_per_side, 2 * scatter_grid.side_len)
        with pytest.raises(DomainError):
            far_field(bump_field(other, 0.2), (1.0, 0.0), sol)


def _dense_nystrom(V, k):
    """Dense I + G h^2 V from green0 and the corrected diagonal (oracle, n <= 32)."""
    g = V.grid
    assert g.n_per_side <= 32
    h = g.h
    pts = np.stack([g.Z1.ravel(), g.Z2.ravel()], axis=-1)
    dist = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
    np.fill_diagonal(dist, 1.0)
    kern = green0(dist, k) * h * h
    rho = h / np.sqrt(np.pi)
    np.fill_diagonal(kern, 0.25j * h * h - (h * h * (np.log(k / 2.0) + EULER_GAMMA)
                                            + h * h * (np.log(rho) - 0.5)) / (2 * np.pi))
    return np.eye(len(pts)) + kern * V.values.ravel()[None, :], pts


class TestDenseOracle:
    def test_fft_matvec_matches_dense(self, scatter_grid, rng):
        V = bump_field(scatter_grid, 0.4 - 0.3j)
        dense, _ = _dense_nystrom(V, 4.0)
        u = rng.standard_normal(len(dense)) + 1j * rng.standard_normal(len(dense))
        want = dense @ u
        got = scattering._NystromSystem(V, 4.0)._apply(u)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-13

    @pytest.mark.parametrize("support", ["disk", "strip"])
    def test_apply_is_the_unpruned_composition_bit_for_bit(self, scatter_grid, rng, support):
        # _apply transforms only V's columns and inverts only the first n rows;
        # the full pad -> fft2 -> multiply -> ifft2 -> crop gives the same bits
        n = scatter_grid.n_per_side
        V = bump_field(scatter_grid, 0.4 - 0.3j)
        if support == "strip":
            V = ComplexField(scatter_grid, np.where(np.abs(scatter_grid.Z1 - 0.2) < 0.1,
                                                    V.values, 0.0))
        system = scattering._NystromSystem(V, 4.0)
        u = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
        pad = np.zeros((2 * n, 2 * n), dtype=complex)
        pad[:n, :n] = V.values * u.reshape(n, n)
        conv = sfft.ifft2(sfft.fft2(pad) * system._kern_hat)[:n, :n]
        assert np.array_equal(system._apply(u), (u.reshape(n, n) + conv).ravel())

    def test_far_field_data_matches_dense_solve(self, scatter_grid):
        k, n_ang = 4.0, 64
        V = bump_field(scatter_grid, 0.4)
        dense, pts = _dense_nystrom(V, k)
        ang = 2 * np.pi * np.arange(n_ang) / n_ang
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        u = np.linalg.solve(dense, np.exp(1j * k * pts @ dirs.T))
        recv = np.exp(-1j * k * dirs @ pts.T) * (scatter_grid.h**2 * V.values.ravel())
        want = recv @ u
        got = compute_far_field_data(V, k, n_eta=n_ang, n_theta=n_ang).samples
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-12


class TestFarFieldModes:
    """compute_far_field_data solves once per angular mode, not once per direction."""

    N_ETA, N_THETA, K = 64, 128, 4.0

    @pytest.fixture(scope="class")
    def complex_bump(self, scatter_grid):
        return bump_field(scatter_grid, 0.4 - 0.3j)

    def test_matches_per_direction_far_field(self, complex_bump):
        # pins the DFT sign and the mode/direction index arithmetic
        data = compute_far_field_data(complex_bump, self.K, n_eta=self.N_ETA,
                                      n_theta=self.N_THETA)
        scale = np.max(np.abs(data.samples))
        for i, j in [(0, 0), (5, 77), (31, 1), (17, 64), (63, 127)]:
            eta = 2 * np.pi * i / self.N_ETA
            theta = 2 * np.pi * j / self.N_THETA
            sol = solve_lippmann_schwinger(complex_bump, self.K, (np.cos(theta), np.sin(theta)))
            want = far_field(complex_bump, (np.cos(eta), np.sin(eta)), sol)
            assert abs(data.samples[i, j] - want) <= 1e-12 * scale, (i, j)

    def test_fewer_solves_than_directions(self, complex_bump, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return gmres(*args, **kwargs)

        monkeypatch.setattr(scattering, "gmres", counted)
        compute_far_field_data(complex_bump, self.K, n_eta=self.N_ETA, n_theta=self.N_THETA)
        assert 0 < len(calls) < self.N_THETA

    def test_gmres_short_of_tolerance_raises(self, complex_bump, monkeypatch):
        # every direction's true residual is checked, as (A X) E_j - inc_j from the
        # kept modes' products A X_m and a freshly computed incident wave
        monkeypatch.setattr(scattering, "gmres", lambda A, b, **kw: (0.5 * b, 0))
        with pytest.raises(NearSingular, match="residual"):
            compute_far_field_data(complex_bump, self.K, n_eta=self.N_ETA,
                                   n_theta=self.N_THETA)

    def test_one_matvec_per_kept_mode(self, complex_bump, monkeypatch):
        # outside GMRES, the residual check applies A once per kept mode (one GMRES call
        # each), not once per direction
        inside, outside, solves = [], [], []
        apply = scattering._NystromSystem._apply

        def counted_apply(self, u):
            (inside if solves and solves[-1] else outside).append(1)
            return apply(self, u)

        def counted_gmres(*args, **kwargs):
            solves.append(True)
            try:
                return gmres(*args, **kwargs)
            finally:
                solves[-1] = False

        monkeypatch.setattr(scattering._NystromSystem, "_apply", counted_apply)
        monkeypatch.setattr(scattering, "gmres", counted_gmres)
        compute_far_field_data(complex_bump, self.K, n_eta=self.N_ETA, n_theta=self.N_THETA)
        assert inside and 0 < len(solves) < self.N_THETA
        assert len(outside) == len(solves)

    def test_one_mode_slightly_off_raises(self, complex_bump, monkeypatch):
        # the first kept mode (m = 0) comes back 1e-10 off relative; the others are
        # GMRES's own solves
        rng = np.random.default_rng(3)
        calls = []

        def one_off(A, b, **kwargs):
            u, info = gmres(A, b, **kwargs)
            if not calls:
                noise = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
                u = u + 1e-10 * np.linalg.norm(u) * noise / np.linalg.norm(noise)
            calls.append(1)
            return u, info

        monkeypatch.setattr(scattering, "gmres", one_off)
        with pytest.raises(NearSingular, match="residual"):
            compute_far_field_data(complex_bump, self.K, n_eta=self.N_ETA,
                                   n_theta=self.N_THETA)
        assert len(calls) > 1


class TestPlaneWaves:
    GRID = FourierGrid(64, 2.2)
    K = 4.0

    def _check(self, angle):
        g = self.GRID
        d = np.array([np.cos(angle), np.sin(angle)])
        pts = np.stack([g.Z1.ravel(), g.Z2.ravel()], axis=-1)
        got = plane_waves(g, self.K, d)
        assert got.shape == (g.n_per_side**2,)
        assert np.max(np.abs(got - np.exp(1j * self.K * (pts @ d)))) <= 1e-15
        # grid order: index i2*n + i1 holds the node (z1[i1], z2[i2])
        n = g.n_per_side
        for i1, i2 in [(0, 0), (5, 0), (0, 5), (n - 1, 3), (17, n - 1)]:
            want = np.exp(1j * self.K * (g.z1[i1] * d[0] + g.z2[i2] * d[1]))
            assert abs(got[i2 * n + i1] - want) <= 1e-15

    @pytest.mark.parametrize("angle", [0.0, np.pi / 2, 3 * np.pi / 4])
    def test_against_full_exponential(self, angle):
        self._check(angle)

    # derandomized: np.exp of the summed phase rounds too, by up to 9.3e-16 against an
    # extended-precision phase, so about 1 in 2000 random angles differs by just over 1e-15
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(angle=st.floats(0.0, 2 * np.pi))
    def test_against_full_exponential_drawn(self, angle):
        self._check(angle)


@settings(max_examples=20, deadline=None)
@given(eta=st.floats(0.0, 2 * np.pi), theta=st.floats(0.0, 2 * np.pi),
       modulus=st.floats(0.05, 0.6), arg=st.floats(0.0, 2 * np.pi))
def test_reciprocity_for_complex_potential(eta, theta, modulus, arg):
    # G is symmetric, so A(eta, theta) = A(-theta, -eta) holds for complex V too
    grid = FourierGrid(32, 2.2)
    V = bump_field(grid, modulus * np.exp(1j * arg))
    e = np.array([np.cos(eta), np.sin(eta)])
    t = np.array([np.cos(theta), np.sin(theta)])
    a1 = far_field(V, e, solve_lippmann_schwinger(V, 4.0, t))
    a2 = far_field(V, -t, solve_lippmann_schwinger(V, 4.0, -e))
    assert abs(a1 - a2) <= 1e-10 * max(abs(a1), abs(a2))


class TestFarFieldData:
    def test_requires_pow2_at_least_64(self):
        with pytest.raises(ValueError):
            FarFieldData.from_samples(2.0, np.zeros((32, 32), dtype=complex))

    def test_coeff_consistency(self, rng):
        samples = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        data = FarFieldData.from_samples(2.0, samples)
        assert data.consistency() < 1e-10

    def test_full_pipeline_consistency(self, scatter_grid):
        V = bump_field(scatter_grid, 0.4)
        data = compute_far_field_data(V, 4.0, n_eta=64, n_theta=64)
        assert data.consistency() < 1e-10


class TestKNorm:
    @staticmethod
    def _single_coeff_data(n, m, c, k, size=64):
        samples = np.zeros((size, size), dtype=complex)
        etas = 2 * np.pi * np.arange(size) / size
        thetas = 2 * np.pi * np.arange(size) / size
        samples = c * np.exp(1j * (n * etas[:, None] + m * thetas[None, :]))
        return FarFieldData.from_samples(k, samples)

    def test_zero(self):
        data = FarFieldData.from_samples(2.0, np.zeros((64, 64), dtype=complex))
        assert k_norm(data, cutoff=16).value == 0.0

    def test_constant_mode_weight_is_one(self):
        c = 0.37 - 0.21j
        data = self._single_coeff_data(0, 0, c, k=5.0)
        res = k_norm(data, cutoff=8)
        assert np.isclose(res.value, abs(c), rtol=1e-12)
        assert res.tail < 1e-14

    def test_first_mode_weight_arithmetic(self):
        # weight ((3+3)/3)^2 = 4 at |n| = 1, k = 3: norm = 2|c|
        c = 0.5 + 0.25j
        data = self._single_coeff_data(1, 0, c, k=3.0)
        res = k_norm(data, cutoff=8)
        assert np.isclose(res.value, 2 * abs(c), rtol=1e-12)

    def test_cutoff_guard(self):
        data = FarFieldData.from_samples(2.0, np.zeros((64, 64), dtype=complex))
        with pytest.raises(CutoffExceedsNyquist):
            k_norm(data, cutoff=32)

    def test_dominates_plain_l2_for_small_k(self, rng):
        samples = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        data = FarFieldData.from_samples(2.5, samples)  # k <= 3: weights >= 1
        res = k_norm(data, cutoff=16)
        inside = np.sqrt(np.sum(np.abs(data.coeffs) ** 2)) - res.tail
        assert res.value >= inside * 0.999

    def test_default_cutoff_is_above_roundoff(self, scatter_grid):
        # at the default cutoff, the per-mode dataset and one solved direction by
        # direction give the same weighted norm; at cutoff 32 roundoff set it
        k, n_ang = 4.0, 128
        V = bump_field(scatter_grid, 0.2)
        per_mode = compute_far_field_data(V, k, n_eta=n_ang, n_theta=n_ang)
        ang = 2 * np.pi * np.arange(n_ang) / n_ang
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        samples = np.empty((n_ang, n_ang), dtype=complex)
        for j, theta in enumerate(dirs):
            sol = solve_lippmann_schwinger(V, k, theta)
            for i, eta in enumerate(dirs):
                samples[i, j] = far_field(V, eta, sol)
        want = k_norm(FarFieldData.from_samples(k, samples)).value
        assert abs(k_norm(per_mode).value - want) <= 1e-6 * want

    def test_tail_reported(self):
        data = self._single_coeff_data(20, 0, 1.0, k=5.0)
        res = k_norm(data, cutoff=8)
        # in-window bins hold only FFT roundoff, but the weights amplify it
        assert res.value < 1e-6
        assert np.isclose(res.tail, 1.0, rtol=1e-10)
