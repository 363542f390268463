import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cgoplane import cgo
from cgoplane.cgo import PhaseParams
from cgoplane.errors import NonConvergence, SupportViolation
from cgoplane.experiments import ExperimentConfig, run_convergence
from cgoplane.grid import ComplexField, FourierGrid, fft2, ifft2
from cgoplane.utils import fit_loglog_slope

from conftest import gaussian_bump, supported_noise


def test_phase_params_validation():
    with pytest.raises(ValueError):
        PhaseParams(0.0, (0.0, 0.0))
    p = PhaseParams(4.0, (0.25, -0.5))
    assert p.x == (0.25, -0.5)


class TestWirtingerInverses:
    def test_zero_maps_to_zero(self, grid256):
        z = ComplexField.zeros(grid256)
        assert cgo.dz_inv(z).max_abs() == 0.0
        assert cgo.dzbar_inv(z).max_abs() == 0.0

    def test_derivative_of_bump_inverts_back(self, grid256):
        g = gaussian_bump(grid256)
        F = cgo.dz(g)
        back = cgo.dz_inv(F)
        target = g - g.mean()
        err = np.max(np.abs(back.values - target.values))
        assert err <= 1e-6

    def test_forward_roundtrip_dz(self, grid256):
        F = gaussian_bump(grid256)
        rec = cgo.dz(cgo.dz_inv(F))
        target = F - F.mean()
        rel = (rec - target).l2_norm() / F.l2_norm()
        assert rel <= 1e-6

    def test_forward_roundtrip_dzbar(self, grid256):
        F = gaussian_bump(grid256, sigma=0.12)
        rec = cgo.dzbar(cgo.dzbar_inv(F))
        target = F - F.mean()
        rel = (rec - target).l2_norm() / F.l2_norm()
        assert rel <= 1e-6

    def test_zero_frequency_of_result_is_zero(self, grid256):
        F = gaussian_bump(grid256)
        out = cgo.dz_inv(F)
        assert abs(out.mean()) < 1e-14

    def test_conjugation_identity_pointwise(self, grid128, rng):
        F = supported_noise(grid128, rng)
        lhs = cgo.dzbar_inv(F.conj(), check_support=False)
        rhs = cgo.dz_inv(F, check_support=False).conj()
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12

    def test_support_violation_propagates(self, grid128):
        shifted = ComplexField.from_function(
            grid128, lambda Z1, Z2: np.exp(-((Z1 - 1.6) ** 2 + Z2**2) / 0.02))
        with pytest.raises(SupportViolation):
            cgo.dz_inv(shifted)

    def test_linearity(self, grid128, rng):
        F = supported_noise(grid128, rng)
        G = supported_noise(grid128, rng)
        a, b = 1.3 - 0.2j, -0.7 + 2.1j
        lhs = cgo.dz_inv(a * F + b * G, check_support=False)
        rhs = a * cgo.dz_inv(F, check_support=False) + b * cgo.dz_inv(G, check_support=False)
        rel = (lhs - rhs).l2_norm() / max(lhs.l2_norm(), 1e-300)
        assert rel <= 1e-10


class TestPhaseMul:
    def test_small_lambda_is_identity_like(self, grid128):
        # the phase factor tends to 1 as lambda -> 0; check at tiny lambda
        F = gaussian_bump(grid128)
        p = PhaseParams(1e-12, (0.0, 0.0))
        out = cgo.phase_mul(F, p, +1)
        assert np.max(np.abs(out.values - F.values)) < 1e-9

    def test_conjugate_phases_cancel(self, grid128, rng):
        F = supported_noise(grid128, rng)
        p = PhaseParams(17.0, (0.3, -0.2))
        out = cgo.phase_mul(cgo.phase_mul(F, p, +1), p, -1)
        assert np.max(np.abs(out.values - F.values)) < 1e-12

    def test_modulus_preserved(self, grid128, rng):
        F = supported_noise(grid128, rng)
        p = PhaseParams(33.0, (0.1, 0.4))
        out = cgo.phase_mul(F, p, +1)
        assert np.max(np.abs(np.abs(out.values) - np.abs(F.values))) < 1e-12

    def test_phase_factor_is_one_at_x(self, grid128):
        g = grid128
        # put x exactly on a node
        x = (g.z1[70], g.z2[40])
        phase = np.exp(1j * 123.0 * cgo.phi_values(g, x))
        assert abs(phase[40, 70] - 1.0) < 1e-14

    def test_resolution_warning(self, grid128):
        F = gaussian_bump(grid128)
        p = PhaseParams(1e6, (0.0, 0.0))
        with pytest.warns(RuntimeWarning):
            cgo.phase_mul(F, p, +1)

    def test_linearity_s1(self, grid128, rng):
        F = supported_noise(grid128, rng)
        G = supported_noise(grid128, rng)
        p = PhaseParams(25.0, (0.0, 0.1))
        a, b = 0.5 + 1j, 2.0 - 0.3j
        lhs = cgo.s1_apply(a * F + b * G, p, check_support=False)
        rhs = a * cgo.s1_apply(F, p, check_support=False) + b * cgo.s1_apply(G, p, check_support=False)
        rel = (lhs - rhs).l2_norm() / max(lhs.l2_norm(), 1e-300)
        assert rel <= 1e-10

    def test_s1_adjoint_identity(self, grid128, rng):
        # <S1 f, u> = <f, S1* u> in the grid L^2 pairing, on fields that fill the square
        p = PhaseParams(64.0, (0.03, -0.02))
        n = grid128.n_per_side
        f, u = (ComplexField(grid128, rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n))) for _ in range(2))
        lhs = np.vdot(u.values, cgo.s1_apply(f, p, check_support=False).values)
        rhs = np.vdot(cgo.s1_adjoint(u, p).values, f.values)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_s1_zero(self, grid128):
        p = PhaseParams(10.0, (0.0, 0.0))
        out = cgo.s1_apply(ComplexField.zeros(grid128), p)
        assert out.max_abs() == 0.0


class TestSolveW:
    def test_zero_potential_gives_zero(self, grid128):
        p = PhaseParams(16.0, (0.2, 0.1))
        w = cgo.solve_w(ComplexField.zeros(grid128), p)
        assert w.max_abs() == 0.0

    def test_fixed_point_residual(self, grid256):
        V = gaussian_bump(grid256)
        p = PhaseParams(24.0, (0.05, -0.02))
        tol = 1e-8
        w = cgo.solve_w(V, p, tol=tol)
        res = (w - cgo.s1_apply(V * (1 + w), p, check_support=False)).l2_norm()
        assert res <= tol

    def test_w_norm_decays_with_lambda(self, grid256):
        V = gaussian_bump(grid256, sigma=0.12)
        norms = []
        lams = [64.0, 128.0, 256.0, 512.0]
        for lam in lams:
            w = cgo.solve_w(V, PhaseParams(lam, (0.0, 0.0)))
            norms.append(cgo.hs_norm(w, 0.5))
        assert norms[-1] < norms[0]
        assert fit_loglog_slope(lams, norms) <= -0.25

    def test_nonconvergence_reported(self, grid128):
        # huge potential at small lambda: the iteration cannot contract
        V = gaussian_bump(grid128, sigma=0.18, amp=500.0)
        with pytest.raises(NonConvergence):
            cgo.solve_w(V, PhaseParams(1.0, (0.0, 0.0)), max_iter=40)


class TestOscFunctional:
    def test_zero_cases(self, grid128):
        F = gaussian_bump(grid128)
        p = PhaseParams(12.0, (0.0, 0.0))
        assert cgo.t_w_lambda(F, ComplexField.zeros(grid128), p) == 0.0
        assert cgo.t_w_lambda(ComplexField.zeros(grid128), F, p) == 0.0

    def test_decay_with_solved_w(self, grid256):
        V = gaussian_bump(grid256, sigma=0.12)
        vals = []
        lams = [64.0, 128.0, 256.0, 512.0]
        for lam in lams:
            p = PhaseParams(lam, (0.0, 0.0))
            w = cgo.solve_w(V, p)
            vals.append(abs(cgo.t_w_lambda(V, w, p)))
        assert fit_loglog_slope(lams, vals) <= -0.25


class TestHsNorm:
    def test_zero(self, grid128):
        assert cgo.hs_norm(ComplexField.zeros(grid128), 0.3) == 0.0

    def test_parseval_at_s0(self, grid128, rng):
        F = supported_noise(grid128, rng)
        F = F - F.mean()
        assert np.isclose(cgo.hs_norm(F, 0.0), F.l2_norm(), rtol=1e-12)

    def test_single_mode(self, grid128):
        g = grid128
        j, k = 5, 9
        xi = (g.xi1[j], g.xi2[k])
        mode = ComplexField.from_function(
            g, lambda Z1, Z2: np.exp(1j * (xi[0] * Z1 + xi[1] * Z2)))
        mag = np.hypot(*xi)
        for s in (-0.5, 0.25, 0.75):
            assert np.isclose(cgo.hs_norm(mode, s), mag**s * mode.l2_norm(), rtol=1e-10)

    def test_range_enforced(self, grid128):
        F = ComplexField.zeros(grid128)
        with pytest.raises(ValueError):
            cgo.hs_norm(F, 1.0)


def _s1_uncached(F, p):
    """(1/4) dzbar_inv[e^{-i lam phi} dz_inv[e^{i lam phi} F]], every factor built afresh."""
    g = F.grid
    phase = np.exp(1j * p.lam * cgo.phi_values(g, p.x))
    with np.errstate(divide="ignore", invalid="ignore"):
        m_z = 1.0 / (0.5j * (g.XI1 - 1j * g.XI2))
        m_zbar = 1.0 / (0.5j * (g.XI1 + 1j * g.XI2))
    nyq = g.n_per_side // 2
    for m in (m_z, m_zbar):
        m[0, 0] = 0.0
        m[nyq, :] = 0.0
        m[:, nyq] = 0.0
    inner = ifft2(fft2(phase * F.values) * m_z)
    return 0.25 * ifft2(fft2(np.conj(phase) * inner) * m_zbar)


class TestCaches:
    def test_s1_apply_never_serves_another_grid_or_phase(self, rng):
        # equal n, so only the grid object tells the multipliers and phases apart
        grids = [FourierGrid(64, 4.0), FourierGrid(64, 3.0),
                 FourierGrid(64, 4.0, center=(0.1, -0.05))]
        fields = [supported_noise(g, rng) for g in grids]
        params = [PhaseParams(8.0, (0.0, 0.0)), PhaseParams(12.0, (0.1, -0.05))]
        for _ in range(2):
            for F in fields:
                for p in params:
                    got = cgo.s1_apply(F, p).values
                    assert np.array_equal(got, _s1_uncached(F, p))

    def test_s1_apply_under_thread_contention(self, rng):
        # more threads than cores, switching often: each call must still get
        # its own grid's multipliers and its own phase from the shared caches
        grids = [FourierGrid(64, 4.0), FourierGrid(64, 3.0)]
        cases = [(supported_noise(g, rng), PhaseParams(lam, (0.05 * k, 0.0)))
                 for g in grids for k, lam in enumerate((8.0, 10.0, 12.0))]
        expected = [_s1_uncached(F, p) for F, p in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as ex:
                futures = [ex.submit(cgo.s1_apply, F, p) for _ in range(4) for F, p in cases]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for i, got in enumerate(results):
            assert np.array_equal(got.values, expected[i % len(cases)])

    def test_convergence_threads_match_serial_bytes(self, tmp_path):
        # the phase cache is shared by the sweep threads of jobs > 1
        params = {"variant": "pwc-disk", "lambdas": [24.0, 32.0, 48.0, 64.0],
                  "mask_grid": None}
        outs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            run_convergence(ExperimentConfig(name="convergence", out_dir=str(out),
                                             grid_n=64, jobs=jobs, params=params))
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert sorted(outs[0]) == ["convergence_pwc-disk.csv",
                                   "convergence_pwc-disk_summary.json"]
        assert outs[0] == outs[1]
