import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cgoplane import cgo
from cgoplane.cgo import PhaseParams
from cgoplane.errors import DomainError, NonConvergence, SupportViolation
from cgoplane.experiments import PWC_DISK_POTENTIAL, ExperimentConfig, run_convergence
from cgoplane.grid import ComplexField, FourierGrid, fft2, ifft2, padded_zeros
from cgoplane.potentials import potential_from_description, rasterize
from cgoplane.utils import fit_loglog_slope

from conftest import dz, dzbar, gaussian_bump, phi_values, supported_noise


def test_phase_params_validation():
    with pytest.raises(ValueError):
        PhaseParams(0.0, (0.0, 0.0))
    p = PhaseParams(4.0, (0.25, -0.5))
    assert p.x == (0.25, -0.5)


@pytest.mark.parametrize("lam,x", [
    (np.nan, (0.0, 0.0)), (np.inf, (0.0, 0.0)), (-np.inf, (0.0, 0.0)),
    (4.0, (np.nan, 0.0)), (4.0, (0.0, np.inf)), (4.0, (-np.inf, np.nan)),
], ids=["lam-nan", "lam-inf", "lam-minus-inf", "x1-nan", "x2-inf", "both-non-finite"])
def test_phase_params_refuse_non_finite_values(lam, x):
    # NaN <= 0 is False, so a sign test alone let NaN through to the solver
    with pytest.raises(DomainError):
        PhaseParams(lam, x)


class TestWirtingerInverses:
    def test_zero_maps_to_zero(self, grid256):
        z = ComplexField.zeros(grid256)
        assert np.max(np.abs(cgo.dz_inv(z).values)) == 0.0
        assert np.max(np.abs(cgo.dzbar_inv(z).values)) == 0.0

    def test_derivative_of_bump_inverts_back(self, grid256):
        g = gaussian_bump(grid256)
        F = dz(g)
        back = cgo.dz_inv(F)
        target = g - g.mean()
        err = np.max(np.abs(back.values - target.values))
        assert err <= 1e-6

    def test_forward_roundtrip_dz(self, grid256):
        F = gaussian_bump(grid256)
        rec = dz(cgo.dz_inv(F))
        target = F - F.mean()
        rel = (rec - target).l2_norm() / F.l2_norm()
        assert rel <= 1e-6

    def test_forward_roundtrip_dzbar(self, grid256):
        F = gaussian_bump(grid256, sigma=0.12)
        rec = dzbar(cgo.dzbar_inv(F))
        target = F - F.mean()
        rel = (rec - target).l2_norm() / F.l2_norm()
        assert rel <= 1e-6

    def test_zero_frequency_of_result_is_zero(self, grid256):
        F = gaussian_bump(grid256)
        out = cgo.dz_inv(F)
        assert abs(out.mean()) < 1e-14

    def test_conjugation_identity_pointwise(self, grid128, rng):
        F = supported_noise(grid128, rng)
        lhs = cgo.dzbar_inv(ComplexField(grid128, np.conj(F.values)), check_support=False)
        rhs = np.conj(cgo.dz_inv(F, check_support=False).values)
        assert np.max(np.abs(lhs.values - rhs)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([16, 32, 64, 128]), side=st.floats(0.5, 20.0),
           seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3), data=st.data())
    def test_conjugation_identity_for_drawn_fields(self, n, side, seed, scale, data):
        # noise plus drawn entries (the arrays strategy fills all but a few with
        # one value), the Nyquist row and column included
        rng = np.random.default_rng(seed)
        drawn = data.draw(hnp.arrays(np.complex128, (n, n), elements=st.complex_numbers(
            max_magnitude=1e6, allow_nan=False, allow_infinity=False)))
        F = ComplexField(FourierGrid(n, side), drawn + scale * (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))))
        rhs = np.conj(cgo.dz_inv(F, check_support=False).values)
        lhs = cgo.dzbar_inv(ComplexField(F.grid, np.conj(F.values)), check_support=False)
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-12 * np.max(np.abs(rhs))

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
        # put x exactly on a node: both chirps are e^0 there
        x = (g.z1[70], g.z2[40])
        assert cgo._phase(g, PhaseParams(123.0, x), (0, 128, 0, 128))[40, 70] == 1.0

    @pytest.mark.parametrize("n, lam", [(512, 128.0), (512, 512.0), (128, 64.0)])
    def test_phase_matches_the_exponential_of_phi(self, n, lam):
        # the outer product of the two chirps rounds each argument on its own;
        # the joint exponential rounds lam * phi, up to lam * max|z - x|^2
        g = FourierGrid(n, 4.0)
        p = PhaseParams(lam, (0.13, -0.07))
        expected = np.exp(1j * lam * phi_values(g, p.x))
        reach = np.max((g.Z1 - p.x[0]) ** 2 + (g.Z2 - p.x[1]) ** 2)
        got = cgo._phase(g, p, (0, n, 0, n))
        assert not got.flags.writeable
        assert np.max(np.abs(got - expected)) <= 4 * np.finfo(float).eps * lam * reach

    @pytest.mark.parametrize("n", [256, 512])
    def test_box_phase_is_the_slice_of_the_full_phase_bit_for_bit(self, n):
        g = FourierGrid(n, 4.0)
        p = PhaseParams(384.0, (0.13, -0.07))
        r0, r1, c0, c1 = box = (n // 3, n // 2 + 5, n // 4, n // 2 - 3)
        got = cgo._phase(g, p, box)
        assert not got.flags.writeable
        assert got.tobytes() == cgo._phase(g, p, (0, n, 0, n))[r0:r1, c0:c1].tobytes()

    @pytest.mark.parametrize("n, lam", [(128, 64.0), (256, 384.0), (512, 512.0)])
    def test_phase_block_is_the_full_box_phase_bit_for_bit(self, n, lam):
        # the one full-grid phase: the full-box phase, or its conjugate, in a padded block
        g = FourierGrid(n, 4.0)
        p = PhaseParams(lam, (0.13, -0.07))
        full = cgo._phase(g, p, (0, n, 0, n))
        for sign, expected in ((+1, full), (-1, np.conj(full))):
            block = cgo._phase_block(g, p, sign)
            assert block.shape == (n, n + 4)
            assert not block.flags.writeable
            assert block[:, :n].tobytes() == np.ascontiguousarray(expected).tobytes()
            assert not block[:, n:].any()

    @pytest.mark.parametrize("n, lam", [(128, 64.0), (256, 384.0)])
    def test_phase_mul_is_the_full_box_product_bit_for_bit(self, rng, n, lam):
        g = FourierGrid(n, 4.0)
        F = supported_noise(g, rng)
        p = PhaseParams(lam, (0.13, -0.07))
        full = cgo._phase(g, p, (0, n, 0, n))
        for sign, phase in ((+1, full), (-1, np.conj(full))):
            assert cgo.phase_mul(F, p, sign).values.tobytes() == (phase * F.values).tobytes()

    def test_resolution_warning(self, grid128):
        F = gaussian_bump(grid128)
        p = PhaseParams(1e6, (0.0, 0.0))
        with pytest.warns(RuntimeWarning):
            cgo.phase_mul(F, p, +1)

    @pytest.mark.parametrize("call", [
        lambda F, p: cgo.phase_mul(F, p, -1),
        lambda F, p: cgo.s1_apply(F, p),
        lambda F, p: cgo.s1_adjoint(F, p),
        lambda F, p: cgo.solve_w(F, p),
    ], ids=["phase_mul", "s1_apply", "s1_adjoint", "solve_w"])
    def test_warning_starts_past_the_resolution_limit(self, grid128, call):
        # one rule, lam <= 0.25 n^2 / side^2 (256 here); the warning points at the caller
        F = gaussian_bump(grid128, amp=0.5)
        lam = cgo.lam_resolution_limit(grid128)
        assert lam == 256.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(F, PhaseParams(lam, (0.0, 0.0)))
        with pytest.warns(RuntimeWarning, match="under-resolved") as record:
            call(F, PhaseParams(np.nextafter(lam, np.inf), (0.0, 0.0)))
        assert len(record) == 1 and record[0].filename == __file__

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
        assert np.max(np.abs(out.values)) == 0.0

    def test_s1_is_the_phase_mul_composition_bit_for_bit(self, grid128, rng):
        F = supported_noise(grid128, rng)
        p = PhaseParams(64.0, (0.1, -0.05))
        s1 = 0.25 * cgo.dzbar_inv(cgo.phase_mul(cgo.dz_inv(cgo.phase_mul(F, p, +1)), p, -1),
                                  check_support=False)
        assert np.array_equal(cgo.s1_apply(F, p).values, s1.values)

    @pytest.mark.parametrize("n", [32, 128, 512])
    @pytest.mark.parametrize("compact", [True, False], ids=["compact", "full-square"])
    def test_s1_adjoint_is_the_composition_bit_for_bit(self, rng, n, compact):
        # compact fields take the pruned first FFT, full-square ones the plain one
        g = FourierGrid(n, 2.0)
        F = (supported_noise(g, rng) if compact else ComplexField(
            g, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))))
        p = PhaseParams(n / 2, (0.03, -0.02))
        adj = 0.25 * cgo.phase_mul(cgo.dzbar_inv(cgo.phase_mul(
            cgo.dz_inv(F, check_support=False), p, +1), check_support=False), p, -1)
        assert np.array_equal(cgo.s1_adjoint(F, p).values, adj.values)

    def test_cached_multipliers_are_read_only_blocks_with_zero_pads(self, grid128):
        for symbol in (cgo._dz_symbol, cgo._dzbar_symbol):
            mult = cgo._inverse_multiplier(grid128, symbol)
            assert mult.shape == (128, 132) and not mult.flags.writeable
            assert not mult[:, 128:].any()

    @pytest.mark.parametrize("op", ["s1_apply", "solve_w"])
    def test_work_blocks_keep_zero_pad_columns(self, grid128, monkeypatch, op):
        # the products run on the blocks' flat memory; the pads must stay 0,
        # or solve_w's step norm, taken over the block, would read them
        blocks = []

        def recorded(n):
            view = padded_zeros(n)
            blocks.append(view.base)
            return view

        monkeypatch.setattr(cgo, "padded_zeros", recorded)
        V = (0.7 - 0.4j) * gaussian_bump(grid128, sigma=0.1, center=(0.05, 0.0))
        getattr(cgo, op)(V, PhaseParams(64.0, (0.02, -0.03)))
        assert len(blocks) >= 2
        for block in blocks:
            assert not block[:, 128:].any()

    @pytest.mark.parametrize("op", ["s1_apply", "s1_adjoint", "dz_inv", "dzbar_inv", "solve_w"])
    def test_operators_leave_their_input_unchanged(self, grid128, rng, op):
        # the operators transform work arrays in place; the caller's array is not one
        F = gaussian_bump(grid128, amp=0.5) * supported_noise(grid128, rng)
        before = F.values.copy()
        p = PhaseParams(64.0, (0.1, -0.05))
        args = (F,) if op in ("dz_inv", "dzbar_inv") else (F, p)
        getattr(cgo, op)(*args)
        assert np.array_equal(F.values, before)


class TestAliasMargin:
    @pytest.fixture(scope="class")
    def disk512(self):
        return rasterize(potential_from_description(PWC_DISK_POTENTIAL), FourierGrid(512, 4.0))

    @pytest.mark.parametrize("x, margin_lo, margin_hi, err_lo, err_hi", [
        # the ghost x - 0.785 e_1 lands 0.015 outside the disk
        ((0.47, 0.0), -0.1, -0.07, 0.3, np.inf),
        # only the diagonal ghost x - 0.785 (e_1 + e_2) reaches the disk
        ((0.6, 0.6), -0.1, -0.09, 0.5, np.inf),
        # every ghost clear
        ((0.35, 0.35), 0.1, 0.2, 0.0, 0.05),
    ])
    def test_margin_marks_the_probes_a_ghost_spoils(self, disk512, x, margin_lo, margin_hi,
                                                    err_lo, err_hi):
        # 1 + 0.5i disk of radius 0.3 at 512^2 of side 4, lam = 512: ghost spacing 0.785
        p = PhaseParams(512.0, x)
        assert margin_lo <= cgo.alias_margin(disk512, p) <= margin_hi
        err = abs(cgo.t_w_lambda(disk512, 1 + cgo.solve_w(disk512, p), p)) / abs(1 + 0.5j)
        assert err_lo <= err <= err_hi

    def test_margin_is_the_distance_to_the_nearest_ghost(self, rng):
        g = FourierGrid(64, 4.0)
        for _ in range(20):
            vals = np.zeros((64, 64), complex)
            i2, i1 = rng.integers(16, 48, 5), rng.integers(16, 48, 5)
            vals[i2, i1] = 1.0
            x = tuple(rng.uniform(-0.9, 0.9, 2))
            p = PhaseParams(rng.uniform(8.0, 64.0), x)
            s = np.pi * 64 / (p.lam * 4.0)
            k = np.arange(-8, 9)
            g1, g2 = (x[0] + s * k)[:, None], (x[1] + s * k)[None, :]
            brute = min(np.min(np.where((k[:, None] == 0) & (k[None, :] == 0), np.inf,
                                        np.hypot(g.z1[j1] - g1, g.z2[j2] - g2)))
                        for j1, j2 in zip(i1, i2))
            got = cgo.alias_margin(ComplexField(g, vals), p)
            assert got == pytest.approx(brute - cgo.ALIAS_CLEARANCE, abs=1e-12)

    def test_zero_potential_has_nothing_to_alias(self, grid128):
        assert cgo.alias_margin(ComplexField.zeros(grid128), PhaseParams(64.0, (0, 0))) == np.inf


class TestSolveW:
    def test_zero_potential_gives_zero(self, grid128):
        p = PhaseParams(16.0, (0.2, 0.1))
        w = cgo.solve_w(ComplexField.zeros(grid128), p)
        assert np.max(np.abs(w.values)) == 0.0

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

    def test_potential_in_the_padding_band_refused(self, grid128):
        V = gaussian_bump(grid128, amp=0.5)
        V.values[0, 64] = 1e-3
        with pytest.raises(SupportViolation, match="potential"):
            cgo.solve_w(V, PhaseParams(16.0, (0.0, 0.0)))

    def test_under_resolved_lambda_warns(self, grid128):
        # lam * side^2 / n^2 = 400 * 16 / 128^2 > 1/4
        V = gaussian_bump(grid128, amp=0.5)
        with pytest.warns(RuntimeWarning, match="under-resolved"):
            cgo.solve_w(V, PhaseParams(400.0, (0.0, 0.0)))

    def test_nonconvergence_reported(self, grid128):
        # huge potential at small lambda: the iteration cannot contract
        V = gaussian_bump(grid128, sigma=0.18, amp=500.0)
        with pytest.raises(NonConvergence):
            cgo.solve_w(V, PhaseParams(1.0, (0.0, 0.0)), max_iter=40)

    def test_non_finite_step_is_nonconvergence(self, grid128):
        # the first step's norm overflows; the loop must not go on with it
        V = gaussian_bump(grid128, amp=1e150)
        with np.errstate(over="ignore"), pytest.raises(NonConvergence, match="not finite"):
            cgo.solve_w(V, PhaseParams(1.0, (0.0, 0.0)))

    def test_zero_potential_runs_no_transform(self, grid128, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("transform called")

        monkeypatch.setattr(cgo, "fft2", refuse)
        monkeypatch.setattr(cgo, "ifft2", refuse)
        w = cgo.solve_w(ComplexField.zeros(grid128), PhaseParams(16.0, (0.2, 0.1)))
        assert np.max(np.abs(w.values)) == 0.0

    def test_second_solve_leaves_the_first_result_alone(self, grid128):
        V = gaussian_bump(grid128, sigma=0.1)
        w1 = cgo.solve_w(V, PhaseParams(32.0, (0.0, 0.0)))
        before = w1.values.copy()
        w2 = cgo.solve_w(V, PhaseParams(48.0, (0.05, 0.0)))
        assert not np.shares_memory(w1.values, w2.values)
        assert np.array_equal(w1.values, before)
        assert w1.values.flags.c_contiguous


class TestOscFunctional:
    def test_zero_cases(self, grid128):
        F = gaussian_bump(grid128)
        p = PhaseParams(12.0, (0.0, 0.0))
        assert cgo.t_w_lambda(F, ComplexField.zeros(grid128), p) == 0.0
        assert cgo.t_w_lambda(ComplexField.zeros(grid128), F, p) == 0.0

    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_box_sum_is_the_grid_sum(self, grid128, rng, shift):
        # F vanishes off a box away from the center: summing over the box alone
        # reorders the sum, so it agrees with the whole-grid quadrature to rounding
        mask = (np.abs(grid128.Z1 - 0.3) < 0.4) & (np.abs(grid128.Z2 + 0.2) < 0.25)
        F = ComplexField(grid128, supported_noise(grid128, rng).values * mask)
        w = supported_noise(grid128, rng)
        p = PhaseParams(20.0, (0.1, -0.05))
        phase = np.exp(1j * p.lam * phi_values(grid128, p.x))
        full = p.lam / np.pi * grid128.h**2 * np.sum(phase * F.values * (shift + w.values))
        assert cgo.t_w_lambda(F, w, p, shift=shift) == pytest.approx(full, rel=1e-13)

    def test_phase_is_built_on_the_box_only_and_never_warns(self, grid128, rng, monkeypatch):
        # rows 40..63 and columns 70..99 hold F; lam is far beyond the resolution limit
        vals = np.zeros((128, 128), dtype=complex)
        vals[40:64, 70:100] = supported_noise(grid128, rng).values[40:64, 70:100] + 1
        F = ComplexField(grid128, vals)
        lengths = []

        def counted(t, c, lam):
            lengths.append(len(t))
            return chirp(t, c, lam)

        chirp = cgo._chirp
        monkeypatch.setattr(cgo, "_chirp", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cgo.t_w_lambda(F, F, PhaseParams(1e6, (0.0, 0.0)))
        assert lengths == [24, 30]

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
        xi = (g.xi[j], g.xi[k])
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
    phase = (np.exp(-1j * p.lam * (g.z2 - p.x[1]) ** 2)[:, None]
             * np.exp(1j * p.lam * (g.z1 - p.x[0]) ** 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        m_z = 1.0 / (0.5j * (g.xi[None, :] - 1j * g.xi[:, None]))
        m_zbar = 1.0 / (0.5j * (g.xi[None, :] + 1j * g.xi[:, None]))
    nyq = g.n_per_side // 2
    for m in (m_z, m_zbar):
        m[0, 0] = 0.0
        m[nyq, :] = 0.0
        m[:, nyq] = 0.0
    inner = ifft2(fft2(phase * F.values) * m_z)
    return 0.25 * ifft2(fft2(np.conj(phase) * inner) * m_zbar)


def test_solve_w_is_the_field_picard_loop_bit_for_bit(grid128):
    # a complex, non-constant V: products with it round differently if the
    # operands of V (1 + w) are swapped
    V = (0.7 - 0.4j) * gaussian_bump(grid128, sigma=0.1, center=(0.05, 0.0)) \
        + 0.3j * gaussian_bump(grid128, sigma=0.07, center=(0.0, 0.1))
    p = PhaseParams(64.0, (0.02, -0.03))
    w = ComplexField.zeros(grid128)
    for _ in range(50):
        w_next = ComplexField(grid128, _s1_uncached(V * (1 + w), p))
        step = (w_next - w).l2_norm()
        w = w_next
        if step <= 1e-8:
            break
    assert np.array_equal(cgo.solve_w(V, p).values, w.values)


def _field_picard(V, p, tol=1e-8, max_iter=50):
    """w <- S1[V (1 + w)] on whole fields, stopped on the grid L^2 step."""
    w = ComplexField.zeros(V.grid)
    for _ in range(max_iter):
        w_next = ComplexField(V.grid, _s1_uncached(V * (1 + w), p))
        step = (w_next - w).l2_norm()
        w = w_next
        if step <= tol:
            return w
    raise AssertionError("field loop did not converge")


@pytest.mark.parametrize("rows, cols", [(slice(52, 71), slice(40, 90)),
                                        (slice(36, 92), slice(63, 66))],
                         ids=["horizontal-strip", "vertical-strip"])
def test_solve_w_on_a_strip_is_the_field_picard_loop_bit_for_bit(grid128, rng, rows, cols):
    # V vanishes off a box of a few rows or columns, so solve_w iterates on the
    # box and inverts only its rows until the last step
    vals = np.zeros((128, 128), complex)
    box = vals[rows, cols]
    box[...] = 0.4 * (rng.standard_normal(box.shape) + 1j * rng.standard_normal(box.shape))
    V = ComplexField(grid128, vals)
    p = PhaseParams(48.0, (0.03, -0.02))
    got = cgo.solve_w(V, p)
    assert np.array_equal(got.values, _field_picard(V, p).values)


class TestCaches:
    def test_s1_apply_never_serves_another_grid_or_phase(self, rng):
        # equal n, so only the grid object tells the cached multipliers apart
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
        # its own grid's multipliers from the shared cache, and its own phase
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
        # the multiplier cache is shared by the sweep threads of jobs > 1
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

    def test_convergence_threads_keep_their_phase(self, tmp_path, monkeypatch):
        # every call builds its own phase, so jobs=2 builds no more than jobs=1
        builds = []

        def counted(t, c, lam):
            builds.append(c)
            return chirp(t, c, lam)

        chirp = cgo._chirp
        monkeypatch.setattr(cgo, "_chirp", counted)
        params = {"variant": "pwc-disk", "lambdas": [24.0, 32.0, 48.0, 64.0],
                  "mask_grid": None}
        counts, outs = [], []
        for jobs in (1, 2):
            builds.clear()
            out = tmp_path / f"jobs{jobs}"
            run_convergence(ExperimentConfig(name="convergence", out_dir=str(out),
                                             grid_n=128, jobs=jobs, params=params))
            counts.append(len(builds))
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert 0 < counts[1] <= counts[0]
        assert outs[0] == outs[1]
