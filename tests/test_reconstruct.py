import numpy as np
import pytest

from cgoplane.cgo import PhaseParams, psi_values, solve_w
from cgoplane.dtn import BoundaryMesh, DtnMatrix, assemble_polar_operator, dtn_matrix
from cgoplane.errors import AmplificationExceeded, MeshMismatch, NonConvergence
from cgoplane.geometry import make_disk, make_rhombus
from cgoplane.grid import ComplexField, FourierGrid
from cgoplane.potentials import PiecewisePotential, rasterize
from cgoplane.reconstruct import (AMPLIFICATION_BUDGET, amplification_exponent,
                                  build_error_weight_map, bukhgeim_trace, error_map,
                                  lambda_sweep, reconstruct_boundary,
                                  reconstruct_interior)

from conftest import gaussian_bump


@pytest.fixture(scope="module")
def mesh():
    return BoundaryMesh(radius=1.0, n_nodes=128)


@pytest.fixture(scope="module")
def disk_setup(mesh):
    """Unit-disk bump potential with its DtN matrices and CGO grid."""
    sigma = 0.2
    vfun = lambda Z1, Z2: (np.exp(-(Z1**2 + Z2**2) / (2 * sigma**2))  # noqa: E731
                           * ((Z1**2 + Z2**2) <= 1.0))
    g = FourierGrid(256, 4.0)
    V = ComplexField.from_function(g, vfun)
    opV = assemble_polar_operator(vfun, mesh, n_r=160)
    op0 = assemble_polar_operator(None, mesh, n_r=160)
    A_V = dtn_matrix(None, mesh, op=opV, potential_tag="bump")
    A_0 = dtn_matrix(None, mesh, op=op0, potential_tag="zero")
    return {"V": V, "vfun": vfun, "A_V": A_V, "A_0": A_0, "grid": g}


class TestBukhgeimTrace:
    def test_zero_potential_gives_pure_phase(self, mesh):
        g = FourierGrid(128, 4.0)
        V = ComplexField.zeros(g)
        p = PhaseParams(9.0, (0.2, -0.1))
        tr = bukhgeim_trace(V, p, mesh)
        zeta = (mesh.nodes[:, 0] - 0.2) + 1j * (mesh.nodes[:, 1] + 0.1)
        expected = np.exp(1j * 9.0 * 0.5 * zeta**2)
        assert np.max(np.abs(tr - expected)) < 1e-12

    def test_phase_factor_is_one_at_x(self):
        # psi_x(x) = 0 makes the factor exactly one wherever z = x
        g = FourierGrid(128, 4.0)
        j, k = 70, 40
        x = (g.z1[j], g.z2[k])  # put x exactly on a node
        psi = psi_values(g, x)
        assert abs(np.exp(1j * 50.0 * psi[k, j]) - 1.0) < 1e-12

    def test_modulus_bound(self, disk_setup, mesh):
        p = PhaseParams(12.0, (0.1, 0.05))
        w = solve_w(disk_setup["V"], p)
        tr = bukhgeim_trace(disk_setup["V"], p, mesh, w=w)
        im_psi = (mesh.nodes[:, 0] - 0.1) * (mesh.nodes[:, 1] - 0.05)
        bound = np.exp(p.lam * np.max(np.abs(im_psi))) * (1 + w.max_abs())
        assert np.max(np.abs(tr)) <= bound * (1 + 1e-12)


class TestRoutes:
    def test_zero_potential_both_routes_zero(self, mesh):
        g = FourierGrid(128, 4.0)
        V = ComplexField.zeros(g)
        op0 = assemble_polar_operator(None, mesh, n_r=96)
        A0a = dtn_matrix(None, mesh, op=op0, potential_tag="zero")
        A0b = dtn_matrix(None, mesh, op=op0, potential_tag="zero")
        for lam in (6.0, 12.0):
            p = PhaseParams(lam, (0.15, -0.3))
            assert reconstruct_interior(V, p) == 0.0
            assert abs(reconstruct_boundary(A0a, A0b, V, p)) < 1e-12

    def test_linearity_in_dtn_perturbation(self, disk_setup):
        p = PhaseParams(8.0, (0.1, -0.07))
        A_V, A_0 = disk_setup["A_V"], disk_setup["A_0"]
        v1 = reconstruct_boundary(A_V, A_0, disk_setup["V"], p)
        doubled = DtnMatrix(A_0.entries + 2 * (A_V.entries - A_0.entries),
                            A_V.mesh, "doubled")
        v2 = reconstruct_boundary(doubled, A_0, disk_setup["V"], p)
        assert abs(v2 - 2 * v1) / abs(v1) < 1e-10

    def test_route_agreement_in_valid_window(self, disk_setup):
        # boundary-data errors amplify like e^{lam osc(Im psi)}; the window
        # lam <~ 16 on the unit disk keeps both routes together
        for lam in (8.0, 16.0):
            p = PhaseParams(lam, (0.1, -0.07))
            w = solve_w(disk_setup["V"], p)
            vb = reconstruct_boundary(disk_setup["A_V"], disk_setup["A_0"],
                                      disk_setup["V"], p, w=w)
            vi = reconstruct_interior(disk_setup["V"], p, w=w)
            assert abs(vb - vi) / abs(vi) < 0.02

    def test_interior_converges_to_truth(self, disk_setup):
        truth = disk_setup["vfun"](0.1, -0.07)
        errs = []
        for lam in (64.0, 128.0, 256.0):
            p = PhaseParams(lam, (0.1, -0.07))
            errs.append(abs(reconstruct_interior(disk_setup["V"], p) - truth))
        assert errs[-1] < errs[0]
        assert errs[-1] / abs(truth) < 0.05

    def test_mesh_mismatch_raised(self, disk_setup):
        other = BoundaryMesh(radius=0.9, n_nodes=128)
        B = dtn_matrix(None, other, n_r=96, potential_tag="zero")
        p = PhaseParams(8.0, (0.0, 0.0))
        with pytest.raises(MeshMismatch):
            reconstruct_boundary(disk_setup["A_V"], B, disk_setup["V"], p)

    def test_refused_above_amplification_budget(self, disk_setup):
        # at x = 0 on the unit circle osc(Im psi) = 1, so the exponent is lam
        A_V, A_0, V = disk_setup["A_V"], disk_setup["A_0"], disk_setup["V"]
        value = reconstruct_boundary(A_V, A_0, V, PhaseParams(16.0, (0.0, 0.0)))
        assert np.isfinite(value)
        with pytest.raises(AmplificationExceeded) as info:
            reconstruct_boundary(A_V, A_0, V, PhaseParams(32.0, (0.0, 0.0)))
        assert info.value.exponent == pytest.approx(32.0)
        assert info.value.budget == AMPLIFICATION_BUDGET

    def test_mesh_mismatch_checked_before_amplification(self, disk_setup):
        other = BoundaryMesh(radius=0.9, n_nodes=128)
        B = dtn_matrix(None, other, n_r=96, potential_tag="zero")
        p = PhaseParams(512.0, (0.0, 0.0))
        with pytest.raises(MeshMismatch):
            reconstruct_boundary(disk_setup["A_V"], B, disk_setup["V"], p)

    def test_conjugation_symmetry(self, disk_setup):
        # reconstructing conj(V) equals the conjugate of the mirrored-phase
        # functional of V (phases and Wirtinger inverses swapped)
        from cgoplane import cgo

        V = (1.0 + 0.7j) * disk_setup["V"]
        p = PhaseParams(24.0, (0.05, 0.1))
        standard = reconstruct_interior(V.conj(), p, w=solve_w(V.conj(), p))

        # mirrored machinery applied to V itself
        g = V.grid
        w = ComplexField.zeros(g)
        for _ in range(200):
            inner = cgo.dzbar_inv(cgo.phase_mul(V * (1 + w), p, -1), check_support=False)
            w_next = 0.25 * cgo.dz_inv(cgo.phase_mul(inner, p, +1), check_support=False)
            step = (w_next - w).l2_norm()
            w = w_next
            if step <= 1e-10:
                break
        phase = np.exp(-1j * p.lam * cgo.phi_values(g, p.x))
        mirrored = complex(p.lam / np.pi * g.h**2
                           * np.sum(phase * V.values * (1 + w.values)))
        assert abs(standard - np.conj(mirrored)) / abs(standard) < 1e-9


class TestAmplificationExponent:
    def test_matches_oscillation_of_im_psi(self, mesh):
        x = (0.15, -0.07)
        im_psi = (mesh.nodes[:, 0] - x[0]) * (mesh.nodes[:, 1] - x[1])
        for lam in (3.0, 16.0, 512.0):
            got = amplification_exponent(mesh, PhaseParams(lam, x))
            assert got == pytest.approx(lam * (im_psi.max() - im_psi.min()), rel=1e-14)
            assert np.isfinite(got)


class TestLambdaSweep:
    def test_zero_potential(self):
        g = FourierGrid(128, 4.0)
        V = ComplexField.zeros(g)
        res = lambda_sweep(V, (0.1, 0.1), [4.0, 6.0, 8.0, 10.0])
        assert res.limit == 0.0
        assert all(s.value_interior == 0.0 for s in res.samples)
        assert res.failures == ()

    def test_requires_increasing(self):
        g = FourierGrid(128, 4.0)
        with pytest.raises(ValueError):
            lambda_sweep(ComplexField.zeros(g), (0.0, 0.0), [8.0, 4.0])

    def test_constant_disk_limit(self):
        g = FourierGrid(512, 4.0)
        disk = make_disk(radius=0.3)
        c = 1.0
        q = lambda q1, q2: np.full(np.broadcast(np.asarray(q1), np.asarray(q2)).shape,  # noqa: E731
                                   c, dtype=complex)
        V = rasterize(PiecewisePotential(pieces=((q, disk),), s=2.5, r=0.3), g)
        res = lambda_sweep(V, (0.1, 0.05), [64.0, 128.0, 192.0, 256.0], truth=c)
        assert abs(res.limit - c) / abs(c) < 0.10

    def test_dispersion_shrinks_when_lambda_doubles(self):
        g = FourierGrid(512, 4.0)
        disk = make_disk(radius=0.3)
        q = lambda q1, q2: np.full(np.broadcast(np.asarray(q1), np.asarray(q2)).shape,  # noqa: E731
                                   1.0, dtype=complex)
        V = rasterize(PiecewisePotential(pieces=((q, disk),), s=2.5, r=0.3), g)
        res1 = lambda_sweep(V, (0.1, 0.0), [64.0, 96.0, 128.0])
        res2 = lambda_sweep(V, (0.1, 0.0), [128.0, 192.0, 256.0])
        assert res2.dispersion < res1.dispersion

    def test_refused_lambdas_keep_interior_sample(self, disk_setup):
        res = lambda_sweep(disk_setup["V"], (0.0, 0.0), [8.0, 64.0],
                           dtn_pair=(disk_setup["A_V"], disk_setup["A_0"]))
        assert [s.lam for s in res.samples] == [8.0, 64.0]
        assert res.samples[0].value_boundary is not None
        assert res.samples[1].value_boundary is None
        assert all(s.value_interior is not None for s in res.samples)
        assert res.refused == (64.0,)
        assert res.failures == ()

    def test_nonconvergent_lambdas_recorded(self):
        g = FourierGrid(128, 4.0)
        V = gaussian_bump(g, sigma=0.18, amp=500.0)
        res = lambda_sweep(V, (0.0, 0.0), [2.0, 1000.0])
        assert 2.0 in res.failures
        assert len(res.samples) == 1


class TestErrorMap:
    def test_zero_potential_zero_map(self):
        g = FourierGrid(128, 4.0)
        V = ComplexField.zeros(g)
        disk = make_disk(radius=0.3)
        xs = np.array([[0.0, 0.0], [0.5, 0.5]])
        wm = build_error_weight_map(xs, [disk.boundary], exclusion_band=2 * g.h)
        res = error_map(V, lambda x1, x2: np.zeros_like(x1, dtype=complex),
                        12.0, xs, wm)
        ok = ~res.excluded
        assert np.all(res.errors[ok] == 0.0)

    def test_exclusions_are_reported_not_fatal(self):
        g = FourierGrid(128, 4.0)
        disk = make_disk(radius=0.3)
        xs = np.array([[0.0, 0.3], [0.0, 0.0]])  # first point sits on the curve
        wm = build_error_weight_map(xs, [disk.boundary], exclusion_band=2 * g.h)
        assert wm.near_curve_mask[0]
        V = ComplexField.zeros(g)
        res = error_map(V, lambda x1, x2: np.zeros_like(x1, dtype=complex), 8.0, xs, wm)
        assert np.isnan(res.errors[0])
        assert res.errors[1] == 0.0

    def test_degenerate_mask_on_caustic(self):
        disk = make_disk(radius=0.3)
        xs = np.array([[0.0, 0.6], [0.0, 0.0]])  # (0, 2a) is on the caustic
        wm = build_error_weight_map(xs, [disk.boundary], exclusion_band=0.01)
        assert wm.degenerate_mask[0]
        assert not wm.degenerate_mask[1]
        assert np.isinf(wm.weights[0])

    def test_rhombus_diagonal_failure_dominates(self):
        # recovery fails on the diagonal: interior values stay O(log) there,
        # while points at comparable distance from the support converge to
        # zero, provided they keep a margin from all four flat-phase lines
        # x2 = x1, x1 + x2 = 0, x1 + x2 = 2, x2 = x1 - 2 of the slope-+-1 sides
        g = FourierGrid(512, 8.0, center=(0.0, 8.0 / 512 / 2))
        rh = make_rhombus()
        q = lambda q1, q2: np.full(np.broadcast(np.asarray(q1), np.asarray(q2)).shape,  # noqa: E731
                                   1.0, dtype=complex)
        V = rasterize(PiecewisePotential(pieces=((q, rh),), s=2.5, r=0.3), g)
        lams = [36.0, 40.0, 44.0]

        def sweep_mean(x):
            return abs(np.mean([reconstruct_interior(V, PhaseParams(l, x))
                                for l in lams]))

        diag_errs = [sweep_mean((-t, -t)) for t in (0.8, 1.0, 1.2)]
        # same distances from the support, below the bottom vertex
        generic_errs = [sweep_mean((1.0, -2.0 - d)) for d in (0.13, 0.41, 0.70)]
        assert min(diag_errs) > 10 * np.median(generic_errs)
