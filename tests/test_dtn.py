import shutil

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from cgoplane import dtn
from cgoplane.dtn import (BoundaryMesh, _condition_guard, _energy_apply, _interior_solve,
                          _inverse_norm1_estimate, assemble_polar_operator, cache_key, dtn_matrix, dtn_matrix_cached,
                          dtn_opnorm_diff, h1_norm, load_dtn, save_dtn, solve_dirichlet)
from cgoplane.errors import BlobFormatError, DomainError, MeshMismatch, NearSingular
from cgoplane.grid import ComplexField, FourierGrid
from cgoplane.utils import read_blob, write_blob


def bump_potential(amp=1.0, sigma=0.25):
    return lambda Z1, Z2: amp * np.exp(-(np.asarray(Z1)**2 + np.asarray(Z2)**2)
                                       / (2 * sigma**2))


def dense_energy(op):
    """The energy matrix A as the columns of _energy_apply on the identity (small grids only)."""
    assert op.n_dof <= 2049
    return np.column_stack([_energy_apply(op, e) for e in np.eye(op.n_dof)])


@pytest.fixture(scope="module")
def mesh():
    return BoundaryMesh(radius=1.0, n_nodes=128)


@pytest.fixture(scope="module")
def op0(mesh):
    return assemble_polar_operator(None, mesh, n_r=160)


@pytest.fixture(scope="module")
def opV(mesh):
    return assemble_polar_operator(bump_potential(), mesh, n_r=160)


class TestBoundaryMesh:
    def test_minimum_node_count(self):
        with pytest.raises(ValueError):
            BoundaryMesh(n_nodes=32)

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_non_finite_radius_refused(self, radius):
        with pytest.raises(DomainError, match="finite"):
            BoundaryMesh(radius=radius)

    def test_weights_sum_to_length(self, mesh):
        assert abs(mesh.arc_weights.sum() - 2 * np.pi) / (2 * np.pi) < 1e-3

    def test_hash_distinguishes(self, mesh):
        other = BoundaryMesh(radius=0.9, n_nodes=128)
        assert mesh.mesh_hash() != other.mesh_hash()


class TestStencil:
    """The properties of the polar energy stencil that the elimination relies on."""

    @pytest.mark.parametrize("n_r", [0, 1])
    def test_too_few_rings_refused(self, n_r):
        with pytest.raises(DomainError):
            assemble_polar_operator(None, BoundaryMesh(n_nodes=64), n_r=n_r)

    def test_complex_symmetric(self, rng):
        op = assemble_polar_operator(bump_potential(2.0 - 1.5j), BoundaryMesh(n_nodes=64), n_r=16)
        u, v = rng.standard_normal((2, op.n_dof)) + 1j * rng.standard_normal((2, op.n_dof))
        lhs, rhs = u @ _energy_apply(op, v), v @ _energy_apply(op, u)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_rows_sum_to_zero_without_potential(self, op0):
        assert np.max(np.abs(_energy_apply(op0, np.ones(op0.n_dof)))) <= 1e-12 * np.abs(op0.diag).max()


class TestSolveDirichlet:
    def test_constant_data_exact(self, op0):
        u = solve_dirichlet(op0, np.ones(128, dtype=complex))
        assert np.max(np.abs(u - 1.0)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_harmonic_extension(self, mesh, op0, n):
        f = np.cos(n * mesh.theta).astype(complex)
        u = solve_dirichlet(op0, f)
        # the center dof, then rings 1..n_r
        values = np.vstack([np.full((1, 128), u[-1]), u[:-1].reshape(op0.n_r, 128)])
        r = np.arange(op0.n_r + 1) / op0.n_r
        exact = (r[:, None] ** n) * np.cos(n * mesh.theta)[None, :]
        assert np.max(np.abs(values - exact)) < 0.02

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_h1_norm_of_harmonic_extension(self, mesh, op0, n):
        # u = r^n cos(n theta): Dirichlet energy n pi plus L^2 mass pi / (2n + 2)
        u = solve_dirichlet(op0, np.cos(n * mesh.theta).astype(complex))
        exact = np.sqrt(n * np.pi + np.pi / (2 * n + 2))
        assert abs(h1_norm(op0, u) - exact) / exact < 2e-3

    def test_linearity(self, opV, rng):
        f1 = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        f2 = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        a, b = 1.7 - 0.3j, -0.4 + 0.9j
        lhs = solve_dirichlet(opV, a * f1 + b * f2)
        rhs = a * solve_dirichlet(opV, f1) + b * solve_dirichlet(opV, f2)
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)) < 1e-10

    def test_discrete_equation_satisfied(self, opV, rng):
        # energy gradient (the 5-point polar scheme) vanishes at interior dofs
        f = rng.standard_normal(128) + 0j
        u = solve_dirichlet(opV, f)
        resid = _energy_apply(opV, u)
        interior_resid = np.max(np.abs(resid[opV.interior_idx]))
        assert interior_resid < 1e-9 * np.max(np.abs(u))


class TestDtnMatrix:
    def test_complex_symmetry(self, mesh):
        A = dtn_matrix(bump_potential(), mesh, n_r=160, potential_tag="bump")
        assert A.symmetry_defect() <= 1e-6

    def test_disk_fourier_eigenvalues(self, mesh):
        A0 = dtn_matrix(None, mesh, n_r=160, potential_tag="zero")
        eigs = np.fft.fft(A0.entries[:, 0]).real
        freqs = np.fft.fftfreq(128, d=1.0 / 128).astype(int)
        for n in range(1, 9):
            lam_n = eigs[freqs == n][0]
            assert abs(lam_n - n) / n < 0.05
        assert abs(eigs[freqs == 0][0]) < 0.05

    def test_extension_independence(self, mesh, opV, rng):
        # pairing with the solved extension vs a different interior extension
        A = dtn_matrix(bump_potential(), mesh, n_r=160, potential_tag="bump")
        f = np.exp(1j * 3 * mesh.theta)
        g = np.exp(-1j * 3 * mesh.theta) + 0.5 * np.cos(mesh.theta)
        # the boundary pairing int (Dtn f) g with the mesh arc weights (no conjugation)
        pair_matrix = complex(np.sum(mesh.arc_weights * (A.entries @ f) * g))
        u = solve_dirichlet(opV, f)
        # extension of g: solve with the *zero* potential operator (different
        # interior values, same trace)
        op0b = assemble_polar_operator(None, mesh, n_r=opV.n_r)
        v = solve_dirichlet(op0b, g)
        pair_weak = complex(u @ _energy_apply(opV, v))
        assert abs(pair_matrix - pair_weak) / abs(pair_matrix) < 1e-6

    def test_alessandrini_identity(self, mesh, opV, op0):
        # <(Lam_V - Lam_0) f1, f2> = int (V - 0) u1 u2 with a nonzero pairing
        AV = dtn_matrix(bump_potential(), mesh, n_r=160, potential_tag="bump")
        A0 = dtn_matrix(None, mesh, n_r=160, potential_tag="zero")
        f1 = np.exp(1j * 2 * mesh.theta)
        f2 = np.exp(-1j * 2 * mesh.theta)
        lhs = complex(np.sum(mesh.arc_weights * ((AV.entries - A0.entries) @ f1) * f2))
        u1 = solve_dirichlet(opV, f1)
        u2 = solve_dirichlet(op0, f2)
        rhs = complex(np.sum(u1 * u2 * opV.potential * opV.node_weight))
        assert abs(lhs - rhs) / abs(rhs) < 0.01

    def test_continuity_in_potential(self, mesh):
        # || Dtn(V + delta) - Dtn(V) || shrinks linearly in ||delta||_inf
        base = dtn_matrix(bump_potential(1.0), mesh, n_r=96, potential_tag="b")
        gaps = []
        for d in (1e-1, 1e-2, 1e-3):
            pert = dtn_matrix(bump_potential(1.0 + d), mesh, n_r=96, potential_tag="p")
            gaps.append(np.linalg.norm(pert.entries - base.entries))
        assert gaps[0] > gaps[1] > gaps[2]
        ratios = [gaps[0] / gaps[1], gaps[1] / gaps[2]]
        for r in ratios:
            assert 5 < r < 20  # linear scaling in the perturbation size


class TestOpnormDiff:
    def test_zero_for_equal(self, mesh):
        A = dtn_matrix(None, mesh, n_r=160, potential_tag="zero")
        B = dtn_matrix(None, mesh, n_r=160, potential_tag="zero")
        assert dtn_opnorm_diff(A, B) == 0.0

    def test_identity_perturbation_weights(self, mesh):
        A = dtn_matrix(None, mesh, n_r=160, potential_tag="zero")
        eps = 1e-3
        from cgoplane.dtn import DtnMatrix
        B = DtnMatrix(A.entries + eps * np.eye(128), mesh, "pert", A.n_r)
        # eps * max_n (1+n^2)^{-1/2} = eps at the constant mode
        assert abs(dtn_opnorm_diff(A, B) - eps) < 1e-12

    def test_high_modes_weigh_less(self, mesh):
        A = dtn_matrix(None, mesh, n_r=160, potential_tag="zero")
        from cgoplane.dtn import DtnMatrix
        ns = mesh.fourier_n
        dft = np.fft.fft(np.eye(128), axis=0) / np.sqrt(128)
        lo = np.zeros((128, 128), dtype=complex)
        hi = np.zeros((128, 128), dtype=complex)
        lo[ns == 1, ns == 1] = 1e-3
        hi[ns == 20, ns == 20] = 1e-3
        to_nodal = lambda d: dft.conj().T @ d @ dft  # noqa: E731
        g_lo = dtn_opnorm_diff(A, DtnMatrix(A.entries + to_nodal(lo), mesh, "lo", A.n_r))
        g_hi = dtn_opnorm_diff(A, DtnMatrix(A.entries + to_nodal(hi), mesh, "hi", A.n_r))
        assert g_hi < g_lo

    def test_mesh_mismatch(self, mesh):
        A = dtn_matrix(None, mesh, n_r=160, potential_tag="zero")
        other = BoundaryMesh(radius=0.9, n_nodes=128)
        B = dtn_matrix(None, other, n_r=96, potential_tag="zero")
        with pytest.raises(MeshMismatch):
            dtn_opnorm_diff(A, B)


class TestCache:
    def test_blob_roundtrip(self, tmp_path, mesh):
        A = dtn_matrix(None, mesh, n_r=160, potential_tag="zero")
        path = tmp_path / "a.dtn"
        save_dtn(path, A)
        B = load_dtn(path)
        assert np.array_equal(A.entries, B.entries)
        assert B.mesh.same_as(mesh)
        assert B.potential_tag == "zero"

    def test_damaged_blob_rejected(self, tmp_path, mesh):
        path = tmp_path / "a.dtn"
        save_dtn(path, dtn_matrix(None, mesh, n_r=160, potential_tag="zero"))
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])
        with pytest.raises(BlobFormatError):
            load_dtn(path)
        path.write_bytes(b"NOTADTN1" + raw[8:])
        with pytest.raises(BlobFormatError):
            load_dtn(path)
        assert [p.name for p in tmp_path.iterdir()] == ["a.dtn"]  # no temp file left

    def test_cached_matches_uncached(self, tmp_path, mesh):
        v = bump_potential(0.7)
        direct = dtn_matrix(v, mesh, n_r=96, potential_tag="t")
        c1 = dtn_matrix_cached(tmp_path, "hash1", v, mesh, n_r=96, potential_tag="t")
        c2 = dtn_matrix_cached(tmp_path, "hash1", v, mesh, n_r=96, potential_tag="t")
        assert np.max(np.abs(c1.entries - direct.entries)) < 1e-12
        assert np.array_equal(c1.entries, c2.entries)  # second call reads the blob
        assert len(list(tmp_path.glob("*.dtn"))) == 1

    def test_blob_at_another_mesh_key_refused(self, tmp_path):
        small = BoundaryMesh(radius=1.0, n_nodes=64)
        dtn_matrix_cached(tmp_path, "h", None, small, n_r=16, potential_tag="zero")
        path = tmp_path / (cache_key("h", small, 16) + ".dtn")
        assert "version" in read_blob(path, b"DTNBLOB1")[0]
        for other, n_r in ((BoundaryMesh(radius=0.9, n_nodes=64), 16), (small, 24)):
            shutil.copy(path, tmp_path / (cache_key("h", other, n_r) + ".dtn"))
            with pytest.raises(MeshMismatch):
                dtn_matrix_cached(tmp_path, "h", None, other, n_r=n_r, potential_tag="zero")
        # a blob for another potential under the requested key
        with pytest.raises(MeshMismatch):
            dtn_matrix_cached(tmp_path, "h", None, small, n_r=16, potential_tag="bump")
        # a blob written at another discretization version under the requested key
        header, entries = read_blob(path, b"DTNBLOB1")
        write_blob(path, b"DTNBLOB1", {**header, "version": header["version"] - 1}, entries)
        with pytest.raises(BlobFormatError, match="version"):
            dtn_matrix_cached(tmp_path, "h", None, small, n_r=16, potential_tag="zero")

    @pytest.mark.parametrize("damage", ["mesh-of-128-nodes", "no-mesh"])
    def test_unreadable_header_refused(self, tmp_path, damage):
        # a current-version blob under its own key whose header does not
        # describe its 64 x 64 entries
        small = BoundaryMesh(radius=1.0, n_nodes=64)
        dtn_matrix_cached(tmp_path, "h", None, small, n_r=16, potential_tag="zero")
        path = tmp_path / (cache_key("h", small, 16) + ".dtn")
        header, entries = read_blob(path, b"DTNBLOB1")
        if damage == "no-mesh":
            del header["mesh"]
        else:
            header["mesh"]["n_nodes"] = 128
        write_blob(path, b"DTNBLOB1", header, entries)
        with pytest.raises(BlobFormatError, match="header"):
            load_dtn(path)
        with pytest.raises(BlobFormatError, match="header"):
            dtn_matrix_cached(tmp_path, "h", None, small, n_r=16, potential_tag="zero")


class TestSingularityGuard:
    """V = -mu_1 makes 0 the smallest discrete Dirichlet eigenvalue of the interior block."""

    @pytest.fixture(scope="class")
    def mu1(self):
        op = assemble_polar_operator(None, BoundaryMesh(n_nodes=64), n_r=32)
        idx = op.interior_idx
        lap = dense_energy(op)[np.ix_(idx, idx)].real
        weights = np.diag(op.node_weight[idx])
        return sla.eigh(lap, weights, eigvals_only=True, subset_by_index=[0, 0])[0]

    @staticmethod
    def constant(value):
        return lambda Z1, Z2: np.full(np.shape(Z1), value)

    def test_dirichlet_eigenvalue_refused(self, mu1):
        with pytest.raises(NearSingular):
            assemble_polar_operator(self.constant(-mu1), BoundaryMesh(n_nodes=64), n_r=32)

    @pytest.mark.parametrize("shift", [-1e-3, 1e-3])
    def test_shifted_eigenvalue_passes(self, mu1, shift):
        op = assemble_polar_operator(self.constant(-(mu1 + shift)), BoundaryMesh(n_nodes=64),
                                     n_r=32)
        assert len(op.core) == 31 and len(op.ring_solves) == 0  # the guard ran per mode

    def test_guard_is_deterministic(self):
        # the 1-norm estimate draws nothing from NumPy's global random stream
        V = bump_potential(2.0 - 1.5j)
        saved = np.random.get_state()
        try:
            np.random.seed(0)
            first = assemble_polar_operator(V, BoundaryMesh(n_nodes=64), n_r=16)
            assert np.random.rand() == 0.5488135039273248
        finally:
            np.random.set_state(saved)
        second = assemble_polar_operator(V, BoundaryMesh(n_nodes=64), n_r=16)
        assert _condition_guard(first) == _condition_guard(second)


class TestNonFinitePotential:
    """A NaN or infinite polar sample is refused before any elimination."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                             ids=["nan", "inf", "imag-inf"])
    def test_non_finite_samples_refused(self, bad, monkeypatch):
        def eliminated(*args, **kwargs):
            raise AssertionError("elimination ran on a non-finite potential")

        monkeypatch.setattr(dtn, "_eliminate_annulus", eliminated)
        V = lambda Z1, Z2: np.where(Z1**2 + Z2**2 < 0.25, bad, 0.0)  # noqa: E731
        with pytest.raises(DomainError, match="not finite"):
            assemble_polar_operator(V, BoundaryMesh(n_nodes=64), n_r=16)

    def test_nan_condition_estimate_refused(self, monkeypatch):
        # NaN > limit is False: the guard must not read a NaN as well conditioned
        monkeypatch.setattr(dtn, "_inverse_norm1_estimate", lambda op: np.nan)
        with pytest.raises(NearSingular, match="nan"):
            assemble_polar_operator(bump_potential(), BoundaryMesh(n_nodes=64), n_r=16)


class TestAnnulusSingularityGuard:
    """V = -mu_1 chi_{r <= 1/2} makes 0 a Dirichlet eigenvalue; the annulus r > 1/2 is V-free."""

    @staticmethod
    def potential(mu):
        return lambda Z1, Z2: np.where(Z1**2 + Z2**2 <= 0.25, -mu, 0.0)

    @pytest.fixture(scope="class")
    def mu1(self):
        # 0 = min eig of L - mu W_chi: the largest eigenvalue 1/mu of W_chi x = nu L x
        op = assemble_polar_operator(self.potential(-1.0), BoundaryMesh(n_nodes=64), n_r=32)
        assert op.annulus is not None
        idx = op.interior_idx
        w_chi = op.potential[idx].real * op.node_weight[idx]
        lap = dense_energy(op)[np.ix_(idx, idx)].real - np.diag(w_chi)
        n = len(idx)
        return 1.0 / sla.eigh(np.diag(w_chi), lap, eigvals_only=True,
                              subset_by_index=[n - 1, n - 1])[0]

    def test_dirichlet_eigenvalue_refused(self, mu1):
        with pytest.raises(NearSingular):
            assemble_polar_operator(self.potential(mu1), BoundaryMesh(n_nodes=64), n_r=32)

    @pytest.mark.parametrize("shift", [-1e-3, 1e-3])
    def test_shifted_eigenvalue_passes(self, mu1, shift):
        op = assemble_polar_operator(self.potential(mu1 + shift), BoundaryMesh(n_nodes=64),
                                     n_r=32)
        assert op.annulus is not None
        assert len(op.core) == op.v_ring - 1 and len(op.ring_solves) == 0


class TestInverseNormEstimate:
    """The guard's estimate of ||A_II^{-1}||_1 against the norm of a dense inverse."""

    POTENTIALS = {
        "gaussian": lambda Z1, Z2: (2.0 - 1.5j) * np.exp(-((Z1 - 0.2)**2 + Z2**2) / 0.1),
        "disk": lambda Z1, Z2: np.where(Z1**2 + Z2**2 <= 0.25, 3.0 + 1.0j, 0.0),
        "zero": None,
    }

    @pytest.mark.parametrize("n_r", [16, 32])
    @pytest.mark.parametrize("name", list(POTENTIALS))
    def test_estimate_meets_the_exact_norm(self, name, n_r):
        op = assemble_polar_operator(self.POTENTIALS[name], BoundaryMesh(n_nodes=64), n_r=n_r)
        assert (op.annulus is None) == (name == "gaussian")  # both elimination paths
        a_ii = dense_energy(op)[np.ix_(op.interior_idx, op.interior_idx)]
        exact = np.abs(np.linalg.inv(a_ii)).sum(axis=0).max()
        estimate = _inverse_norm1_estimate(op)
        assert 0.99 <= estimate / exact <= 1 + 1e-10
        # the guard's closed-form ||A_II||_1 against the dense column sums
        assert _condition_guard(op) / estimate == pytest.approx(
            np.abs(a_ii).sum(axis=0).max(), rel=1e-13)


def _dense_defects(V, op, rng):
    """Relative defects of V's DtN, solve_dirichlet and _interior_solve (center load
    included) on V's operator op against dense solves of the energy, and the DtN's
    symmetry defect."""
    mesh = op.mesh
    m = mesh.n_nodes
    energy = dense_energy(op)
    a_ii = energy[np.ix_(op.interior_idx, op.interior_idx)]
    a_ib = energy[np.ix_(op.interior_idx, op.boundary_idx)]
    rel = lambda got, want: np.linalg.norm(got - want) / np.linalg.norm(want)  # noqa: E731
    full = np.zeros((op.n_dof, m), dtype=complex)
    full[op.interior_idx] = np.linalg.solve(a_ii, -a_ib)
    full[op.boundary_idx] = np.eye(m)
    gram = full.T @ energy @ full / mesh.arc_weights[0]
    dtn = dtn_matrix(V, mesh, n_r=op.n_r)
    f = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    sol = solve_dirichlet(op, f)[op.interior_idx]
    b = rng.standard_normal(a_ii.shape[0]) + 1j * rng.standard_normal(a_ii.shape[0])
    return {"dtn": rel(dtn.entries, gram), "dirichlet": rel(sol, np.linalg.solve(a_ii, -a_ib @ f)),
            "interior": rel(_interior_solve(op, b), np.linalg.solve(a_ii, b)),
            "symmetry": dtn.symmetry_defect()}


class TestDenseOracle:
    """Ring elimination against a dense interior solve of the energy."""

    @pytest.fixture(scope="class")
    def defects(self):
        V = lambda Z1, Z2: (2.0 - 1.5j) * np.exp(-((Z1 - 0.2)**2 + Z2**2) / 0.1)  # noqa: E731
        op = assemble_polar_operator(V, BoundaryMesh(n_nodes=64), n_r=16)
        assert op.annulus is None
        return _dense_defects(V, op, np.random.default_rng(20240811))

    def test_dtn_is_the_gram_of_solved_hat_columns(self, defects):
        assert defects["dtn"] <= 1e-12

    def test_dirichlet_solve(self, defects):
        assert defects["dirichlet"] <= 1e-12

    def test_interior_sweep_with_center_load(self, defects):
        # the condition guard applies the sweep to vectors loading every interior dof
        assert defects["interior"] <= 1e-12


def _disk_supported(rho):
    """A complex potential that vanishes outside the disk r <= rho."""
    return lambda Z1, Z2: (2.0 - 1.5j) * (1 + 0.5 * Z1) * (Z1**2 + Z2**2 <= rho**2)


class TestAnnulusOracle:
    """The Fourier-mode elimination of the V-free annulus against dense solves
    (m = 64, n_r = 16)."""

    POTENTIALS = {
        "zero": None,
        "boundary_ring": lambda Z1, Z2: np.where(Z1**2 + Z2**2 > 0.99, 1.5 - 0.5j, 0.0),
        "half_disk": _disk_supported(0.5),
    }

    @pytest.fixture(scope="class", params=sorted(POTENTIALS))
    def defects(self, request):
        V = self.POTENTIALS[request.param]
        op = assemble_polar_operator(V, BoundaryMesh(n_nodes=64), n_r=16)
        assert op.annulus is not None
        return _dense_defects(V, op, np.random.default_rng(7))

    @pytest.mark.parametrize("what", ["dtn", "dirichlet", "interior", "symmetry"])
    def test_matches_dense(self, defects, what):
        assert defects[what] <= 1e-12

    def test_stores_the_ring_solves_the_potential_needs(self):
        mesh = BoundaryMesh(n_nodes=64)
        inner = assemble_polar_operator(_disk_supported(0.5), mesh, n_r=16)
        assert len(inner.ring_solves) < 15
        full = assemble_polar_operator(bump_potential(), mesh, n_r=16)
        assert full.v_ring == 15 and full.annulus is None
        assert len(full.core) == 0 and len(full.ring_solves) == 15
        # V constant around every ring it reaches: the core takes them all
        disk = assemble_polar_operator(_centered_disk(0.5), mesh, n_r=16)
        assert len(disk.core) == disk.v_ring - 1 and len(disk.ring_solves) == 0
        # a constant core inside a band where V varies around the rings
        lens = assemble_polar_operator(_lens_like, mesh, n_r=16)
        assert len(lens.core) == 4 and lens.v_ring == 9
        assert len(lens.ring_solves) == lens.v_ring - 1 - len(lens.core)


@settings(max_examples=15, deadline=None)
@given(ring=st.integers(0, 15), frac=st.floats(0.05, 0.95))
def test_annulus_matches_dense_for_any_support_radius(ring, frac):
    # the support ends between ring `ring` and the next, so k = max(ring, 1)
    V = _disk_supported((ring + frac) / 16)
    op = assemble_polar_operator(V, BoundaryMesh(n_nodes=64), n_r=16)
    assert op.v_ring == max(ring, 1)
    defects = _dense_defects(V, op, np.random.default_rng(ring))
    assert max(defects.values()) <= 1e-12, defects


def _centered_disk(rho):
    """A constant complex potential on the disk r <= rho about the mesh center."""
    return lambda Z1, Z2: np.where(Z1**2 + Z2**2 <= rho**2, 3.0 + 1.0j, 0.0)


def _lens_like(Z1, Z2):
    """Constant for r <= 0.3, varying around the rings for 0.3 < r <= 0.6, then zero."""
    r2 = Z1**2 + Z2**2
    return np.where(r2 <= 0.09, 1.5 + 0.5j, np.where(r2 <= 0.36, (1.5 + 0.5j) * (1 + 0.3 * Z1), 0))


class TestCoreOracle:
    """The Fourier-mode elimination of the leading rings on which V is constant,
    against dense solves (m = 64, n_r = 16)."""

    POTENTIALS = {
        # every interior ring per mode, and no annulus
        "constant": lambda Z1, Z2: np.full(np.shape(Z1), 2.0 - 0.7j),
        # rings 1-7 per mode; ring 8 (r = 0.5) is split by rounding, so M takes it
        "disk": _centered_disk(0.5),
        # rings 1-4 per mode, 5-8 dense, ring 9 in M, then the annulus
        "lens": _lens_like,
    }
    LAYOUT = {"constant": (15, 0, 15), "disk": (7, 0, 8), "lens": (4, 4, 9)}

    @pytest.fixture(scope="class", params=sorted(POTENTIALS))
    def case(self, request):
        V = self.POTENTIALS[request.param]
        op = assemble_polar_operator(V, BoundaryMesh(n_nodes=64), n_r=16)
        return request.param, op, _dense_defects(V, op, np.random.default_rng(11))

    def test_layout(self, case):
        name, op, _ = case
        assert (len(op.core), len(op.ring_solves), op.v_ring) == self.LAYOUT[name]
        assert (op.annulus is None) == (name == "constant")

    @pytest.mark.parametrize("what", ["dtn", "dirichlet", "interior", "symmetry"])
    def test_matches_dense(self, case, what):
        assert case[2][what] <= 1e-12


@settings(max_examples=15, deadline=None)
@given(ring=st.integers(0, 15), frac=st.floats(0.05, 0.95))
def test_core_matches_dense_for_any_disk_radius(ring, frac):
    # a centered constant disk ending between ring `ring` and the next: every ring
    # below k = max(ring, 1) goes per mode, and with ring 15 the whole interior does
    V = _centered_disk((ring + frac) / 16)
    op = assemble_polar_operator(V, BoundaryMesh(n_nodes=64), n_r=16)
    assert op.v_ring == max(ring, 1)
    assert len(op.core) == (15 if ring == 15 else op.v_ring - 1)
    assert len(op.ring_solves) == 0
    defects = _dense_defects(V, op, np.random.default_rng(ring))
    assert max(defects.values()) <= 1e-12, defects


@settings(max_examples=20, deadline=None)
@given(modulus=st.floats(0.0, 5.0), arg=st.floats(0.0, 2 * np.pi),
       c1=st.floats(-0.5, 0.5), c2=st.floats(-0.5, 0.5), sigma=st.floats(0.1, 0.5))
def test_complex_symmetry_for_random_potentials(modulus, arg, c1, c2, sigma):
    # |V| <= 5 stays below the first Dirichlet eigenvalue of the disk (about 5.78),
    # so 0 is never one and the guard cannot refuse
    amp = modulus * np.exp(1j * arg)
    A = dtn_matrix(lambda Z1, Z2: amp * np.exp(-((Z1 - c1)**2 + (Z2 - c2)**2) / (2 * sigma**2)),
                   BoundaryMesh(n_nodes=64), n_r=16)
    assert A.symmetry_defect() <= 1e-12


def test_potential_that_is_not_callable_refused(tmp_path):
    # V is a callable or None: a rasterized field is refused with a typed error,
    # and the cached call writes no blob
    V = ComplexField.from_function(FourierGrid(128, 4.0), bump_potential())
    small = BoundaryMesh(n_nodes=64)
    with pytest.raises(DomainError, match="callable"):
        dtn_matrix(V, small, n_r=16, potential_tag="field")
    with pytest.raises(DomainError, match="callable"):
        dtn_matrix_cached(tmp_path, "field", V, small, n_r=16, potential_tag="field")
    assert list(tmp_path.iterdir()) == []
