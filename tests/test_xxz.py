import io
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from math import comb

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.linalg import block_diag
from scipy.optimize import linear_sum_assignment

import ptfidelity.xxz as xxz
from ptfidelity import (
    BasisCapExceededError,
    DefectiveMatrixError,
    DimTooLargeError,
    InsufficientSizesError,
    NoConvergenceError,
    OddLError,
    SparseComplexSymmetricMatrix,
    biorthogonal_eig,
    bisect_ep,
    dense_ground_pair,
    ground_state_index,
    one_half_ep_test,
)
from ptfidelity.fidelity import FidelityRecord
from ptfidelity.ssh import SshParams, band_discriminant
from ptfidelity.sweep import Axis, SweepConfig, run_sweep, write_csv
from ptfidelity.xxz import (
    XxzParams,
    _block,
    _block_hamiltonian,
    _ground_state_pair,
    _sector_pattern,
    build_hamiltonian,
    build_m0_basis,
    fidelity_scan,
    full_sector_spectrum,
    ground_state,
    ising_direction,
    is_broken_at,
    peak_and_extrapolate,
    records_to_peak_input,
    staggered_field_direction,
)

from conftest import greedy_conjugate_closure_defect, midpoint_bisection, recording


def full_space_hamiltonian(L, jz, gamma):
    """Independent oracle: kron-assembled chain on the full 2^L space."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)

    def site_op(op, j):
        mats = [eye] * L
        mats[j] = op
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    H = np.zeros((2**L, 2**L), dtype=complex)
    for j in range(L):
        jn = (j + 1) % L
        H += site_op(sx, j) @ site_op(sx, jn)
        H += site_op(sy, j) @ site_op(sy, jn)
        H += jz * site_op(sz, j) @ site_op(sz, jn)
        H += 1j * gamma * ((-1) ** j) * site_op(sz, j)
    return H


class TestBasis:
    @pytest.mark.parametrize("L,size", [(4, 6), (6, 20), (10, 252)])
    def test_sizes(self, L, size):
        basis = build_m0_basis(L)
        assert basis.size == size

    def test_odd_length_rejected(self):
        with pytest.raises(OddLError):
            build_m0_basis(7)

    @pytest.mark.parametrize("jz, gamma", [(float("nan"), 0.3), (1.0, float("nan")),
                                           (float("inf"), 0.3), (1.0, float("inf"))])
    def test_non_finite_coupling_is_refused(self, jz, gamma):
        # NaN passes the gamma < 0 check
        with pytest.raises(ValueError, match="finite"):
            XxzParams(jz=jz, gamma=gamma, L=4)

    def test_cap_refusal(self):
        # the L = 30 sector (~1.5e8 states) sits above the size cap
        with pytest.raises(BasisCapExceededError):
            build_m0_basis(30)

    def test_index_maps_bijective(self):
        basis = build_m0_basis(8)
        for i in range(basis.size):
            assert basis.index_of(basis.state_of(i)) == i
        assert np.all(np.diff(basis.states) > 0)

    def test_magnetization_zero(self):
        basis = build_m0_basis(10)
        pops = np.array([bin(int(s)).count("1") for s in basis.states])
        assert np.all(pops == 5)


class TestHamiltonian:
    def test_complex_symmetric_exactly(self):
        H = build_hamiltonian(XxzParams(jz=0.7, gamma=0.3, L=8)).matrix
        assert abs(H - H.T).nnz == 0 or abs(H - H.T).max() == 0

    def test_matches_full_space_projection(self):
        # project the kron oracle onto the sector and compare entrywise
        L, jz, gamma = 6, 0.8, 0.4
        basis = build_m0_basis(L)
        H_sector = build_hamiltonian(XxzParams(jz=jz, gamma=gamma, L=L)).to_dense()
        H_full = full_space_hamiltonian(L, jz, gamma)
        # bit j of the basis state indexes site j; kron order puts site 0
        # on the most significant qubit, so convert indices accordingly
        def to_full_index(state):
            return sum(((state >> j) & 1) << (L - 1 - j) for j in range(L))
        idx = [to_full_index(int(s)) for s in basis.states]
        # spin-up bit means sz = +1: kron basis row 0 of each qubit is up
        # with our converted index, up corresponds to bit value 1 -> row 0
        idx = [2**L - 1 - i for i in idx]
        H_proj = H_full[np.ix_(idx, idx)]
        assert np.abs(H_sector - H_proj).max() < 1e-12
        # magnetization conservation: nothing leaks out of the sector
        outside = np.setdiff1d(np.arange(2**L), idx)
        assert np.abs(H_full[np.ix_(outside, idx)]).max() == 0

    def test_cached_assembly_across_sizes(self):
        # sizes revisit L=8 after others, so each build reads a cached pattern
        params = [(0.0, 0.0), (1.0, 0.1), (-0.5, 0.7)]
        oracle = {}
        for L in (4, 8, 6, 10, 8):
            basis = build_m0_basis(L)
            full = 2**L - 1 - np.array(
                [sum(((int(s) >> j) & 1) << (L - 1 - j) for j in range(L))
                 for s in basis.states])
            for jz, gamma in params:
                if (L, jz, gamma) not in oracle:
                    H_full = full_space_hamiltonian(L, jz, gamma)
                    oracle[L, jz, gamma] = H_full[np.ix_(full, full)]
                H = build_hamiltonian(XxzParams(jz=jz, gamma=gamma, L=L), basis)
                assert np.abs(H.to_dense() - oracle[L, jz, gamma]).max() < 1e-12
        # a caller writing into one matrix changes no other matrix
        p = XxzParams(jz=1.0, gamma=0.1, L=8)
        first = build_hamiltonian(p)
        build_hamiltonian(p).matrix.data *= 2
        assert np.abs(first.to_dense() - oracle[8, 1.0, 0.1]).max() < 1e-12
        later = build_hamiltonian(p).to_dense()
        assert np.abs(later - oracle[8, 1.0, 0.1]).max() < 1e-12

    def test_xx_spectrum_real_and_symmetric(self):
        w = full_sector_spectrum(XxzParams(jz=0.0, gamma=0.0, L=4))
        assert np.abs(w.imag).max() < 1e-12
        assert np.abs(np.sort(w.real) + np.sort(-w.real)[::-1]).max() < 1e-10

    def test_heisenberg_ring_ground_energy(self):
        w = full_sector_spectrum(XxzParams(jz=1.0, gamma=0.0, L=4))
        assert abs(w[0] - (-8.0)) < 1e-10

    def test_conjugation_closure(self):
        w = full_sector_spectrum(XxzParams(jz=1.0, gamma=0.5, L=8))
        assert greedy_conjugate_closure_defect(w) < 1e-10

    def test_direction_operators(self):
        basis = build_m0_basis(6)
        H0 = build_hamiltonian(XxzParams(jz=0.3, gamma=0.2, L=6)).to_dense()
        dJ = 1e-6
        H1 = build_hamiltonian(XxzParams(jz=0.3 + dJ, gamma=0.2, L=6)).to_dense()
        assert np.abs((H1 - H0) / dJ - np.diag(ising_direction(basis))).max() < 1e-6
        H2 = build_hamiltonian(XxzParams(jz=0.3, gamma=0.2 + dJ, L=6)).to_dense()
        assert np.abs((H2 - H0) / dJ
                      - np.diag(staggered_field_direction(basis))).max() < 1e-6


class TestSectorSymmetry:
    """The sector pattern is checked for symmetry once per L, when it is
    built; ``build_hamiltonian`` skips the per-matrix check."""

    @pytest.mark.parametrize("L", [4, 6, 8, 10, 12])       # XxzParams needs even L >= 4
    def test_every_assembled_matrix_equals_its_transpose(self, L):
        for jz, gamma in [(1.0, 0.0), (-0.7, 0.35), (2.0, 1.3)]:
            H = build_hamiltonian(XxzParams(jz=jz, gamma=gamma, L=L)).matrix
            assert (H != H.T).nnz == 0

    def test_corrupted_pattern_copy_fails_the_check(self):
        pattern = _sector_pattern(8)
        data = pattern.data.copy()
        hop = np.setdiff1d(np.arange(len(data)), pattern.diag_slots)[0]
        data[hop] = 3.0
        with pytest.raises(ValueError, match="not complex symmetric"):
            replace(pattern, data=data)

    def test_direct_construction_still_checks(self):
        M = sparse.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex))
        with pytest.raises(ValueError, match="not complex symmetric"):
            SparseComplexSymmetricMatrix(matrix=M)


class TestGroundState:
    @pytest.mark.parametrize("tol_real", [-1.0, float("nan")])
    @pytest.mark.parametrize("method", ["lanczos", "dense"])
    def test_negative_or_nan_tol_real_raises(self, tol_real, method):
        with pytest.raises(ValueError, match="tol_real"):
            ground_state(XxzParams(jz=1.0, gamma=0.1, L=6), method=method,
                         tol_real=tol_real)

    def test_hermitian_unbroken(self):
        g = ground_state(XxzParams(jz=0.5, gamma=0.0, L=12))
        assert g.pt_class == "unbroken"
        assert abs(g.energy.imag) < 1e-10

    def test_broken_phase_complex(self):
        g = ground_state(XxzParams(jz=1.0, gamma=0.5, L=10))
        assert g.pt_class == "broken"
        assert g.energy.imag > 1e-3          # +Im member by the tie-break

    def test_lanczos_matches_dense(self):
        p = XxzParams(jz=0.5, gamma=0.1, L=12)
        gl = ground_state(p, method="lanczos")
        gd = ground_state(p, method="dense")
        assert abs(gl.energy - gd.energy) < 1e-10
        overlap = abs(np.vdot(gl.right, gd.right))
        assert abs(overlap - 1.0) < 1e-8

    def test_dense_reports_its_residual(self):
        p = XxzParams(jz=1.0, gamma=0.5, L=8)
        g = ground_state(p, method="dense")
        H = build_hamiltonian(p).to_dense()
        resid = np.linalg.norm(H @ g.right - g.energy * g.right)
        assert resid == pytest.approx(g.residual, rel=1e-6, abs=1e-15)
        assert g.residual < 1e-10 * np.linalg.norm(H, 1)

    def test_dense_reports_its_residual_with_one_blas_thread(self):
        # one BLAS thread rounds differently from the threaded default; the
        # reported residual must be that of the returned, gauged vector
        import ptfidelity

        src = os.path.dirname(os.path.dirname(ptfidelity.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = ("import numpy as np\n"
                "from ptfidelity.xxz import XxzParams, build_hamiltonian, ground_state\n"
                "p = XxzParams(jz=1.0, gamma=0.5, L=8)\n"
                "g = ground_state(p, method='dense')\n"
                "H = build_hamiltonian(p).to_dense()\n"
                "r = np.linalg.norm(H @ g.right - g.energy * g.right)\n"
                "print(repr(float(r)), repr(g.residual))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        resid, reported = map(float, proc.stdout.split())
        assert resid == pytest.approx(reported, rel=1e-6, abs=1e-15)

    def test_dense_raises_instead_of_returning_a_bad_vector(self):
        # jz = 0, gamma = 1, L = 6 sits on a defective ground-state cluster,
        # where no eigenvector reaches the residual bound
        with pytest.raises(NoConvergenceError):
            ground_state(XxzParams(jz=0.0, gamma=1.0, L=6), method="dense")

    @pytest.mark.parametrize("gamma", [0.1, 0.5])
    def test_one_gauge_across_solvers(self, gamma):
        # unit norm, largest-magnitude entry real and positive on every path;
        # at gamma=0.1 two symmetry-equal largest entries differ in phase,
        # so the tie rule must agree across solvers too
        p = XxzParams(jz=1.0, gamma=gamma, L=8)
        gl = ground_state(p, method="lanczos")
        gd = ground_state(p, method="dense")
        es = biorthogonal_eig(build_hamiltonian(p).to_dense())
        rb = es.right_vectors[:, es.ground_index()]
        assert np.abs(gl.right - gd.right).max() < 1e-8
        assert np.abs(gl.right - rb).max() < 1e-8

    def test_left_covector_pairing(self):
        g = ground_state(XxzParams(jz=1.0, gamma=0.5, L=8))
        assert abs(g.left @ g.right - 1.0) < 1e-12
        assert abs(np.vdot(g.right, g.right) - 1.0) < 1e-12

    def test_free_fermion_mapping_at_jz_zero(self):
        # gamma couples like the ladder gain-loss term under the fermion
        # mapping: v1 = w = 1, v2 = 0, u = gamma, overall scale 2, and the
        # half-filled momenta shift to the antiperiodic grid for even count
        L, gamma = 8, 0.2
        g = ground_state(XxzParams(jz=0.0, gamma=gamma, L=L), method="dense")
        cells = L // 2
        ks = 2 * np.pi * (np.arange(cells) + 0.5) / cells
        p = SshParams(v1=1.0, v2=0.0, u=gamma, L=cells)
        deltas = band_discriminant(ks, p)
        free = 2 * np.sum(-np.sqrt(deltas.astype(complex)))
        assert abs(g.energy - free) < 1e-10


class TestFidelityScan:
    def test_hermitian_line_real_fidelity(self):
        recs = fidelity_scan(XxzParams(jz=0.0, gamma=0.0, L=8), "jz",
                             np.linspace(-0.5, 0.5, 5), method="dense")
        for r in recs:
            assert abs(r.F.imag) < 1e-10
            assert r.pt_class_a == r.pt_class_b == "unbroken"

    def test_straddle_marking(self):
        # gamma scan through the finite-size EP flags exactly the
        # straddling interval
        p = XxzParams(jz=1.0, gamma=0.0, L=8)
        grid = np.linspace(0.0, 0.6, 13)
        recs = fidelity_scan(p, "gamma", grid, epsilon=1e-3)
        classes = [r.pt_class_a for r in recs]
        assert "unbroken" in classes and "broken" in classes
        straddles = [r for r in recs if r.straddles_ep]
        # straddles only where the class flips between endpoints
        for r in straddles:
            assert {r.pt_class_a, r.pt_class_b} == {"unbroken", "broken"}

    def test_broken_phase_chi_identity(self):
        # two independently computed pair members give conjugate chi values
        from ptfidelity import (
            biorthogonal_eig,
            chi_perturbative,
            classify_pt,
            pt_partner_state,
        )

        p = XxzParams(jz=1.0, gamma=0.5, L=8)
        basis = build_m0_basis(p.L)
        H = build_hamiltonian(p, basis).to_dense()
        es = biorthogonal_eig(H)
        cls = classify_pt(es)
        g = es.ground_index()
        assert cls.is_broken(g)
        partner = pt_partner_state(es, cls, g)
        V = staggered_field_direction(basis)
        chi_g = chi_perturbative(es, V, g)
        chi_p = chi_perturbative(es, V, partner)
        assert abs(chi_p - np.conj(chi_g)) < 1e-9 * max(1, abs(chi_g))


class TestWarmStartedPair:
    """The solve at ``lam + epsilon`` starts from the ground state at ``lam``."""

    def test_solver_counters(self, monkeypatch):
        pa, pb = XxzParams(jz=1.0, gamma=0.2, L=10), XxzParams(jz=1.0, gamma=0.201, L=10)
        ga, gb, _ = _ground_state_pair(pa, pb, 0, 1, "metricized")
        calls = [0]

        def counting_real_form(p, q):
            H = _block_hamiltonian(p, q)

            def counting(u):
                calls[0] += 1
                return H @ u
            return counting

        monkeypatch.setattr("ptfidelity.xxz._block_hamiltonian", counting_real_form)
        warm = ground_state(pb, v0=ga.right, seed=1)
        assert warm.matvecs == gb.matvecs == calls[0]
        cold = ground_state(pb, seed=1)
        assert 0 < gb.iterations < gb.matvecs < cold.matvecs
        assert cold.iterations < cold.matvecs
        monkeypatch.undo()              # the dense path densifies the real form
        dense = ground_state(pb, method="dense")
        assert (dense.iterations, dense.restarts, dense.matvecs) == (0, 0, 0)

    # the grid holds L=8, Jz=0, gamma=1.0, the start of the reproducer in
    # test_lanczos.py::test_cycle_ending_worse_than_its_start_reseeds
    @pytest.mark.parametrize("jz", [-2.0, -1.0, 0.0, 1.0, 2.0])
    @pytest.mark.parametrize("L", [8, 10])
    def test_shifted_endpoint_matches_dense(self, L, jz):
        grid = np.round(np.arange(41) * 0.05, 10)          # [0, 2]
        recs = fidelity_scan(XxzParams(jz=jz, gamma=0.0, L=L), "gamma", grid,
                             epsilon=1e-3, on_error="record")
        checked = 0
        for r in recs:
            pa, pb = (XxzParams(jz=jz, gamma=x, L=L) for x in (r.lam, r.lam + r.epsilon))
            try:
                dense = ground_state(pb, method="dense")
                if r.error:     # only an endpoint at an exceptional point may fail
                    ground_state(pa, method="dense")
            except (NoConvergenceError, DefectiveMatrixError):
                continue
            assert not r.error, (r.lam, r.error)
            assert abs(r.energy_b.real - dense.energy.real) <= 1e-8, r.lam
            assert r.pt_class_b == dense.pt_class, r.lam
            checked += 1
        assert checked >= len(grid) - 2

    # level crossings between symmetry blocks of the sector, located with
    # the dense oracle; a start vector inside one block never leaves it
    @pytest.mark.parametrize("L,jz,gamma_c", [(8, -1.0, 1.9740044539),
                                              (10, -2.0, 0.7888430440)])
    def test_shifted_endpoint_past_a_level_crossing(self, L, jz, gamma_c):
        pa = XxzParams(jz=jz, gamma=gamma_c - 4e-4, L=L)
        pb = XxzParams(jz=jz, gamma=gamma_c + 6e-4, L=L)
        da, db = (ground_state(p, method="dense") for p in (pa, pb))
        assert abs((da.left @ db.right) * (db.left @ da.right)) < 1e-12
        for seed in range(3):
            _, gb, F = _ground_state_pair(pa, pb, 2 * seed, 2 * seed + 1, "metricized")
            assert abs(gb.energy - db.energy) <= 1e-8
            assert abs(F) < 1e-12

    def test_sweep_across_the_ep_is_thread_invariant(self):
        # the L=10, Jz=1 exceptional point sits at gamma = 0.1580
        cfgs = [SweepConfig(model="xxz", axes=[Axis("gamma", 0.12, 0.2, 9)],
                            fixed={"jz": 1.0}, sizes=[10], seed=5, threads=n)
                for n in (1, 2)]
        texts = []
        for cfg in cfgs:
            result = run_sweep(cfg)
            assert {p.pt_class_a for p in result.points} == {"unbroken", "broken"}
            buf = io.StringIO()
            write_csv(result, buf)
            texts.append(buf.getvalue())
        assert texts[0] == texts[1]


class TestPeakExtrapolation:
    def test_exact_synthetic_polynomial(self):
        # positions J*(L) = -1 + 2/L recovered exactly by the fit
        data = {}
        for L in (8, 10, 12, 14):
            x = np.linspace(-2.0, 0.0, 401)
            center = -1.0 + 2.0 / L
            y = -((x - center) ** 2)
            data[L] = (x, y)
        ext = peak_and_extrapolate(data, fit_degree=1)
        assert abs(ext.intercept - (-1.0)) < 1e-6

    def test_requires_three_sizes(self):
        x = np.linspace(0, 1, 11)
        with pytest.raises(InsufficientSizesError):
            peak_and_extrapolate({8: (x, -x**2), 10: (x, -x**2)})

    def test_masked_records(self):
        recs = [
            FidelityRecord(lam=0.0, epsilon=1e-3, F=0.9, chi_fd=100.0,
                           pt_class_a="unbroken", pt_class_b="unbroken"),
            FidelityRecord(lam=0.1, epsilon=1e-3, F=0.5 + 0.1j, chi_fd=5e5,
                           pt_class_a="unbroken", pt_class_b="broken"),
            FidelityRecord(lam=0.2, epsilon=1e-3, F=0.99, chi_fd=10.0,
                           pt_class_a="broken", pt_class_b="broken"),
        ]
        x, y = records_to_peak_input(recs, L=10)
        assert np.isnan(y[1])
        assert y[0] == pytest.approx(10.0)


class TestFullSpectrum:
    def test_hermitian_all_real(self):
        w = full_sector_spectrum(XxzParams(jz=0.7, gamma=0.0, L=8))
        assert np.abs(w.imag).max() < 1e-10

    def test_trace_identity(self):
        # the staggered term traces to zero inside the sector; the Ising
        # diagonal does not, so the eigenvalue sum equals its sector trace
        basis = build_m0_basis(8)
        w = full_sector_spectrum(XxzParams(jz=2.0, gamma=0.5, L=8))
        expected = 2.0 * ising_direction(basis).sum()
        assert abs(w.sum() - expected) < 1e-9
        assert abs(w.sum().imag) < 1e-9

    def test_broken_cloud_conjugate_symmetric(self):
        w = full_sector_spectrum(XxzParams(jz=2.0, gamma=0.5, L=10))
        assert np.sum(np.abs(w.imag) > 1e-8) > 0
        assert greedy_conjugate_closure_defect(w) < 1e-9

    def test_dense_cap(self):
        with pytest.raises(DimTooLargeError):
            full_sector_spectrum(XxzParams(jz=0.0, gamma=0.0, L=16))

    @pytest.mark.parametrize("L", [4, 6, 8, 10, 12])
    def test_matches_the_dense_sector(self, L):
        # as multisets, against complex eigvals of the dense sector matrix;
        # at (-1, 1.97) paired blocks hold degenerate levels
        for jz, gamma in [(1.0, 0.3), (2.0, 0.5), (0.0, 0.0), (-1.0, 1.97)]:
            p = XxzParams(jz=jz, gamma=gamma, L=L)
            w = full_sector_spectrum(p)
            ref = np.linalg.eigvals(build_hamiltonian(p).to_dense())
            assert len(w) == comb(L, L // 2)
            dist = abs(w[:, None] - ref[None, :])
            rows, cols = linear_sum_assignment(dist)
            assert dist[rows, cols].max() < 1e-10 * max(1.0, abs(ref).max())
            # complex levels come in exact conjugate pairs
            assert np.array_equal(np.sort_complex(w), np.sort_complex(w.conj()))

    def test_builds_no_dense_sector(self):
        p = XxzParams(jz=1.0, gamma=0.3, L=12)
        full_sector_spectrum(p)                 # builds the blocks once per L
        tracemalloc.start()
        try:
            full_sector_spectrum(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 924 ** 2 * 16             # one dense complex L=12 sector


class TestEPBisection:
    def test_gamma_ep_bracket(self):
        from ptfidelity import bisect_ep

        p = XxzParams(jz=1.0, gamma=0.0, L=8)
        lo, hi = bisect_ep(
            lambda g: is_broken_at(p, "gamma", g), 0.0, 0.6, tol=1e-6)
        assert hi - lo <= 1e-6
        assert not is_broken_at(p, "gamma", lo)
        assert is_broken_at(p, "gamma", hi)


def weighted_probe(base, direction):
    """ITP probe on Lanczos ground states: the class and ``|r^T r|**2``."""
    def probe(x):
        g = ground_state(replace(base, **{direction: x}))
        return g.is_broken, g.condition**2
    return probe


class TestItpLocator:
    def test_quadratic_weight_at_jz0_within_one_probe_of_bisection(self):
        # |r^T r| is linear in the distance to this EP, so the weight is
        # quadratic and interpolation gains nothing
        classify = weighted_probe(XxzParams(jz=0.0, gamma=0.0, L=12), "gamma")
        probe, probed = recording(classify)
        lo, hi = bisect_ep(probe, 0.0, 0.6, tol=1e-6)
        _, ref_probed = midpoint_bisection(lambda x: x > 0.5 * (lo + hi), 0.0, 0.6, 1e-6)
        assert len(probed) <= len(ref_probed) + 1
        assert hi - lo <= 1e-6
        assert classify(lo)[0] != classify(hi)[0]

    def test_linear_weight_at_jz1_takes_at_most_12_probes(self):
        probe, probed = recording(weighted_probe(XxzParams(jz=1.0, gamma=0.0, L=12), "gamma"))
        lo, hi = bisect_ep(probe, 0.0, 0.6, tol=1e-6)
        assert hi - lo <= 1e-6
        assert len(probed) <= 12

    @pytest.mark.parametrize("L", [8, 10])
    @pytest.mark.parametrize("direction, base, bracket", [
        ("gamma", dict(jz=1.0, gamma=0.0), (0.0, 0.6)),
        ("jz", dict(jz=0.0, gamma=0.2), (0.0, 2.0)),
    ], ids=["gamma", "jz"])
    def test_lanczos_locator_overlaps_dense_bisection(self, L, direction, base, bracket):
        base = XxzParams(L=L, **base)
        basis = build_m0_basis(L)

        def dense_broken(x):
            H = build_hamiltonian(replace(base, **{direction: x}), basis)
            w = np.linalg.eigvals(H.to_dense())
            return abs(w[ground_state_index(w)].imag) > 1e-8

        d_lo, d_hi = bisect_ep(dense_broken, *bracket, tol=1e-9)
        lo, hi = bisect_ep(weighted_probe(base, direction), *bracket, tol=1e-9)
        assert hi - lo <= 1e-9
        assert lo <= d_hi and d_lo <= hi

        def state_fn(x):
            g = ground_state(replace(base, **{direction: x}))
            return g.left, g.right, g.pt_class

        assert one_half_ep_test(state_fn, lo, hi).n_crossings == 1


def translate_two_sites(L):
    """T2 on the sector, built from the configurations: the permutation
    that moves the spin on site j to site j + 2."""
    states = build_m0_basis(L).states
    n = len(states)
    moved = ((states << 2) | (states >> (L - 2))) & ((1 << L) - 1)
    T = np.zeros((n, n))
    T[np.searchsorted(states, moved), np.arange(n)] = 1.0
    return T


# jz < 0, jz = 0, gamma = 0, and broken-phase gamma (the Jz=1 sector EP is
# below gamma = 0.65 at every L >= 4)
REAL_FORM_POINTS = [(-1.3, 0.4), (0.0, 1.3), (1.0, 0.0), (-2.0, 0.0), (1.0, 0.8)]


class TestRealForm:
    """Solves run on the real forms B^H H B of the momentum blocks, which the
    spin-flip PT symmetry Theta = F K makes real."""

    @pytest.mark.parametrize("jz,gamma", REAL_FORM_POINTS)
    @pytest.mark.parametrize("L", [4, 6, 8, 10])
    def test_assembled_real_form_is_the_rotated_sector(self, L, jz, gamma):
        p = XxzParams(jz=jz, gamma=gamma, L=L)
        H = build_hamiltonian(p).to_dense()
        blocks = [_block(L, q) for q in range(L // 4 + 1)]
        S = np.hstack([b.basis.toarray() for b in blocks])
        np.testing.assert_allclose(S.conj().T @ S, np.eye(len(S)), atol=1e-15)
        # Theta-real columns; block q spans the T2 momenta +-K
        assert np.abs(S[::-1].conj() - S).max() <= 1e-15
        T = translate_two_sites(L)
        for b in blocks:
            B = b.basis.toarray()
            K = 2 * np.pi * b.q / (L // 2)
            assert np.abs(T @ T @ B - 2 * np.cos(K) * T @ B + B).max() <= 1e-14
        forms = [_block_hamiltonian(p, b.q) for b in blocks]
        assert all(R.dtype == np.float64 for R in forms)
        R = block_diag(*[R.toarray() for R in forms])
        assert np.abs(S.conj().T @ H @ S - R).max() <= 1e-13 * np.linalg.norm(H, 1)
        J = np.diag(np.concatenate([np.repeat([1.0, -1.0], [b.n_plus, b.dim - b.n_plus])
                                    for b in blocks]))
        assert np.array_equal(J @ R, (J @ R).T)
        if gamma:
            assert not np.array_equal(R, R.T)

    @pytest.mark.parametrize("jz,gamma", REAL_FORM_POINTS)
    @pytest.mark.parametrize("L", [4, 6, 8, 10])
    def test_residual_is_that_of_the_returned_vector(self, L, jz, gamma):
        p = XxzParams(jz=jz, gamma=gamma, L=L)
        H = build_hamiltonian(p).to_dense()
        g = ground_state(p, seed=L)
        resid = np.linalg.norm(H @ g.right - g.energy * g.right)
        assert resid == pytest.approx(g.residual, rel=1e-6,
                                      abs=1e-14 * np.linalg.norm(H, 1))
        assert g.residual <= 1e-10
        assert abs(np.linalg.norm(g.right) - 1.0) < 1e-14
        if (jz, gamma) == (1.0, 0.8):
            assert g.pt_class == "broken"


def full_sector_ground_energy(p):
    """The full-sector oracle: the dense ground pair of the whole sector."""
    w, g, *_ = dense_ground_pair(build_hamiltonian(p).to_dense())
    return w[g]


# ground levels outside K = 0, with their block: L=10, Jz=-2 past the
# block crossing at gamma = 0.78884 included
OUTSIDE_K0 = [(6, -2.0, 1.5, 1), (6, -2.0, 2.0, 1), (6, -1.0, 1.75, 1),
              (10, -2.0, 1.5, 2), (10, -2.0, 2.0, 2), (10, -1.0, 1.75, 2),
              (10, -2.0, 0.79, 1), (10, -2.0, 0.80, 2), (10, -2.0, 0.85, 2)]


class TestMomentumBlocks:
    """Ground states are solved in the momentum blocks of the two-site
    translation, in ascending order of a Bendixson bound, and checked
    against the full sector."""

    @pytest.mark.parametrize("L,dims", [(6, [8, 12]), (8, [20, 32, 18]),
                                        (10, [52, 100, 100]),
                                        (12, [160, 300, 312, 152])])
    def test_block_dimensions(self, L, dims):
        assert [_block(L, q).dim for q in range(L // 4 + 1)] == dims
        assert sum(dims) == comb(L, L // 2)

    def test_a_block_that_is_not_real_fails_the_check(self, monkeypatch):
        # an Ising diagonal that F does not keep couples the F-even and
        # F-odd basis vectors with imaginary entries
        pattern = xxz._sector_pattern(8)
        broken = replace(pattern, ising=pattern.ising + pattern.staggered)
        monkeypatch.setattr(xxz, "_sector_pattern", lambda L: broken)
        with pytest.raises(ValueError, match="ising part of block 1 of L=8 is not real"):
            xxz._block.__wrapped__(8, 1)

    @pytest.mark.parametrize("jz,gamma", REAL_FORM_POINTS)
    @pytest.mark.parametrize("L", [6, 8, 10])
    def test_bound_is_below_every_level_of_its_block(self, L, jz, gamma, monkeypatch):
        monkeypatch.setattr(xxz, "_BOUNDS", {})
        p = XxzParams(jz=jz, gamma=gamma, L=L)
        for q in range(L // 4 + 1):
            f = xxz._bendixson_bound(L, q, jz)
            w = np.linalg.eigvals(_block_hamiltonian(p, q).toarray())
            assert w.real.min() >= f - 1e-12
            if gamma == 0:
                assert w.real.min() == pytest.approx(f, abs=1e-12)
            # Weyl: a bound cached at jz reaches any other jz
            for other in (jz - 0.3, jz + 1.1):
                assert xxz._bound_estimate(L, q, other) <= \
                    xxz._bendixson_bound(L, q, other) + 1e-12

    @pytest.mark.parametrize("L", [4, 6, 8, 10, 12])
    def test_against_the_full_sector(self, L):
        gammas = (0.0, 0.45, 1.1, 1.9) if L < 12 else (0.45, 1.9)
        for jz in (-2.0, -1.0, 0.0, 1.0):
            for gamma in gammas:
                p = XxzParams(jz=jz, gamma=gamma, L=L)
                want = full_sector_ground_energy(p)
                for method in ("lanczos", "dense"):
                    g = ground_state(p, method=method)
                    assert abs(g.energy - want) <= 1e-8, (jz, gamma, method)
                    assert 1 <= g.blocks_solved <= L // 4 + 1

    @pytest.mark.parametrize("L,jz,gamma,q", OUTSIDE_K0)
    def test_ground_level_outside_k0(self, L, jz, gamma, q):
        p = XxzParams(jz=jz, gamma=gamma, L=L)
        want = full_sector_ground_energy(p)
        for method in ("lanczos", "dense"):
            g = ground_state(p, method=method)
            assert g.block == q
            assert abs(g.energy - want) <= 1e-8, method
            H = build_hamiltonian(p)
            assert np.linalg.norm(H @ g.right - g.energy * g.right) <= 1e-9

    def test_solved_blocks_do_not_depend_on_the_cache(self, monkeypatch):
        # past the crossing at 0.78884 three blocks are solved; a bound
        # cached at another jz changes which bounds are computed, not which
        # blocks are solved or in what order
        p = XxzParams(jz=-2.0, gamma=0.8, L=10)
        runs = []
        for warm in (None, -2.4, -1.5):
            monkeypatch.setattr(xxz, "_BOUNDS", {})
            if warm is not None:
                for q in range(3):
                    xxz._bendixson_bound(10, q, warm)
            g = ground_state(p, seed=4)
            runs.append((g.energy, g.block, g.blocks_solved, g.iterations,
                         g.matvecs, g.extractions, g.right.tobytes()))
        assert runs[0][2] == 3
        assert runs[1] == runs[0] and runs[2] == runs[0]


class TestThetaRealStart:
    """A warm start keeps the largest Theta-real part of v0, whatever the
    phase v0 comes with."""

    @pytest.mark.parametrize("gamma", [0.2, 0.3])       # unbroken, broken
    def test_start_phase_does_not_matter(self, gamma):
        p = XxzParams(jz=1.0, gamma=gamma, L=10)
        x = ground_state(replace(p, gamma=gamma - 1e-3)).right
        for seed in range(4):
            cold = ground_state(p, seed=seed).iterations
            solves = [ground_state(p, v0=c * x, seed=seed)
                      for c in (1, -1, 1j, np.exp(1j * np.pi / 3))]
            for g in solves:
                assert abs(g.energy - solves[0].energy) < 1e-10
                assert abs(g.iterations - solves[0].iterations) <= 3
                assert g.iterations < cold


class TestSolverHazards:
    def test_cold_starts_find_the_ground_level(self):
        # seed 1 once converged to an excited level here, after a restart
        p = XxzParams(jz=-2.0, gamma=0.651, L=10)
        dense = ground_state(p, method="dense")
        for seed in range(8):
            g = ground_state(p, seed=seed)
            assert abs(g.energy - dense.energy) <= 1e-8, seed

    def test_tied_real_levels_need_no_restart(self):
        # many levels share the ground Re here; a three-term recurrence on
        # the nonsymmetric real form lost them
        pa = XxzParams(jz=0.0, gamma=1.700, L=10)
        p = replace(pa, gamma=1.701)
        dense = ground_state(p, method="dense")
        for seed in range(6):
            warm = ground_state(p, v0=ground_state(pa, seed=seed).right, seed=seed)
            cold = ground_state(p, seed=seed)
            for g in (warm, cold):
                assert abs(g.energy - dense.energy) <= 1e-8, seed
                assert g.restarts == 0
