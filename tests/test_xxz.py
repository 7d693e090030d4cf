import numpy as np
import pytest

from ptfidelity import (
    BasisCapExceededError,
    DimTooLargeError,
    InsufficientSizesError,
    NoConvergenceError,
    OddLError,
    ground_state_index,
)
from ptfidelity.fidelity import FidelityRecord
from ptfidelity.ssh import SshParams, band_discriminant
from ptfidelity.xxz import (
    XxzParams,
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

from conftest import greedy_conjugate_closure_defect


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


class TestGroundState:
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

    def test_dense_raises_instead_of_returning_a_bad_vector(self):
        # jz = 0, gamma = 1, L = 6 sits on a defective ground-state cluster,
        # where no eigenvector reaches the residual bound
        with pytest.raises(NoConvergenceError):
            ground_state(XxzParams(jz=0.0, gamma=1.0, L=6), method="dense")

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


class TestEPBisection:
    def test_gamma_ep_bracket(self):
        from ptfidelity import bisect_ep

        p = XxzParams(jz=1.0, gamma=0.0, L=8)
        lo, hi = bisect_ep(
            lambda g: is_broken_at(p, "gamma", g), 0.0, 0.6, tol=1e-6)
        assert hi - lo <= 1e-6
        assert not is_broken_at(p, "gamma", lo)
        assert is_broken_at(p, "gamma", hi)
