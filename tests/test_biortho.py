import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

import ptfidelity.biortho as biortho
from ptfidelity import (
    DefectiveMatrixError,
    DimTooLargeError,
    NoConvergenceError,
    NotBrokenError,
    UnpairableSpectrumError,
    biorthogonal_eig,
    classify_pt,
    dense_full_spectrum,
    dense_ground_pair,
    ground_state_index,
    metric_operator,
    pt_partner_state,
)
from ptfidelity.biortho import _pt_real_form
from ptfidelity.ssh import SshParams, bloch_matrix, open_boundary_matrix

from conftest import greedy_conjugate_closure_defect, random_diagonalizable, random_pt_matrix


class TestBiorthogonalEig:
    def test_hermitian_left_is_conjugate_of_right(self):
        es = biorthogonal_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(es.eigenvalues, [-1.0, 1.0])
        # Hermitian case: covector rows equal the conjugated right columns
        assert np.allclose(es.left_vectors, es.right_vectors.conj().T, atol=1e-12)

    def test_pt_block_closed_form_eigenvalues(self):
        # 2x2 with eta = -2 and u = 0.2: eigenvalues +-sqrt(4 - 0.04)
        es = biorthogonal_eig(np.array([[0.2j, -2.0], [-2.0, -0.2j]]))
        root = np.sqrt(3.96)
        assert np.allclose(es.eigenvalues, [-root, root], atol=1e-12)
        assert np.abs(es.overlap_matrix() - np.eye(2)).max() < 1e-12
        norms = np.linalg.norm(es.right_vectors, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_exact_ep_raises_defective(self):
        with pytest.raises(DefectiveMatrixError):
            biorthogonal_eig(np.array([[1j, 1.0], [1.0, -1j]]))

    def test_eigenvalues_sorted(self, rng):
        H = random_diagonalizable(24, rng)
        es = biorthogonal_eig(H)
        w = es.eigenvalues
        order = np.lexsort((w.imag, w.real))
        assert np.array_equal(order, np.arange(len(w)))

    @pytest.mark.parametrize("n", [2, 5, 16, 33, 64])
    def test_biorthonormality_and_completeness_random(self, n, rng):
        H = random_diagonalizable(n, rng)
        es = biorthogonal_eig(H)
        assert np.abs(es.overlap_matrix() - np.eye(n)).max() < 1e-9
        assert es.completeness_defect() < 1e-8

    def test_left_vectors_satisfy_left_eigen_equation(self, rng):
        H = random_diagonalizable(12, rng)
        es = biorthogonal_eig(H)
        for k in range(12):
            resid = es.left_vectors[k] @ H - es.eigenvalues[k] * es.left_vectors[k]
            assert np.abs(resid).max() < 1e-9

    def test_degenerate_block_is_rebiorthogonalized(self):
        # exact two-fold degeneracy, still diagonalizable
        U = np.linalg.qr(np.arange(9).reshape(3, 3) + np.eye(3))[0]
        H = U @ np.diag([1.0, 1.0, 2.0]) @ U.T.conj()
        es = biorthogonal_eig(H)
        assert np.abs(es.overlap_matrix() - np.eye(3)).max() < 1e-10

    def test_gauge_fix_largest_component_real_positive(self, rng):
        H = random_diagonalizable(8, rng)
        es = biorthogonal_eig(H)
        for k in range(8):
            r = es.right_vectors[:, k]
            pivot = np.argmax(np.abs(r))
            assert abs(r[pivot].imag) < 1e-12
            assert r[pivot].real > 0

    @pytest.mark.parametrize("L, gamma", [(10, 0.1), (10, 0.2), (8, 0.5)])
    def test_xxz_sector_biorthonormal(self, L, gamma):
        # PT multiplets whose real parts agree to rounding interleave in the
        # (Re, Im) order; each must still be re-biorthogonalized as one block
        from ptfidelity.xxz import XxzParams, build_hamiltonian

        H = build_hamiltonian(XxzParams(jz=1.0, gamma=gamma, L=L)).to_dense()
        es = biorthogonal_eig(H)
        n = len(H)
        assert np.abs(es.overlap_matrix() - np.eye(n)).max() < 1e-9
        assert es.completeness_defect() < 1e-8
        L_rows = es.left_vectors
        assert np.abs(L_rows @ H - es.eigenvalues[:, None] * L_rows).max() < 1e-9

    def test_pt_spectrum_closed_under_conjugation(self, rng):
        for n in (6, 11, 20):
            H = random_pt_matrix(n, rng)
            w = biorthogonal_eig(H).eigenvalues
            assert greedy_conjugate_closure_defect(w) < 1e-9 * max(1, np.abs(w).max())


class TestClassifyPT:
    def test_all_real(self):
        cls = classify_pt(np.array([-1.0 + 0j, 1.0 + 0j]))
        assert cls.real_indices == (0, 1)
        assert cls.pair_map == {}

    def test_one_pair_one_real(self):
        w = np.array([0.5 + 0.3j, 0.5 - 0.3j, 2.0 + 0j])
        cls = classify_pt(w)
        assert cls.real_indices == (2,)
        assert cls.pair_map[0] == 1 and cls.pair_map[1] == 0

    def test_ssh_broken_block_pair(self):
        # Delta_k = -0.01 gives the conjugate pair +-0.1i
        p = SshParams(v1=1.0, v2=0.0, u=np.sqrt(2.0 + 0.01), L=4)
        H = bloch_matrix(np.pi / 2, p)  # Delta = 1 + v1^2 - u^2 = -0.01
        es = biorthogonal_eig(H)
        cls = classify_pt(es)
        assert cls.n_broken == 2
        assert np.allclose(sorted(es.eigenvalues.imag), [-0.1, 0.1], atol=1e-12)

    def test_unpairable_raises(self):
        with pytest.raises(UnpairableSpectrumError):
            classify_pt(np.array([1.0 + 0.5j, 2.0 + 0j]))

    def test_involution(self, rng):
        H = random_pt_matrix(14, rng)
        es = biorthogonal_eig(H)
        cls = classify_pt(es)
        for n, m in cls.pair_map.items():
            assert cls.pair_map[m] == n


class TestPartnerState:
    def test_simple_pair(self):
        es = biorthogonal_eig(np.array([[0, 1.0], [-1.0, 0]]))  # eigenvalues +-i
        assert pt_partner_state(es, classify_pt(es), 0) == 1

    def test_partner_is_involution(self, rng):
        H = random_pt_matrix(12, rng)
        es = biorthogonal_eig(H)
        cls = classify_pt(es)
        for n in cls.pair_map:
            assert pt_partner_state(es, cls, pt_partner_state(es, cls, n)) == n

    def test_not_broken_raises(self):
        es = biorthogonal_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        cls = classify_pt(es)
        with pytest.raises(NotBrokenError):
            pt_partner_state(es, cls, 0)

    def test_xxz_ground_pair_conjugate(self):
        from ptfidelity.xxz import XxzParams, build_hamiltonian

        H = build_hamiltonian(XxzParams(jz=1.0, gamma=0.5, L=8)).to_dense()
        es = biorthogonal_eig(H)
        cls = classify_pt(es)
        g = es.ground_index()
        partner = pt_partner_state(es, cls, g)
        assert abs(es.eigenvalues[partner] - np.conj(es.eigenvalues[g])) < 1e-10


class TestMetricOperator:
    def test_hermitian_gives_identity(self):
        es = biorthogonal_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        G = metric_operator(es)
        assert np.abs(G - np.eye(2)).max() < 1e-12

    def test_unbroken_block_positive_and_stationary(self):
        p = SshParams(v1=0.85, v2=0.0, u=0.09, L=4)
        H = bloch_matrix(3.0, p)
        es = biorthogonal_eig(H)
        G = metric_operator(es)
        assert np.abs(G - G.conj().T).max() < 1e-12
        evals = np.linalg.eigvalsh(G)
        assert evals.min() > 0
        assert np.abs(G @ H - H.conj().T @ G).max() < 1e-10

    def test_stationarity_for_real_spectra(self, rng):
        # Hermitian samples have real spectra; G H = H^dag G holds there
        for n in (4, 9):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            H = A + A.conj().T
            es = biorthogonal_eig(H)
            G = metric_operator(es)
            assert np.abs(G @ H - H.conj().T @ G).max() < 1e-8

    def test_near_ep_metric_is_ill_conditioned_but_positive(self):
        # close to the EP of the k = pi/2 block: u^2 -> 2 + v1^2
        p = SshParams(v1=1.0, v2=0.0, u=np.sqrt(2.0) - 1e-6, L=4)
        H = bloch_matrix(np.pi / 2, p)
        es = biorthogonal_eig(H)
        assert es.condition_flags.min() < 1e-2
        G = metric_operator(es)
        evals = np.linalg.eigvalsh(G)
        assert evals.min() > 0
        assert evals.max() / evals.min() > 1e2


class TestDenseFullSpectrum:
    def test_identity(self):
        w = dense_full_spectrum(np.eye(4))
        assert np.allclose(w, np.ones(4))

    def test_dim_guard(self, monkeypatch):
        monkeypatch.setattr(biortho, "DENSE_DIM_CAP", 2)
        with pytest.raises(DimTooLargeError):
            dense_full_spectrum(np.eye(3))

    def test_open_ssh_boundary_modes_near_zero_re(self):
        H = open_boundary_matrix(SshParams(v1=1.5, v2=0.0, u=0.1, L=20))
        w = dense_full_spectrum(H)
        near_zero = w[np.abs(w.real) < 1e-3]
        assert len(near_zero) == 2
        assert np.allclose(sorted(near_zero.imag), [-0.1, 0.1], atol=1e-3)

    def test_xxz_sector_conjugation_closure(self):
        from ptfidelity.xxz import XxzParams, build_hamiltonian

        H = build_hamiltonian(XxzParams(jz=1.0, gamma=0.5, L=10)).to_dense()
        w = dense_full_spectrum(H)
        assert greedy_conjugate_closure_defect(w) < 1e-9


class TestGroundIndex:
    def test_smallest_re_plus_im_tie_break(self):
        w = np.array([-1.0 + 0.5j, -1.0 - 0.5j, 2.0 + 0j])
        assert ground_state_index(w) == 0

    def test_plain_minimum(self):
        w = np.array([3.0 + 0j, -2.0 + 0j, 0.5 + 0j])
        assert ground_state_index(w) == 1


class TestDenseGroundPair:
    @pytest.mark.parametrize("n", [2, 7, 24, 48])
    def test_matches_biorthogonal_eig_ground_pair(self, n, rng):
        H = random_diagonalizable(n, rng)
        es = biorthogonal_eig(H)
        w, g, right, left, residual = dense_ground_pair(H)
        k = es.ground_index()
        assert g == k
        assert np.abs(w - es.eigenvalues).max() < 1e-10 * np.abs(w).max()
        assert np.abs(right - es.right_vectors[:, k]).max() < 1e-10
        assert np.abs(left - es.left_vectors[k]).max() < 1e-10 * np.abs(left).max()
        assert abs(left @ right - 1.0) < 1e-12
        assert residual == pytest.approx(np.linalg.norm(H @ right - w[g] * right), rel=1e-12)
        assert residual < 1e-10 * np.linalg.norm(H, 1)

    def test_exactly_singular_shift(self):
        # a diagonal matrix's computed ground energy is exact, so H - E I has
        # an exactly zero pivot; the pivot floor still gives the eigenvector
        w, g, right, left, _ = dense_ground_pair(np.diag([2.0, -1.0, 3.0]))
        assert w[g] == -1.0
        assert np.allclose(right, [0, 1, 0], atol=1e-15)
        assert np.allclose(left, [0, 1, 0], atol=1e-15)
        w, g, right, left, residual = dense_ground_pair(np.zeros((3, 3)))
        assert residual == 0.0 and abs(left @ right - 1.0) < 1e-15

    def test_only_the_ground_pair_must_be_non_defective(self):
        # a Jordan block above the ground state: the full eigensystem is
        # defective, the ground pair is not
        H = np.zeros((4, 4))
        H[:2, :2] = [[-3.0, 0.5], [0.5, -1.0]]
        H[2:, 2:] = [[5.0, 1.0], [0.0, 5.0]]
        with pytest.raises(DefectiveMatrixError):
            biorthogonal_eig(H)
        w, g, right, left, _ = dense_ground_pair(H)
        assert abs(w[g] - (-2 - np.sqrt(1.25))) < 1e-12
        assert np.abs(right[2:]).max() < 1e-15 and np.abs(left[2:]).max() < 1e-15

    @pytest.mark.parametrize("H", [
        np.array([[1j, 1.0], [1.0, -1j]]),                 # PT block at its EP
        np.array([[5.0, 1.0], [0.0, 5.0]]),                # exact Jordan block
    ])
    def test_defective_ground_pair_raises(self, H):
        with pytest.raises(DefectiveMatrixError, match="below ep_guard 1.000e-12"):
            dense_ground_pair(H)

    def test_residual_bound_raises_before_the_overlap_guard(self):
        # the jz = 0, gamma = 1, L = 6 XXZ sector has a defective ground
        # cluster that no inverse-iteration vector resolves
        from ptfidelity.xxz import XxzParams, build_hamiltonian

        H = build_hamiltonian(XxzParams(jz=0.0, gamma=1.0, L=6)).to_dense()
        with pytest.raises(NoConvergenceError):
            dense_ground_pair(H)


class TestScaleFreeOverlapFloor:
    """The EP decision of the dense solvers does not depend on the scale of
    the matrix: rounding leaves an exact EP2 an overlap far below
    sqrt(eps), and a pair 1e-12 from it an overlap far above."""

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0, 10.0, 1000.0])
    def test_exact_ep_raises_at_every_scale(self, c):
        H = c * np.array([[1j, 1.0], [1.0, -1j]])
        with pytest.raises(DefectiveMatrixError, match="overlap"):
            dense_ground_pair(H)
        with pytest.raises(DefectiveMatrixError):
            biorthogonal_eig(H)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0, 10.0, 1000.0])
    def test_pair_near_the_ep_returns(self, c):
        d = 1e-12
        H = c * np.array([[1j * (1 - d), 1.0], [1.0, -1j * (1 - d)]])
        w, g, right, left, _ = dense_ground_pair(H)
        assert abs(w[g] + c * np.sqrt(2 * d)) < 1e-3 * c * np.sqrt(2 * d)
        assert abs(left @ right - 1.0) < 1e-9
        # the raw overlap of the unit vectors is sqrt(2 d)
        assert 1 / np.linalg.norm(left) == pytest.approx(np.sqrt(2 * d), rel=1e-3)


def _centrohermitian(n, seed):
    """Random complex ``H`` with ``J conj(H) J == H`` exactly: the sum of
    ``X`` and its reversed conjugate does not depend on the order."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return X + X[::-1, ::-1].conj()


# fixed examples, so that a Tier-1 run does not depend on luck
_PT_PROPERTY = settings(derandomize=True, database=None, deadline=None)
_ORDERS = st.integers(1, 9)
_SEEDS = st.integers(0, 2**32 - 1)


class TestPtRealForm:
    """A complex matrix that is exactly PT symmetric under basis reversal and
    conjugation (centrohermitian) is solved on its real form ``Q^H H Q``;
    the results are those of the complex path."""

    @_PT_PROPERTY
    @given(n=_ORDERS, seed=_SEEDS)
    @example(n=64, seed=0)
    def test_spectrum_is_the_complex_paths(self, n, seed):
        H = _centrohermitian(n, seed)
        w = dense_full_spectrum(H)
        z = np.linalg.eigvals(H)
        dist = np.abs(w[:, None] - z[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert dist[rows, cols].max() <= 1e-12 * np.linalg.norm(H, 2)
        # real LAPACK returns complex eigenvalues in exact conjugate pairs
        assert np.array_equal(np.sort_complex(w), np.sort_complex(w.conj()))

    @_PT_PROPERTY
    @given(n=_ORDERS, seed=_SEEDS)
    @example(n=64, seed=0)
    def test_ground_pair_matches_biorthogonal_eig(self, n, seed):
        H = _centrohermitian(n, seed)
        es = biorthogonal_eig(H)
        w, g, right, left, residual = dense_ground_pair(H)
        k = es.ground_index()
        # a conjugate pair is tied in Re exactly here and only to rounding
        # in the complex path, so the sorted indices may differ
        assert abs(w[g] - es.eigenvalues[k]) <= 1e-10 * np.abs(w).max()
        assert np.abs(right - es.right_vectors[:, k]).max() <= 1e-10
        assert np.abs(left - es.left_vectors[k]).max() <= 1e-10 * np.abs(left).max()
        assert abs(left @ right - 1.0) < 1e-12
        assert residual == float(np.linalg.norm(H @ right - w[g] * right))

    @_PT_PROPERTY
    @given(n=_ORDERS, seed=_SEEDS, data=st.data())
    def test_one_ulp_off_takes_the_complex_path(self, n, seed, data):
        H = _centrohermitian(n, seed)
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        moved = H.copy()
        # an entry that is its own mirror image is real: move its zero
        # imaginary part, since moving its real part keeps the symmetry
        part = moved.imag if (i, j) == (n - 1 - i, n - 1 - j) else moved.real
        part[i, j] = np.nextafter(part[i, j], np.inf)
        assert _pt_real_form(H) is not None
        assert _pt_real_form(moved) is None
        z = np.linalg.eigvals(moved)
        assert np.array_equal(dense_full_spectrum(moved), z[np.lexsort((z.imag, z.real))])
