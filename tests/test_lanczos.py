import logging

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from ptfidelity import (
    NoConvergenceError,
    complex_symmetric_lanczos,
    ground_state_index,
)
from ptfidelity.xxz import (
    XxzParams,
    build_hamiltonian,
    build_m0_basis,
    ground_state,
)


class CountingOperator:
    """Matrix-vector product that counts how often the solver applies it."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.calls = 0

    def __call__(self, v):
        self.calls += 1
        return self.matrix @ v


def test_real_tridiagonal_smallest_eigenvalue():
    A = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    res = complex_symmetric_lanczos(A, 3, rng=np.random.default_rng(1))
    assert abs(res.eigenvalue - (2.0 - np.sqrt(2.0))) < 1e-12
    assert res.residual < 1e-10


def test_imaginary_pair_tie_break_to_plus_im():
    A = np.array([[0.0, 1j], [1j, 0.0]])  # eigenvalues +-i, both Re = 0
    res = complex_symmetric_lanczos(A, 2, rng=np.random.default_rng(2))
    assert abs(res.eigenvalue - 1j) < 1e-12


def test_left_vector_is_transpose_by_symmetry():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    A = 0.5 * (A + A.T)
    res = complex_symmetric_lanczos(A, 40, rng=rng, max_iter=80)
    x = res.vector
    left_resid = x @ A - res.eigenvalue * x
    assert np.abs(left_resid).max() < 1e-8


@pytest.mark.parametrize("L,jz,gamma", [(8, 0.5, 0.1), (10, 1.0, 0.5), (12, 0.5, 0.1)])
def test_matches_dense_ground_value(L, jz, gamma):
    basis = build_m0_basis(L)
    H = build_hamiltonian(XxzParams(jz=jz, gamma=gamma, L=L), basis)
    res = complex_symmetric_lanczos(H, basis.size, rng=np.random.default_rng(4),
                                    max_iter=400)
    w = np.linalg.eigvals(H.to_dense())
    dense = w[ground_state_index(w)]
    assert abs(res.eigenvalue - dense) < 1e-10


def test_quasi_null_seed_restarts():
    A = np.diag(np.array([1.0, 2.0, 3.0, 4.0], dtype=complex))
    seed = np.zeros(4, dtype=complex)
    seed[0] = 1.0
    seed[1] = 1j    # <v, v> = 1 - 1 = 0, but ||v|| = sqrt(2)
    res = complex_symmetric_lanczos(A, 4, v0=seed, rng=np.random.default_rng(5))
    # the seed spans an invariant subspace that holds e0: two steps
    assert res.restarts == 0
    assert abs(res.eigenvalue - 1.0) < 1e-12


def test_quasi_null_exhausts_restarts():
    A = np.diag(np.array([1.0, 2.0], dtype=complex))
    seed = np.array([1.0, 1j])
    res = complex_symmetric_lanczos(A, 2, v0=seed, restart_max=0,
                                    rng=np.random.default_rng(6))
    assert abs(res.eigenvalue - 1.0) < 1e-12
    assert res.restarts == 0


def test_no_convergence_raises():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((200, 200))
    A = 0.5 * (A + A.T)
    with pytest.raises(NoConvergenceError):
        complex_symmetric_lanczos(A, 200, max_iter=3, rng=rng)


def test_seed_vector_determinism():
    rng1 = np.random.default_rng(8)
    rng2 = np.random.default_rng(8)
    A = np.diag(np.arange(1.0, 30.0)) + 0.01 * np.ones((29, 29))
    r1 = complex_symmetric_lanczos(A, 29, rng=rng1)
    r2 = complex_symmetric_lanczos(A, 29, rng=rng2)
    assert r1.eigenvalue == r2.eigenvalue
    assert np.array_equal(r1.vector, r2.vector)


def test_iterations_account_for_every_krylov_matvec(caplog):
    # a start next to level 150 of a linear spectrum of 300 levels needs
    # more Krylov steps than one cycle holds to reach level 0
    d = np.linspace(0.0, 1.0, 300) + 0.01j * np.sin(np.arange(300))
    op = CountingOperator(np.diag(d))
    seed = np.zeros(300, dtype=complex)
    seed[150] = 1.0
    seed += 1e-4 * np.random.default_rng(0).standard_normal(300)
    with caplog.at_level(logging.DEBUG, logger="ptfidelity.lanczos"):
        res = complex_symmetric_lanczos(op, 300, v0=seed, max_iter=600,
                                        rng=np.random.default_rng(9))
    assert abs(res.eigenvalue - d[0]) < 1e-10
    assert res.restarts >= 2
    # every matvec beyond the Krylov steps is a true-residual check, and
    # there is at most one per Ritz interval plus one per cycle
    checks = op.calls - res.iterations
    assert 1 <= checks <= res.iterations // 10 + res.restarts + 1
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == res.restarts
    assert all("krylov-cap" in m for m in messages)


def test_matvecs_count_every_application():
    # restarting solve: cycles capped by KRYLOV_CAP
    d = np.linspace(0.0, 1.0, 300) + 0.01j * np.sin(np.arange(300))
    op = CountingOperator(np.diag(d))
    seed = np.zeros(300, dtype=complex)
    seed[150] = 1.0
    seed += 1e-4 * np.random.default_rng(0).standard_normal(300)
    res = complex_symmetric_lanczos(op, 300, v0=seed, max_iter=600,
                                    rng=np.random.default_rng(9))
    assert res.restarts >= 2
    assert res.matvecs == op.calls
    # a solve that converges in its first cycle
    basis = build_m0_basis(10)
    op = CountingOperator(build_hamiltonian(XxzParams(jz=1.0, gamma=0.1, L=10),
                                            basis))
    res = complex_symmetric_lanczos(op, basis.size, rng=np.random.default_rng(0))
    assert res.restarts == 0
    assert res.matvecs == op.calls > res.iterations


def test_invariant_subspace_of_one_vector():
    # e0 spans an invariant subspace at m=1, where T - theta I is exactly 0
    A = np.diag([1.0, 2.0, 3.0])
    res = complex_symmetric_lanczos(A, 3, v0=np.array([1.0, 0.0, 0.0]))
    assert res.eigenvalue == pytest.approx(1.0, abs=1e-14)
    assert res.residual <= 1e-14


def test_invariant_subspace_of_one_complex_vector():
    # the same in complex arithmetic: the floored pivot of a complex T
    A = np.diag([1.0, 2.0, 3.0]).astype(complex)
    e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    res = complex_symmetric_lanczos(A, 3, v0=e0)
    assert res.eigenvalue == pytest.approx(1.0, abs=1e-14)
    assert res.residual <= 1e-14


def test_degenerate_ground_level():
    res = complex_symmetric_lanczos(np.diag([1.0, 1.0, 3.0]), 3,
                                    rng=np.random.default_rng(0))
    assert abs(res.eigenvalue - 1.0) < 1e-12


def test_converged_solve_logs_nothing(caplog):
    basis = build_m0_basis(10)
    H = build_hamiltonian(XxzParams(jz=1.0, gamma=0.1, L=10), basis)
    with caplog.at_level(logging.DEBUG, logger="ptfidelity.lanczos"):
        res = complex_symmetric_lanczos(H, basis.size,
                                        rng=np.random.default_rng(0))
    assert res.restarts == 0
    assert caplog.records == []


@pytest.mark.parametrize("L", [10, 12])
@pytest.mark.parametrize("gamma", [0.05, 0.1, 0.3])
def test_seed_independent_cost_and_ground_state(L, gamma):
    basis = build_m0_basis(L)
    p = XxzParams(jz=1.0, gamma=gamma, L=L)
    H = build_hamiltonian(p, basis)
    w = np.linalg.eigvals(H.to_dense())
    ref = w[ground_state_index(w)]
    counts, classes = [], set()
    for seed in range(100):
        g = ground_state(p, basis=basis, seed=seed)
        counts.append(g.matvecs)
        classes.add(g.pt_class)
        assert abs(g.energy.real - ref.real) < 1e-10
        assert abs(abs(g.energy.imag) - abs(ref.imag)) < 1e-10
    assert max(counts) <= 3 * np.median(counts)
    assert len(classes) == 1


# Jz=1 sector EPs in gamma: 0.6470, 0.3455, 0.2223, 0.1580, 0.1196, 0.0945,
# 0.0771 for L=4..16; each size is probed below and above its EP
@pytest.mark.parametrize("L,gamma,pt_class", [
    (4, 0.52, "unbroken"), (4, 0.81, "broken"),
    (6, 0.28, "unbroken"), (6, 0.43, "broken"),
    (8, 0.18, "unbroken"), (8, 0.28, "broken"),
    (10, 0.13, "unbroken"), (10, 0.2, "broken"),
    (12, 0.095, "unbroken"), (12, 0.15, "broken"),
    (14, 0.075, "unbroken"), (14, 0.12, "broken"),
    (16, 0.062, "unbroken"), (16, 0.096, "broken"),
])
def test_ground_state_matches_oracle_every_sector(L, gamma, pt_class):
    basis = build_m0_basis(L)
    p = XxzParams(jz=1.0, gamma=gamma, L=L)
    H = build_hamiltonian(p, basis)
    if basis.size <= 924:
        w = np.linalg.eigvals(H.to_dense())
    else:
        w = spla.eigs(H.matrix, k=6, which="SR", tol=0,
                      v0=np.ones(basis.size, dtype=complex),
                      return_eigenvectors=False)
    ref = w[ground_state_index(w)]
    g = ground_state(p, basis=basis, seed=L)
    assert abs(g.energy.real - ref.real) < 1e-10
    assert abs(abs(g.energy.imag) - abs(ref.imag)) < 1e-10
    assert (abs(ref.imag) > 1e-8) == (pt_class == "broken")
    assert g.pt_class == pt_class


def test_cycle_ending_worse_than_its_start_reseeds():
    # the ground Re of L=8, Jz=0 is sixfold degenerate near gamma=1; from
    # the gamma=1 ground state, a Krylov basis orthogonal in the bilinear
    # form ran the gamma=1.001 cycle to the full dimension and ended on a
    # Ritz residual near 1e98, so the solve had to reseed; an orthonormal
    # basis converges in its first cycle
    ga = ground_state(XxzParams(jz=0.0, gamma=1.0, L=8), seed=1)
    p = XxzParams(jz=0.0, gamma=1.001, L=8)
    res = complex_symmetric_lanczos(build_hamiltonian(p), 70, v0=ga.right,
                                    max_iter=600, rng=np.random.default_rng(1))
    dense = ground_state(p, method="dense")
    assert abs(res.eigenvalue - dense.energy) <= 1e-8
    assert dense.pt_class == "broken" and abs(res.eigenvalue.imag) > 1e-8
    assert res.restarts == 0


class TestPredictedExtractions:
    """Ritz pairs are extracted where the Ritz estimate ||w|| |y_m| is
    predicted to reach the tolerance, not at a fixed interval."""

    def test_prediction_beyond_the_budget_stops_at_max_iter(self, monkeypatch):
        # unconstrained, this cold solve extracts at m = 10 and then at the
        # predicted m = 30; a budget of 25 cuts the second extraction short
        basis = build_m0_basis(10)
        op = CountingOperator(build_hamiltonian(XxzParams(jz=1.0, gamma=0.1, L=10),
                                                basis))
        sizes, eigvals = [], np.linalg.eigvals

        def recording(a):
            sizes.append(len(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", recording)
        res = complex_symmetric_lanczos(op, basis.size, rng=np.random.default_rng(0))
        assert sizes[:2] == [10, 30] and res.extractions == len(sizes)
        sizes.clear()
        op.calls = 0
        with pytest.raises(NoConvergenceError, match="after 25 Krylov steps"):
            complex_symmetric_lanczos(op, basis.size, max_iter=25,
                                      rng=np.random.default_rng(0))
        assert sizes == [10, 25]
        assert op.calls == 25 + 1          # the steps and one residual check

    @pytest.mark.parametrize("n,seed", [(500, 0), (1000, 0), (1000, 1),
                                        (1000, 2), (1000, 3)])
    def test_clustered_spectrum_still_converges(self, n, seed):
        # n evenly spaced levels: every cycle fills KRYLOV_CAP and the solve
        # restarts; 228-253 steps at n=500 and 435-462 at n=1000
        d = np.linspace(0.0, 1.0, n) + 0.01j * np.sin(np.arange(n))
        res = complex_symmetric_lanczos(np.diag(d), n, max_iter=2000,
                                        rng=np.random.default_rng(seed))
        assert abs(res.eigenvalue - d[0]) < 1e-10
        assert res.residual <= 1e-10
        assert res.iterations <= 750
        assert res.restarts >= 1

    def test_extractions_counted_across_cycles(self):
        d = np.linspace(0.0, 1.0, 300) + 0.01j * np.sin(np.arange(300))
        res = complex_symmetric_lanczos(np.diag(d), 300, max_iter=600,
                                        rng=np.random.default_rng(9))
        assert res.restarts >= 1
        # at least one extraction per cycle, and none without a Krylov step
        assert res.restarts + 1 <= res.extractions <= res.iterations


class TestDegenerateStarts:
    """A start vector of zero or non-finite norm reseeds from ``rng``."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("fill", [0.0, np.nan, np.inf])
    def test_start_without_a_norm_reseeds_once(self, caplog, dtype, fill):
        A = np.diag([1.0, 2.0, 3.0])
        v0 = np.full(3, fill, dtype=dtype)
        with caplog.at_level(logging.DEBUG, logger="ptfidelity.lanczos"):
            res = complex_symmetric_lanczos(A, 3, v0=v0,
                                            rng=np.random.default_rng(0))
        assert res.eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert res.restarts == 1
        assert np.isrealobj(res.vector) == (dtype is float)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1
        assert messages[0].startswith("reseed") and "degenerate-start" in messages[0]

    def test_reseeds_are_bounded(self):
        A = np.diag([1.0, 2.0, 3.0])
        with pytest.raises(NoConvergenceError, match="after 0 reseeds"):
            complex_symmetric_lanczos(A, 3, v0=np.zeros(3), restart_max=0)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_empty_dimension_is_rejected(self, dim):
        with pytest.raises(ValueError, match="at least 1"):
            complex_symmetric_lanczos(lambda v: v, dim)


class TestRealArithmetic:
    """The iteration runs in the dtype of its start vector."""

    def test_real_start_runs_real(self):
        A = np.diag(np.arange(1.0, 41.0)) + 0.1 * np.ones((40, 40))
        res = complex_symmetric_lanczos(A, 40, v0=np.ones(40))
        assert np.isrealobj(res.vector)
        assert abs(res.eigenvalue - np.linalg.eigvalsh(A)[0]) < 1e-12

    def test_no_start_stays_complex(self):
        A = np.diag(np.arange(1.0, 41.0)) + 0.1 * np.ones((40, 40))
        res = complex_symmetric_lanczos(A, 40, rng=np.random.default_rng(0))
        assert np.iscomplexobj(res.vector)
        assert abs(res.eigenvalue - np.linalg.eigvalsh(A)[0]) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_real_nonsymmetric_operator(self, seed):
        # a real matrix with complex pairs: the smallest-Re level is a
        # conjugate pair, and the tie-break takes its +Im member
        rng = np.random.default_rng(seed)
        n = 120
        A = rng.standard_normal((n, n)) / np.sqrt(n) + np.diag(np.linspace(0, 4, n))
        w = np.linalg.eigvals(A)
        ref = w[ground_state_index(w)]
        res = complex_symmetric_lanczos(A, n, v0=rng.standard_normal(n),
                                        max_iter=600, rng=rng)
        assert abs(res.eigenvalue - ref) < 1e-9
        assert res.residual <= 1e-10
        x = res.vector
        assert np.linalg.norm(A @ x - res.eigenvalue * x) == pytest.approx(
            res.residual, rel=1e-6, abs=1e-14)
