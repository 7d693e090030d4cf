"""The small dense kernels of every Ritz extraction and ground-pair choice:
``lanczos._ritz_vector``, ``biortho._shifted_lu``, ``biortho.gauge_factor``
and ``biortho.ground_state_index``.

Each is checked on its edge cases and bit for bit against a local copy of
its earlier, longer body (the ``reference_*`` functions), which the solver
counters and sweep outputs were recorded with.
"""
import numpy as np
import pytest
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgetrf, dgetrs, zgetrf, zgetrs

from ptfidelity.biortho import _shifted_lu, gauge_factor, ground_state_index, re_tie_tolerance
from ptfidelity.lanczos import _ritz_vector

EPS = np.finfo(float).eps
SIZES = range(1, 41)


def reference_shifted_lu(A, shift, pivot_floor):
    real = np.isrealobj(A) and np.imag(shift) == 0
    dtype, getrf, getrs = ((float, dgetrf, dgetrs) if real
                           else (complex, zgetrf, zgetrs))
    shifted = np.array(A, dtype=dtype, order="F")
    shifted.flat[::len(A) + 1] -= np.real(shift) if real else shift
    lu, piv, _ = getrf(shifted, overwrite_a=True)
    small = np.flatnonzero(np.abs(lu.diagonal()) < pivot_floor)
    lu[small, small] = pivot_floor
    return lu, piv, getrs


def reference_ritz_vector(T, theta):
    lu, piv, getrs = reference_shifted_lu(
        T, theta, np.finfo(float).eps * np.abs(T).max() or 1.0)
    y = np.ones(len(T), dtype=lu.dtype)
    best = best_resid = None
    for _ in range(2):
        y, _ = getrs(lu, piv, y, overwrite_b=True)
        y /= np.linalg.norm(y)
        resid = np.linalg.norm(T @ y - theta * y)
        if best is None or resid < best_resid:
            best, best_resid = y.copy(), resid
    return best


def reference_gauge_factor(v):
    mag = np.abs(v)
    first = np.argmax(mag >= (1 - 1e-8) * mag.max(axis=0), axis=0)
    pivot = np.take_along_axis(v, np.expand_dims(first, 0), 0)[0]
    return np.linalg.norm(mag, axis=0) * (pivot / np.abs(pivot))


def reference_ground_state_index(eigenvalues):
    w = np.asarray(eigenvalues)
    tied = np.nonzero(w.real <= w.real.min() + re_tie_tolerance(w))[0]
    return int(tied[np.argmax(w.imag[tied])])


def projected(rng, m, dtype):
    """An upper Hessenberg m x m matrix, the shape of a Krylov projection."""
    T = np.triu(rng.standard_normal((m, m)), -1)
    if dtype is complex:
        T = T + 1j * np.triu(rng.standard_normal((m, m)), -1)
    return T


def same(a, b):
    """Bit-for-bit equality of arrays or scalars, NaN equal to NaN."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestShiftedLu:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_factors_the_shifted_matrix(self, dtype):
        rng = np.random.default_rng(11)
        for m in (1, 2, 7, 20):
            A = projected(rng, m, dtype)
            for shift in (0.5, -1.25 + 0.75j):
                lu, piv, _ = _shifted_lu(A, shift, 0.0)
                ref_lu, ref_piv = lu_factor(A - shift * np.eye(m))
                # the shift reaches the diagonal of the factored copy
                assert np.array_equal(lu, ref_lu)
                assert np.array_equal(piv, ref_piv)

    def test_leaves_its_input_alone(self):
        A = np.asfortranarray(np.arange(9.0).reshape(3, 3))
        before = A.copy()
        _shifted_lu(A, 2.0, 1e-3)
        assert np.array_equal(A, before)

    def test_small_pivot_is_floored(self):
        lu, _, getrs = _shifted_lu(np.diag([1.0, 1e-20]), 0.0, 1e-10)
        assert np.array_equal(lu.diagonal(), [1.0, 1e-10])
        assert lu.dtype == float and getrs is dgetrs

    def test_exactly_singular_shift_gives_the_floor(self):
        lu, _, _ = _shifted_lu(np.diag([2.0, 3.0]), 3.0, 1e-12)
        assert np.array_equal(lu.diagonal(), [-1.0, 1e-12])

    def test_nan_pivot_is_left_and_the_others_floored(self):
        A = np.array([[np.nan, 0.0], [0.0, 0.0]])
        lu, piv, _ = _shifted_lu(A, 0.0, 1.0)
        ref_lu, ref_piv, _ = reference_shifted_lu(A, 0.0, 1.0)
        assert np.isnan(lu[0, 0]) and lu[1, 1] == 1.0
        assert same(lu, ref_lu) and same(piv, ref_piv)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bit_identical_to_the_reference(self, dtype):
        rng = np.random.default_rng(23)
        for m in SIZES:
            A = projected(rng, m, dtype)
            w = np.linalg.eigvals(A)
            shifts = [w[ground_state_index(w)], w[0].real, 0.3 - 0.2j]
            for shift in shifts:
                floor = EPS * np.abs(A).max()
                got, ref = _shifted_lu(A, shift, floor), reference_shifted_lu(A, shift, floor)
                assert same(got[0], ref[0]) and same(got[1], ref[1]), (m, shift)
                assert got[2] is ref[2]


class TestRitzVector:
    def test_zero_matrix_of_one(self):
        # T - theta I = 0 exactly: the floored pivot still gives the vector
        y = _ritz_vector(np.zeros((1, 1)), 0.0)
        assert np.array_equal(y, [1.0])

    def test_complex_ritz_value_of_a_real_matrix(self):
        T = np.array([[0.0, -1.0], [1.0, 0.0]])           # eigenvalues +-i
        w = np.linalg.eigvals(T)
        theta = w[ground_state_index(w)]
        assert theta == 1j
        y = _ritz_vector(T, theta)
        assert y.dtype == complex
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(T @ y - theta * y) < 1e-15
        assert same(y, reference_ritz_vector(T, theta))

    @pytest.mark.parametrize("split", [1e-4, 1e-8, 1e-12])
    def test_keeps_the_better_of_two_iterates_next_to_a_split_pair(self, split):
        # eigenvalues 1 +- sqrt(split): next to the EP of [[1, 1], [0, 1]]
        # the second inverse-iteration solve undoes the first
        T = np.array([[1.0, 1.0], [split, 1.0]])
        w = np.linalg.eigvals(T)
        theta = w[ground_state_index(w)]
        lu, piv, getrs = _shifted_lu(T, theta, EPS * np.abs(T).max())
        first = getrs(lu, piv, np.ones(2))[0]
        first /= np.linalg.norm(first)
        second = getrs(lu, piv, first)[0]
        second /= np.linalg.norm(second)

        def resid(y):
            return np.linalg.norm(T @ y - theta * y)

        assert resid(second) > resid(first)
        assert np.array_equal(_ritz_vector(T, theta), first)

    def test_keeps_the_second_iterate_when_it_is_better(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((12, 12))
        T = A + A.T
        theta = np.linalg.eigvalsh(T)[0]
        y = _ritz_vector(T, theta)
        assert np.linalg.norm(T @ y - theta * y) < 1e-12
        assert same(y, reference_ritz_vector(T, theta))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bit_identical_to_the_reference(self, dtype):
        rng = np.random.default_rng(29)
        for m in SIZES:
            big = np.zeros((m + 3, m + 3), dtype=dtype)
            big[:m, :m] = projected(rng, m, dtype)
            T = big[:m, :m]             # a strided view, as in the solver
            w = np.linalg.eigvals(T)
            theta = w[ground_state_index(w)]
            assert same(_ritz_vector(T, theta), reference_ritz_vector(T, theta)), m


class TestGaugeFactor:
    def test_tie_takes_the_first_of_the_largest(self):
        v = np.array([0.5, -1.0j, 1.0 + 1e-10, 1.0])
        c = gauge_factor(v)
        assert c == pytest.approx(np.linalg.norm(v) * -1j, abs=1e-15)
        assert (v / c)[1] == pytest.approx(abs(v[1]) / np.linalg.norm(v), abs=1e-15)

    def test_beyond_the_tie_takes_the_largest(self):
        v = np.array([-1.0, 1.0 + 2e-8])
        assert gauge_factor(v) > 0

    def test_real_vector_keeps_a_real_factor(self):
        c = gauge_factor(np.array([0.0, -3.0, 4.0]))
        assert c == 5.0 and type(c) is np.float64

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_columns_match_the_vector_case(self, dtype):
        rng = np.random.default_rng(31)
        for n in SIZES:
            V = rng.standard_normal((n, 5)).astype(dtype)
            if dtype is complex:
                V += 1j * rng.standard_normal((n, 5))
            V[0, 1] = V[n - 1, 1] = 2.0     # tied largest entries in column 1
            columns = gauge_factor(V)
            for j in range(5):
                assert same(gauge_factor(V[:, j]), columns[j]), (n, j)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bit_identical_to_the_reference(self, dtype):
        rng = np.random.default_rng(37)
        for n in SIZES:
            v = rng.standard_normal(n).astype(dtype)
            if dtype is complex:
                v += 1j * rng.standard_normal(n)
            tied = v.copy()
            tied[n // 2] = tied[0] * -1j if dtype is complex else -tied[0]
            M = rng.standard_normal((n, 3)).astype(dtype)
            for x in (v, tied):
                assert same(gauge_factor(x), reference_gauge_factor(x)), n
            # a matrix takes the vector factor of each column
            assert same(gauge_factor(M),
                        np.array([reference_gauge_factor(c) for c in M.T])), n


class TestGroundStateIndex:
    def test_nan_raises_as_before(self):
        w = np.array([np.nan, 1.0])
        with pytest.raises(ValueError):
            reference_ground_state_index(w)
        with pytest.raises(ValueError):
            ground_state_index(w)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bit_identical_to_the_reference(self, dtype):
        rng = np.random.default_rng(41)
        for m in SIZES:
            T = projected(rng, m, dtype)
            cases = [np.linalg.eigvals(T + T.T), np.linalg.eigvals(T)]
            w = rng.standard_normal(m) + (1j * rng.standard_normal(m) if dtype is complex else 0)
            w[-1] = w[0] + (1j if dtype is complex else 0)   # a tie on the real part
            cases += [w, np.round(w, 1), np.full(m, 2.0, dtype=dtype)]
            for w in cases:
                assert ground_state_index(w) == reference_ground_state_index(w), m
