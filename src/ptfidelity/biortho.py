"""Biorthogonal eigensystems for general complex square matrices.

Left covectors satisfy ``ell @ H = E * ell`` and are paired with right
eigenvectors so that ``ell_n @ r_m = delta_nm`` while keeping the
conventional self-norm ``<r_n|r_n> = 1``.  The raw left/right overlap
magnitude before renormalization is kept as a per-pair conditioning
diagnostic: it tends to zero as the matrix approaches an exceptional
point, where biorthogonal normalization becomes impossible.

Two dense solvers share these conventions.  ``dense_ground_pair`` returns
the spectrum and the single ground-state pair (eigenvalues plus one LU
factorization), which is all a fidelity needs; only that pair must be
non-defective.  ``biorthogonal_eig`` returns every pair, for callers that
need the whole eigensystem (completeness, metric operator, PT partners),
and requires every pair to be non-defective.

``dense_ground_pair`` and ``dense_full_spectrum`` solve a complex matrix
with exact PT symmetry, parity as the reversal J of the basis order times
complex conjugation, through its real form (see ``_pt_real_form``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eig
from scipy.linalg.lapack import dgetrf, dgetrs, zgetrf, zgetrs

from .errors import (
    DefectiveMatrixError,
    DimTooLargeError,
    NoConvergenceError,
    NotBrokenError,
    UnpairableSpectrumError,
)

# Raw-overlap floor of a non-defective pair, the same at every scale of H.
# Rounding moves an exact EP2 by about eps |H|, which can leave its computed
# pair an overlap up to about sqrt(eps), while a pair at relative distance d
# from an EP2 has overlap sqrt(2 d).  Measured on c [[i, 1], [1, -i]] for
# 61 scales c in [1e-3, 1e3].  That matrix is centrohermitian, so
# dense_ground_pair solves its real form: the exact EP gives overlaps of
# 3.2e-15 to 4.1e-15, and the pair 1e-12 from it 1.41e-6 at every c (below
# that the residual bound fails first).  biorthogonal_eig, in complex
# arithmetic, gives the exact EP 2.5e-17 to 2.4e-12 (22 of them above
# 1e-12).  sqrt(eps) = 1.5e-8 is 6000 times the largest exact-EP overlap
# and 1/95 of the near pair's
OVERLAP_FLOOR = float(np.sqrt(np.finfo(float).eps))
# overlap of left and right vectors that coincide to rounding; the error
# message names it for such a pair
EP_GUARD = 1e-12
DENSE_DIM_CAP = 20000


def _as_square(H) -> np.ndarray:
    """``H`` as a square array, real if ``H`` is real and complex otherwise;
    checked finite and nonempty."""
    H = np.asarray(H)
    H = H.astype(float if np.isrealobj(H) else complex, copy=False)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if H.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not np.all(np.isfinite(H.view(float))):
        raise ValueError("matrix entries must be finite")
    return H


@dataclass
class BiorthogonalEigensystem:
    """Paired left covectors / right eigenvectors of a complex matrix.

    Attributes
    ----------
    eigenvalues : (n,) complex array, sorted by (Re, Im) ascending.
    right_vectors : (n, n) complex array, column ``[:, k]`` is ``|R_k>``
        with unit conventional norm and its largest-magnitude component
        rotated to the positive real axis (``gauge_factor``).
    left_vectors : (n, n) complex array, row ``[k, :]`` is the covector
        ``<L_k|`` scaled so that ``left[k] @ right[:, k] == 1``.
    condition_flags : (n,) float array, raw overlap magnitude of the
        unit-normalized left/right pair before rescaling (smallest
        singular value of the overlap block for degenerate clusters).
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    condition_flags: np.ndarray

    @property
    def dim(self) -> int:
        return self.right_vectors.shape[0]

    def overlap_matrix(self) -> np.ndarray:
        """Full pairing matrix ``<L_n|R_m>``; identity for a valid system."""
        return self.left_vectors @ self.right_vectors

    def completeness_defect(self) -> float:
        """Max-norm deviation of ``sum_n |R_n><L_n|`` from the identity."""
        resolution = self.right_vectors @ self.left_vectors
        return float(np.abs(resolution - np.eye(self.dim)).max())

    def ground_index(self) -> int:
        """Index of the ground state: smallest Re E, tie-break largest Im E.

        The tie-break picks one fixed member of each PT pair; this is a
        toolkit convention (the notion of "ground state" is otherwise
        undefined once energies are complex).
        """
        return ground_state_index(self.eigenvalues)


def ground_state_index(eigenvalues: np.ndarray) -> int:
    """Smallest-Re eigenvalue index, ties resolved toward largest Im; real
    parts within ``re_tie_tolerance`` of the smallest count as tied."""
    w = np.asarray(eigenvalues)
    re = w.real
    tied = np.flatnonzero(re <= re.min() + re_tie_tolerance(w))
    if len(tied) == 1:
        return int(tied[0])
    return int(tied[np.argmax(w.imag[tied])])


def re_tie_tolerance(eigenvalues: np.ndarray) -> float:
    """``1e-8`` times the spectral radius of ``eigenvalues``, at least
    ``1e-8``: the real-part tie tolerance of ``ground_state_index``."""
    return 1e-8 * max(1.0, float(np.abs(eigenvalues).max()))


def gauge_factor(v: np.ndarray):
    """Factor ``c`` such that ``v / c`` has unit norm and its largest-magnitude
    entry real and positive; one factor per column when ``v`` is a matrix.

    Entries within a relative ``1e-8`` of the largest magnitude count as tied
    and the first of them is taken, so symmetry-equal entries give the same
    gauge whichever solver produced the vector.
    """
    mag = np.abs(v)
    tied = mag >= (1 - 1e-8) * mag.max(axis=0)
    if mag.ndim == 1:       # the column case below, without its indexing
        pivot = v[np.argmax(tied)]
        norm = math.sqrt(np.add.reduce(mag * mag))
    else:
        first = np.argmax(tied, axis=0)
        pivot = np.take_along_axis(v, np.expand_dims(first, 0), 0)[0]
        norm = np.linalg.norm(mag, axis=0)
    return norm * (pivot / np.abs(pivot))


def _defective(overlap: float, energy) -> DefectiveMatrixError:
    floor = (f"ep_guard {EP_GUARD:.3e}" if overlap < EP_GUARD
             else f"overlap floor sqrt(eps) = {OVERLAP_FLOOR:.3e}")
    return DefectiveMatrixError(
        f"raw biorthogonal overlap {overlap:.3e} below {floor} near "
        f"eigenvalue {energy}: matrix is at (or numerically at) an "
        "exceptional point"
    )


def _shifted_lu(A, shift, pivot_floor):
    """LU factors ``(lu, piv, getrs)`` of ``A - shift I`` for inverse
    iteration, in real arithmetic when ``A`` and ``shift`` are both real.
    Pivots below ``pivot_floor`` are raised to it, as LAPACK's inverse
    iteration does, so an exactly singular shift still gives the
    eigenvector."""
    real = np.isrealobj(A) and shift.imag == 0
    dtype, getrf, getrs = ((float, dgetrf, dgetrs) if real
                           else (complex, zgetrf, zgetrs))
    shifted = np.array(A, dtype=dtype, order="F")
    # the diagonal as a strided view: ravel of an F-ordered array keeps its memory
    shifted.ravel(order="K")[::len(A) + 1] -= shift.real if real else shift
    lu, piv, _ = getrf(shifted, overwrite_a=True)
    small = np.abs(lu.diagonal()) < pivot_floor
    if small.any():
        lu[small, small] = pivot_floor
    return lu, piv, getrs


def _pt_real_form(H):
    """``R = Q^H H Q``, real, when the complex ``H`` is exactly centrohermitian
    (``J conj(H) J == H`` bit for bit, J the exchange matrix); else None.

    ``Q = [[I, 0, iI], [0, sqrt 2, 0], [J, 0, -iJ]] / sqrt 2`` is unitary;
    its middle row and column exist only for odd n (Lee 1980, Linear
    Algebra Appl. 29, 205).  With ``A, x, B`` the first n // 2 rows of
    ``H`` split at the middle column, ``y`` the first half of the middle
    row and ``BJ = B[:, ::-1]``::

        R = [[Re(A + BJ),  sqrt2 Re x,  Im(BJ - A)],
             [sqrt2 Re y,  Re H_mm,     -sqrt2 Im y],
             [Im(A + BJ),  sqrt2 Im x,  Re(A - BJ)]]

    which reads only the first half of ``H`` and is written straight into
    ``R``.  Its eigenvalues are those of ``H``, and its eigenvectors map
    back through ``_from_pt_real_form``.
    """
    if np.isrealobj(H):
        return None
    rev = H[::-1, ::-1]             # no complex n x n temporary
    if not (np.array_equal(H.real, rev.real) and np.array_equal(H.imag, -rev.imag)):
        return None
    n = len(H)
    m, k = n // 2, n - n // 2
    A, BJ = H[:m, :m], H[:m, k:][:, ::-1]
    R = np.empty((n, n))
    np.add(A.real, BJ.real, out=R[:m, :m])
    np.subtract(BJ.imag, A.imag, out=R[:m, k:])
    np.add(A.imag, BJ.imag, out=R[k:, :m])
    np.subtract(A.real, BJ.real, out=R[k:, k:])
    if m < k:
        x, y = H[:m, m], H[m, :m]
        R[:m, m], R[k:, m] = np.sqrt(2) * x.real, np.sqrt(2) * x.imag
        R[m, :m], R[m, k:] = np.sqrt(2) * y.real, -np.sqrt(2) * y.imag
        R[m, m] = H[m, m].real
    return R


def _from_pt_real_form(v):
    """``Q v``: a right eigenvector of ``R`` mapped to one of ``H``.  For a
    real row covector ``l`` of ``R``, ``conj(Q l)`` is the covector
    ``l Q^H`` of ``H``."""
    n = len(v)
    m, k = n // 2, n - n // 2
    a, b = v[:m], 1j * v[k:]
    out = np.empty(n, complex)
    out[:m] = np.sqrt(0.5) * (a + b)
    out[m:k] = v[m:k]
    out[k:] = (np.sqrt(0.5) * (a - b))[::-1]
    return out


def dense_ground_pair(H) -> tuple[np.ndarray, int, np.ndarray, np.ndarray, float]:
    """Spectrum and biorthogonal ground-state pair of a dense matrix.

    The eigenvalues come from ``dense_full_spectrum`` and the ground index
    from ``ground_state_index``.  One LU factorization of ``H - E I`` then
    serves three inverse-iteration solves per side from one fixed start
    vector: plain solves give the right vector, transposed solves the left
    covector.  Pivots below ``eps |H|_1`` are raised to it, as LAPACK's
    inverse iteration does, so an exactly singular shift (a triangular or
    zero ``H``) still gives the eigenvectors.  The right vector carries the
    ``gauge_factor`` convention and the covector is scaled so that
    ``left @ right == 1``.  A real ``H`` stays real: its eigenvalues come
    from the real LAPACK solver, and its LU and vectors are real when E is.
    An exactly centrohermitian complex ``H`` (PT symmetric under basis
    reversal and conjugation) has its eigenvalues from its real form
    ``R = Q^H H Q`` (``_pt_real_form``).  When E is real the real LU of
    ``R - E I`` gives the pair ``(u, l)`` of ``R``, which maps back as
    ``right = Q u`` and ``left = l Q^H`` before the gauge and the scaling;
    a complex E is shifted out of ``H`` itself.  Both residuals are taken
    on ``H``.

    Returns
    -------
    (eigenvalues, index, right, left, residual) : eigenvalues sorted by
        (Re, Im) ascending, ``eigenvalues[index]`` the ground energy E, and
        ``residual = |H right - E right|`` of the returned right vector.

    Raises
    ------
    NoConvergenceError
        If the right vector or the unit left covector leaves a residual
        above ``1e-10 |H|_1``.
    DefectiveMatrixError
        If the raw overlap of the unit left and right vectors is below
        ``OVERLAP_FLOOR``: the ground pair is at, or numerically at, an
        exceptional point.  No other eigenpair is checked.
    """
    H = _as_square(H)
    R = _pt_real_form(H)
    w = dense_full_spectrum(H if R is None else R)
    g = ground_state_index(w)
    energy = w[g]
    if energy.imag != 0:        # a complex shift makes either LU complex
        R = None
    A = H if R is None else R
    norm1 = np.linalg.norm(H, 1)
    pivot_floor = np.finfo(float).eps * norm1 or 1.0      # H = 0: any vector
    lu, piv, getrs = _shifted_lu(A, energy, pivot_floor)
    right = left = np.random.default_rng(0).standard_normal(len(H)).astype(lu.dtype)
    for _ in range(3):
        right = getrs(lu, piv, right)[0]
        right /= np.linalg.norm(right)
        left = getrs(lu, piv, left, trans=1)[0]
        left /= np.linalg.norm(left)
    if R is not None:
        right, left = _from_pt_real_form(right), _from_pt_real_form(left).conj()
    right = right / gauge_factor(right)
    residual = float(np.linalg.norm(H @ right - energy * right))
    left_residual = float(np.linalg.norm(left @ H - energy * left))
    bound = 1e-10 * norm1
    if not (residual <= bound and left_residual <= bound):     # NaN fails too
        raise NoConvergenceError(
            f"dense inverse iteration left residual "
            f"{max(residual, left_residual):.3e} at E={energy}")
    overlap = left @ right
    if not abs(overlap) >= OVERLAP_FLOOR:
        raise _defective(abs(overlap), energy)
    return w, g, right, left / overlap, residual


def biorthogonal_eig(H) -> BiorthogonalEigensystem:
    """Biorthogonally normalized eigensystem of a complex square matrix.

    One LAPACK call (``scipy.linalg.eig`` with ``left=True``) returns each
    eigenvalue with its left and right eigenvectors already paired.
    Eigenvalues chained within ``1e-8`` times the spectral radius (by real
    part, then by imaginary part inside each real-part run) form a cluster,
    re-biorthogonalized as a block, which keeps the pairing well defined for
    diagonalizable matrices with exact symmetry degeneracies.

    Parameters
    ----------
    H : (n, n) array_like

    Raises
    ------
    DefectiveMatrixError
        If any pair's raw overlap (block smallest singular value) is below
        ``OVERLAP_FLOOR``: the matrix is at, or numerically at, an
        exceptional point.
    """
    H = _as_square(H).astype(complex, copy=False)
    w, left, right = eig(H, left=True, check_finite=False)

    order = np.lexsort((w.imag, w.real))
    w = w[order]
    right = right[:, order]                       # unit columns from LAPACK
    left = left.T[order]                          # unit rows once conjugated
    np.conjugate(left, out=left)

    tol_pair = 1e-8 * max(float(np.abs(w).max()), 1e-300)
    runs = np.split(np.arange(len(w)), np.nonzero(np.diff(w.real) > tol_pair)[0] + 1)
    blocks = []
    for run in runs:
        run = run[np.argsort(w.imag[run], kind="stable")]
        chains = np.split(run, np.nonzero(np.diff(w.imag[run]) > tol_pair)[0] + 1)
        blocks += [(c, left[c] @ right[:, c]) for c in chains if len(c) > 1]

    overlap = np.einsum("ij,ji->i", left, right)  # raw <L_k|R_k> of unit vectors
    flags = np.abs(overlap)
    for c, B in blocks:
        flags[c] = np.linalg.svd(B, compute_uv=False)[-1]
        overlap[c] = 1.0
    bad = np.nonzero(flags < OVERLAP_FLOOR)[0]
    if bad.size:
        raise _defective(flags[bad[0]], w[bad[0]])
    left /= overlap[:, None]
    for c, B in blocks:
        left[c] = np.linalg.solve(B, left[c])

    c = gauge_factor(right)
    right /= c
    left *= c[:, None]
    return BiorthogonalEigensystem(
        eigenvalues=w,
        right_vectors=right,
        left_vectors=left,
        condition_flags=flags,
    )


@dataclass
class PTClassification:
    """Partition of an eigensystem into PT-unbroken and PT-broken states.

    ``real_indices`` hold states with |Im E| below ``tol_real``; every other
    index appears in ``pair_map``, an involution sending each PT-broken
    state to its conjugate partner.
    """

    real_indices: tuple[int, ...]
    pair_map: dict[int, int]
    tol_real: float

    def is_broken(self, n: int) -> bool:
        return n in self.pair_map

    def partner(self, n: int) -> int:
        return self.pair_map[n]

    @property
    def n_broken(self) -> int:
        return len(self.pair_map)


def classify_pt(
    es: BiorthogonalEigensystem | np.ndarray,
    tol_real: float | None = None,
) -> PTClassification:
    """Classify eigenvalues as PT-unbroken (real) or conjugate-paired.

    ``tol_real`` defaults to ``1e-10`` times the spectral radius (at least
    1).  Complex eigenvalues are greedily paired with the nearest conjugate
    within ``1e-8`` times that scale; the number of complex eigenvalues of
    a PT-symmetric matrix is always even, so a leftover raises
    ``UnpairableSpectrumError`` (broken PT symmetry of the input, or too
    tight a tolerance).
    """
    w = es.eigenvalues if isinstance(es, BiorthogonalEigensystem) else np.asarray(es)
    scale = max(float(np.abs(w).max()), 1.0)
    if tol_real is None:
        tol_real = 1e-10 * scale
    tol_pair = 1e-8 * scale

    real_idx = [i for i in range(len(w)) if abs(w[i].imag) < tol_real]
    complex_idx = [i for i in range(len(w)) if abs(w[i].imag) >= tol_real]

    pair_map: dict[int, int] = {}
    unused = set(complex_idx)
    for i in complex_idx:
        if i not in unused:
            continue
        unused.discard(i)
        target = np.conj(w[i])
        best, best_d = -1, np.inf
        for j in unused:
            d = abs(w[j] - target)
            if d < best_d:
                best, best_d = j, d
        if best < 0 or best_d > tol_pair:
            raise UnpairableSpectrumError(
                f"eigenvalue {w[i]} has no conjugate partner within "
                f"{tol_pair:.3e} (nearest {best_d:.3e})"
            )
        unused.discard(best)
        pair_map[i] = best
        pair_map[best] = i

    return PTClassification(
        real_indices=tuple(real_idx),
        pair_map=pair_map,
        tol_real=tol_real,
    )


def pt_partner_state(
    es: BiorthogonalEigensystem,
    classification: PTClassification,
    n: int,
) -> int:
    """Index of the PT partner of state ``n`` (eigenvalue ``conj(E_n)``)."""
    if n in classification.real_indices:
        raise NotBrokenError(
            f"state {n} (E = {es.eigenvalues[n]}) is PT-unbroken and has no partner"
        )
    return classification.partner(n)


def metric_operator(es: BiorthogonalEigensystem) -> np.ndarray:
    """Hermitian positive-definite metric ``G = sum_n |L_n><L_n|``.

    For a complete eigensystem G is positive definite, and when the
    spectrum is real it commutes with the dynamics in the sense
    ``G H = H^dag G`` (the stationary metric condition; with complex
    conjugate pairs present the stationary solution would instead pair
    PT partners and lose positivity, so only the real-spectrum case is
    stationary).
    """
    L = es.left_vectors
    G = L.conj().T @ L
    return 0.5 * (G + G.conj().T)


def dense_full_spectrum(H, *, dim_cap: int = DENSE_DIM_CAP) -> np.ndarray:
    """All eigenvalues of a dense matrix, sorted by (Re, Im) ascending.

    LAPACK's real solver runs on a real matrix and on the real form
    ``_pt_real_form`` of an exactly centrohermitian complex one, whose
    complex eigenvalues then come in exact conjugate pairs; any other
    complex matrix goes to the complex solver."""
    H = _as_square(H)
    if H.shape[0] > dim_cap:
        raise DimTooLargeError(
            f"dimension {H.shape[0]} exceeds dense guard {dim_cap}"
        )
    R = _pt_real_form(H)
    w = np.linalg.eigvals(H if R is None else R).astype(complex, copy=False)
    return w[np.lexsort((w.imag, w.real))]


@dataclass
class SparseComplexSymmetricMatrix:
    """Sparse matrix equal to its unconjugated transpose, with an apply contract.

    Symmetry ``M = M^T`` is enforced at construction; the matrix is
    Hermitian only if it is also real.  The left eigenvector of such a
    matrix is the plain transpose of the right one, which is what the
    complex-symmetric Lanczos iteration exploits.
    """

    matrix: object  # scipy.sparse matrix
    dim: int = field(init=False)

    def __post_init__(self):
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        defect = abs(m - m.T)
        if defect.nnz and defect.max() > 0:
            raise ValueError("matrix is not complex symmetric (M != M^T)")
        self.dim = m.shape[0]

    @classmethod
    def _prechecked(cls, matrix) -> SparseComplexSymmetricMatrix:
        """Wrap ``matrix`` without the symmetry check, for a caller that has
        already verified ``matrix == matrix.T``."""
        out = cls.__new__(cls)
        out.matrix, out.dim = matrix, matrix.shape[0]
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def __matmul__(self, v):
        return self.matrix @ v

    def to_dense(self) -> np.ndarray:
        return np.asarray(self.matrix.todense())
