"""Sparse exact diagonalization of the staggered-gain XXZ ring.

Pauli-matrix convention throughout: neighbor exchange flips antiparallel
pairs with amplitude 2, the Ising term contributes ``Jz * s_j * s_j+1``
with ``s = +/-1``, and the staggered imaginary field adds
``+i*gamma*s_j`` on even sites and ``-i*gamma*s_j`` on odd sites
(0-indexed).  Total magnetization is conserved, so all work happens in
the zero-magnetization sector, where the matrix is complex symmetric in
the spin-z product basis and the left ground covector is the plain
transpose of the right vector.

The model is PT-symmetric: with ``F`` the global spin flip and ``K``
complex conjugation, ``Theta = F K`` (``Theta^2 = 1``) commutes with every
sector matrix, because ``F`` keeps the exchange and Ising terms and
reverses the staggered field.  The staggered field also keeps the two-site
translation ``T2``, so the sector splits into momentum blocks: block ``q``
joins the ``T2`` momenta ``K = +-2 pi q / (L/2)``, ``q = 0 ... L // 4``.
``F`` commutes with ``T2`` and ``K`` maps ``K`` to ``-K``, so ``Theta``
maps every block onto itself, and every block has a ``Theta``-real
orthonormal basis in which its matrix is real: its real form
(``_Block``).  The basis pairs the real and imaginary parts of the
momentum-``K`` orbit states with their spin flips, one pair of basis
vectors per orbit vector; an orbit that ``F`` maps onto itself (at L=12,
``F r = T2^3 r`` for ``r = 000000111111``) gives one basis vector, not a
pair.  ``full_sector_spectrum`` is the union of the real forms' spectra.

Ground states are solved block by block, in real arithmetic.  A block's
real form at ``gamma = 0`` is the symmetric part of its real form at every
``gamma``, so its smallest eigenvalue ``f_q`` bounds ``Re E`` of every
level of the block from below (Bendixson).  Blocks are solved in
ascending order of ``f_q`` until the next bound lies above the lowest
``Re E`` found, and the selection rule runs over the blocks solved.
``f_q`` is computed once per ``(L, q, jz)`` and reused at another ``jz``
through Weyl's inequality ``f_q(jz) >= f_q(a) - L |jz - a|``, as the Ising
diagonal is at most ``L`` in size.  A Lanczos start vector is the largest
``Theta``-real part of a given vector's component in the block plus real
noise, or a real random vector, and the solution is mapped back to the
spin-z basis.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from functools import lru_cache
from math import comb, isfinite

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import eigh

from .biortho import (
    SparseComplexSymmetricMatrix,
    dense_full_spectrum,
    dense_ground_pair,
    gauge_factor,
    ground_state_index,
    re_tie_tolerance,
)
from .errors import (
    BasisCapExceededError,
    DimTooLargeError,
    InsufficientSizesError,
    OddLError,
    error_text,
)
from .fidelity import DEFAULT_EPSILON, FidelityRecord, chi_finite_difference, fidelity_variant
from .lanczos import LanczosResult, complex_symmetric_lanczos

LANCZOS_BASIS_CAP = comb(28, 14)       # ~4.0e7 configurations
DENSE_SECTOR_CAP = 5000   # L <= 14 for ground_state(method="dense") and full_sector_spectrum
# relative weight of the random part added to a given Lanczos start vector.
# A start vector inside one symmetry sector of a momentum block never
# leaves it and misses a level of another sector that has crossed below:
# the one-site translation times the spin flip, T1 P, and the site
# reflection j -> -j both commute with H and split the K=0 block further
# (26/4/6/16 at L=10, 62/20/28/50 at L=12).  With this part, such a level
# is missed only within about tol_resid * sqrt(dim) / START_NOISE (7e-6 in
# the 52-dim L=10 K=0 block) of the crossing.  The part is real and drawn
# inside the solved block, and it costs Krylov steps: the 200 solves of four
# warm 25-point L=10, Jz=1 lines on gamma in [0, 0.4], all in the K=0
# block, take 4478 steps at 1e-4, 3928 at 1e-6 and 3362 without it (5629,
# 4581 and 3408 in the real form of the whole sector)
START_NOISE = 1e-4


@dataclass(frozen=True)
class XxzParams:
    """Anisotropy ``jz``, staggered imaginary field ``gamma`` (>= 0), and
    even chain length ``L`` (periodic boundary)."""

    jz: float
    gamma: float
    L: int

    def __post_init__(self):
        if self.L % 2:
            raise OddLError(f"staggering needs an even chain, got L={self.L}")
        if self.L < 4:
            raise ValueError("L must be at least 4")
        if not (isfinite(self.jz) and isfinite(self.gamma)):
            raise ValueError("jz and gamma must be finite")  # NaN passes gamma < 0
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")


@dataclass
class M0Basis:
    """Zero-magnetization configurations of an ``L``-site chain.

    States are bit patterns (bit ``j`` set = up spin on site ``j``) in
    ascending numeric order, so index lookup is a binary search.
    """

    L: int
    states: np.ndarray

    @property
    def size(self) -> int:
        return len(self.states)

    def index_of(self, state: int) -> int:
        i = int(np.searchsorted(self.states, state))
        if i >= len(self.states) or self.states[i] != state:
            raise KeyError(f"configuration {state:#x} not in the M=0 sector")
        return i

    def state_of(self, index: int) -> int:
        return int(self.states[index])


def build_m0_basis(L: int) -> M0Basis:
    """Enumerate the M=0 sector in ascending bit-pattern order, up to
    ``LANCZOS_BASIS_CAP`` states."""
    if L % 2:
        raise OddLError(f"M=0 sector needs even L, got {L}")
    size = comb(L, L // 2)
    if size > LANCZOS_BASIS_CAP:
        raise BasisCapExceededError(
            f"M=0 sector of L={L} has {size} states, above cap {LANCZOS_BASIS_CAP}"
        )
    # Gosper's hack over fixed-popcount words, ascending
    states = np.empty(size, dtype=np.int64)
    v = (1 << (L // 2)) - 1
    limit = 1 << L
    for i in range(size):
        states[i] = v
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r
        if v >= limit and i + 1 < size:
            raise RuntimeError("sector enumeration overflow")
    return M0Basis(L=L, states=states)


def _spin_z(states: np.ndarray, j: int) -> np.ndarray:
    return 2 * ((states >> j) & 1) - 1


@dataclass(frozen=True)
class _SectorPattern:
    """Parameter-free pieces of the ``L``-site sector matrix, all read-only.

    ``data`` holds the exchange amplitude 2 at every hop and 0 in the
    ``diag_slots`` of the CSR pattern; ``ising`` is ``sum_j s_j s_j+1`` and
    ``staggered`` is ``sum_j (-1)^j s_j`` per configuration.  Construction
    raises ``ValueError`` unless the hop matrix equals its transpose; no
    diagonal can break that, so every matrix built on the pattern is
    complex symmetric.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    diag_slots: np.ndarray
    ising: np.ndarray
    staggered: np.ndarray

    def __post_init__(self):
        n = len(self.ising)
        SparseComplexSymmetricMatrix(
            sparse.csr_matrix((self.data, self.indices, self.indptr), shape=(n, n)))


@lru_cache(maxsize=4)
def _sector_pattern(L: int) -> _SectorPattern:
    """The read-only ``_SectorPattern`` of ``L`` sites, built and checked
    for symmetry once per ``L``."""
    S = build_m0_basis(L).states
    n = len(S)
    ising = np.zeros(n)
    staggered = np.zeros(n)
    rows, cols = [np.arange(n)], [np.arange(n)]      # diagonal slots first
    for j in range(L):
        jn = (j + 1) % L
        sj, sn = _spin_z(S, j), _spin_z(S, jn)
        ising += sj * sn
        staggered += (-1) ** j * sj
        flip = sj != sn
        cols.append(np.nonzero(flip)[0])
        rows.append(np.searchsorted(S, S[flip] ^ ((1 << j) | (1 << jn))))
    r = np.concatenate(rows)
    pattern = sparse.csr_matrix(
        (np.arange(1, len(r) + 1), (r, np.concatenate(cols))), shape=(n, n))
    pattern.sort_indices()
    diag_slots = np.flatnonzero(pattern.data <= n)   # labels 1..n mark (i, i)
    data = np.full(pattern.nnz, 2.0 + 0j)
    data[diag_slots] = 0.0
    out = _SectorPattern(data, pattern.indices, pattern.indptr, diag_slots,
                         ising, staggered)
    for a in vars(out).values():
        a.flags.writeable = False
    return out


@lru_cache(maxsize=4)
def _t2_orbits(L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the ``L``-site sector under the two-site translation ``T2``.

    Per configuration ``s`` (by index): the index of its orbit's
    representative ``r`` (the orbit's smallest configuration), the orbit's
    period ``P`` and the ``d`` in ``[0, P)`` with ``s = T2^d r``; and per
    block ``q`` its dimension.  An orbit of period ``P`` carries the momenta
    ``K = 2 pi k / (L/2)`` with ``k P`` a multiple of ``L/2``, one state
    each, so the block dimensions add up to the sector dimension; that is
    checked here, once per ``L``.
    """
    states = build_m0_basis(L).states
    cells, mask = L // 2, (1 << L) - 1
    rep, period = states.copy(), np.full(len(states), cells)
    to_rep = np.zeros(len(states), dtype=int)   # smallest j with T2^j s = r
    moved = states
    for j in range(1, cells):
        moved = ((moved << 2) | (moved >> (L - 2))) & mask   # T2^j s
        smaller = moved < rep
        rep[smaller], to_rep[smaller] = moved[smaller], j
        period[(moved == states) & (period == cells)] = j
    shift = -to_rep % period
    orbits = period[rep == states]
    dims = np.array([np.sum(q * orbits % cells == 0) * (1 if 2 * q % cells == 0 else 2)
                     for q in range(cells // 2 + 1)])
    if dims.sum() != len(states):
        raise ValueError(f"block dimensions {dims} of L={L} do not add up "
                         f"to the sector dimension {len(states)}")
    out = np.searchsorted(states, rep), period, shift, dims
    for a in out:
        a.flags.writeable = False
    return out


@dataclass(frozen=True)
class _Block:
    """The real form of block ``q`` of the ``L``-site sector, all read-only.

    ``basis`` holds the block's ``Theta``-real orthonormal basis as sparse
    sector columns: ``(a + F a) / sqrt 2`` and ``i (a - F a) / sqrt 2`` for
    each real orbit vector ``a`` (see ``_orbit_vectors``) whose orbit ``F``
    moves to another, and ``a`` or ``i a`` (as ``F a = a`` or ``-a``) for
    one that ``F`` maps onto itself.  The first ``n_plus`` columns are real
    and ``F``-even, the rest imaginary and ``F``-odd, so the block matrix
    ``basis^H H basis`` is

        [[X+ + jz I+, -gamma D], [gamma D^T, X- + jz I-]]

    real, with ``X`` symmetric and ``I`` the Ising diagonal: ``J``-symmetric
    for ``J = diag(1, -1)`` (split at ``n_plus``), and not symmetric.
    ``exchange``, ``ising`` and ``staggered`` are its aligned data arrays on
    one CSR pattern, ``pattern`` (which holds ``exchange``); the form at
    ``(jz, gamma)`` has data ``exchange + jz * ising + gamma * staggered``.
    """

    q: int
    basis: sparse.csr_matrix
    basis_h: sparse.csr_matrix
    n_plus: int
    pattern: sparse.csr_matrix
    exchange: np.ndarray
    ising: np.ndarray
    staggered: np.ndarray

    @property
    def dim(self) -> int:
        return self.pattern.shape[0]

    def matrix(self, data: np.ndarray) -> sparse.csr_matrix:
        # a CSR matrix built from another shares its arrays unchecked, which
        # is a third of the cost of building one from (data, indices, indptr)
        out = sparse.csr_matrix(self.pattern)
        out.data = data
        return out


# entries below this size in a block's basis or real form are rounding
# residue of exact zeros (cos(pi/2), cancelling orbit sums); the others
# are sums of a few terms of size at least 1/L
_ROUNDING = 1e-12


def _orbit_vectors(L: int, q: int, lead: np.ndarray) -> list[np.ndarray]:
    """Real orbit vectors of block ``q`` on the ``lead`` orbits, entries per
    configuration ``s = T2^d r``: ``cos(K d) / sqrt P`` (a sign) for
    ``K = 0`` and ``pi``, else ``sqrt(2 / P) cos(K d)`` and
    ``sqrt(2 / P) sin(K d)``, the real and imaginary parts of the
    normalized momentum-``K`` orbit state ``sum_d exp(-i K d) T2^d r``."""
    _, period, shift, _ = _t2_orbits(L)
    cells = L // 2
    if 2 * q % cells == 0:
        return [np.where(lead, (-1.0) ** (2 * q * shift // cells) / np.sqrt(period), 0.0)]
    angle = 2 * np.pi * q * shift / cells
    return [np.where(lead & (abs(part) >= _ROUNDING), np.sqrt(2.0 / period) * part, 0.0)
            for part in (np.cos(angle), np.sin(angle))]


def _columns(entries, offset: int):
    """Columns, rows and values of sparse entries given as (vector key,
    row, value) arrays, one column per key in key order from ``offset``,
    and the number of columns."""
    key, row, value = (np.concatenate(x) for x in zip(*entries))
    keys, col = np.unique(key, return_inverse=True)
    return col + offset, row, value, len(keys)


@lru_cache(maxsize=16)
def _block(L: int, q: int) -> _Block:
    """The read-only ``_Block`` of momenta ``K = +-2 pi q / (L/2)``, built
    once per ``(L, q)``.  Construction raises ``ValueError`` unless the
    basis has the block's dimension and the rotated exchange, Ising and
    staggered matrices are real."""
    rep, period, _, dims = _t2_orbits(L)
    n = len(rep)
    flip = np.arange(n)[::-1]                   # index of F s
    # one orbit of each F pair carries the block's orbit vectors
    lead = (q * period % (L // 2) == 0) & (rep <= rep[flip])
    rows = np.flatnonzero(lead)
    moved = rep[rows] != rep[flip[rows]]
    orbit = np.unique(rep[rows], return_inverse=True)[1]
    vectors = _orbit_vectors(L, q, lead)
    plus, minus = [], []
    for kind, a in enumerate(vectors):
        key = orbit * len(vectors) + kind
        v = a[rows]
        # <a, F a>: +-1 on an orbit F maps onto itself, 0 on one it moves
        even = (np.bincount(key, v * a[flip[rows]]) > 0)[key]
        m, e, o = moved, ~moved & even, ~moved & ~even
        h = np.sqrt(0.5) * v[m]
        plus += [(key[m], rows[m], h), (key[m], flip[rows[m]], h),
                 (key[e], rows[e], v[e])]
        minus += [(key[m], rows[m], h), (key[m], flip[rows[m]], -h),
                  (key[o], rows[o], v[o])]
    cp, rp, vp, n_plus = _columns(plus, 0)
    cm, rm, vm, n_minus = _columns(minus, n_plus)
    dim = int(dims[q])
    if n_plus + n_minus != dim:
        raise ValueError(f"block {q} of L={L} has {n_plus + n_minus} basis "
                         f"vectors, not {dim}")
    basis = sparse.csr_matrix(
        (np.concatenate([vp, 1j * vm]), (np.concatenate([rp, rm]), np.concatenate([cp, cm]))),
        shape=(n, dim))
    basis_h = basis.conj().T.tocsr()

    pat = _sector_pattern(L)
    ops = (sparse.csr_matrix((pat.data, pat.indices, pat.indptr), shape=(n, n)),
           sparse.diags(pat.ising), sparse.diags(1j * pat.staggered))
    parts = []
    for name, op, sign in zip(("exchange", "ising", "staggered"), ops, (1, 1, -1)):
        part = basis_h @ (op @ basis)
        if part.nnz and abs(part.imag).max() > _ROUNDING:
            raise ValueError(f"the {name} part of block {q} of L={L} is not real")
        # X and I symmetric, D antisymmetric, exactly, as in exact arithmetic
        parts.append(((part.real + sign * part.real.T) / 2).tocoo())
    cell, slot = np.unique(
        np.concatenate([part.row.astype(np.int64) * dim + part.col for part in parts]),
        return_inverse=True)
    bounds = np.cumsum([0] + [part.nnz for part in parts])
    data = [np.bincount(slot[lo:hi], part.data, len(cell))
            for part, lo, hi in zip(parts, bounds, bounds[1:])]
    data = [np.where(abs(d) < _ROUNDING, 0.0, d) for d in data]
    used = (data[0] != 0) | (data[1] != 0) | (data[2] != 0)
    r, s = np.divmod(cell[used], dim)
    exchange = data[0][used]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(r, minlength=dim))])
    pattern = sparse.csr_matrix(
        (exchange, s.astype(np.int32), indptr.astype(np.int32)), shape=(dim, dim))
    out = _Block(q=q, basis=basis, basis_h=basis_h, n_plus=n_plus, pattern=pattern,
                 exchange=exchange, ising=data[1][used], staggered=data[2][used])
    for a in (pattern.indices, pattern.indptr, out.exchange, out.ising, out.staggered):
        a.flags.writeable = False
    return out


def _block_hamiltonian(p: XxzParams, q: int) -> sparse.csr_matrix:
    """The real form of block ``q`` of the sector matrix (see ``_Block``)
    as a real CSR matrix; the pattern is shared read-only and every call
    gets its own ``data``."""
    block = _block(p.L, q)
    return block.matrix(block.exchange + p.jz * block.ising
                        + p.gamma * block.staggered)


def _theta_real_start(block: _Block, v: np.ndarray) -> np.ndarray:
    """Block coordinates of the largest ``Theta``-real part of ``v``'s
    component ``B w`` in ``block`` (``w = B^H v``).

    With the basis ``Theta``-real, ``Theta(B w) = B conj(w)``, so the
    ``Theta``-real part of ``c B w`` is ``B Re(c w)``, of squared norm
    ``(||w||^2 + Re(c^2 w.w)) / 2``: largest for the phase
    ``c = exp(-i arg(w.w) / 2)``, where it keeps at least half of
    ``||w||^2``.
    """
    w = block.basis_h @ np.asarray(v, dtype=complex)
    return (np.exp(-0.5j * np.angle(np.dot(w, w))) * w).real


def build_hamiltonian(p: XxzParams, basis: M0Basis | None = None,
                      ) -> SparseComplexSymmetricMatrix:
    """Assemble the sector Hamiltonian as a complex symmetric CSR matrix.

    The sparsity pattern and both diagonals are built once per ``L`` and
    shared read-only; every call gets its own ``data`` array with
    ``jz * ising + i * gamma * staggered`` written into the diagonal slots.
    The pattern's symmetry is verified when it is built, so no call repeats
    the ``SparseComplexSymmetricMatrix`` check.
    ``basis``, when given, must be the M=0 sector of ``p.L``.
    """
    _check_basis(p, basis)
    pat = _sector_pattern(p.L)
    data = pat.data.copy()
    data[pat.diag_slots] = p.jz * pat.ising + 1j * p.gamma * pat.staggered
    n = len(pat.ising)
    H = sparse.csr_matrix((data, pat.indices, pat.indptr), shape=(n, n))
    return SparseComplexSymmetricMatrix._prechecked(H)


def _check_basis(p: XxzParams, basis: M0Basis | None) -> None:
    if basis is not None and basis.L != p.L:
        raise ValueError(f"basis is for L={basis.L}, parameters for L={p.L}")


def staggered_field_direction(basis: M0Basis) -> np.ndarray:
    """Diagonal of dH/dgamma: ``i * sum_j (-1)^j s_j``."""
    return 1j * _sector_pattern(basis.L).staggered


def ising_direction(basis: M0Basis) -> np.ndarray:
    """Diagonal of dH/dJz: ``sum_j s_j s_j+1`` (periodic)."""
    return _sector_pattern(basis.L).ising.astype(complex)


@dataclass
class XxzGroundState:
    """Tracked ground state of one sector Hamiltonian.

    ``left`` is the covector (unconjugated transpose of ``right``, scaled
    so the pairing is 1); ``condition`` records ``|r^T r|``, which tends
    to zero on approach to an exceptional point.  ``block`` is the ``q`` of
    the momentum block that holds the state and ``blocks_solved`` the
    number of blocks solved to find it.  ``iterations``, ``restarts``,
    ``matvecs`` and ``extractions`` are the Lanczos solver's counts (see
    ``LanczosResult``), summed over the block solves; they are 0 for
    ``method="dense"``.
    """

    params: XxzParams
    energy: complex
    right: np.ndarray
    left: np.ndarray
    pt_class: str
    condition: float
    method: str
    residual: float = 0.0
    iterations: int = 0
    restarts: int = 0
    matvecs: int = 0
    extractions: int = 0
    block: int = 0
    blocks_solved: int = 0

    @property
    def is_broken(self) -> bool:
        return self.pt_class == "broken"


def _check_tol_real(tol_real: float | None) -> None:
    if tol_real is not None and not tol_real >= 0:      # NaN fails too
        raise ValueError(f"tol_real must be nonnegative, got {tol_real!r}")


def _norm_estimate(p: XxzParams) -> float:
    return 2.0 * p.L + abs(p.jz) * p.L + p.gamma * p.L


def _check_dense_cap(dim: int) -> None:
    if dim > DENSE_SECTOR_CAP:   # guards the dense residual of method="dense": 2.6 GB at L=16
        raise DimTooLargeError(f"sector dim {dim} exceeds dense cap {DENSE_SECTOR_CAP}")


def _covector(right: np.ndarray) -> tuple[np.ndarray, float]:
    q = np.dot(right, right)
    return right / q, float(abs(q))


# largest block whose Bendixson bound is computed.  The dense eigh of its
# lowest level takes 0.20 ms at dim 52, 0.47 ms at 100, 4.1 ms at 312, 92 ms
# at 980 and 2.9 s at 3200 (one core, one BLAS thread), against a few ms for
# a Lanczos solve of a 300-dim block.  A jz scan recomputes the bound at
# nearly every point, so above this size it costs more than the solves it
# can save (50 points of an L=14 jz scan took 26 s with the 980-dim blocks
# bounded and 3 s without).  A larger block goes unbounded and is solved
BOUND_DIM_CAP = 400
# Bendixson bounds per (L, q), keyed by jz; the most recent few are kept
_BOUNDS: dict[tuple[int, int], dict[float, float]] = {}
_BOUNDS_KEPT = 8
_BOUNDS_LOCK = threading.Lock()


def _bendixson_bound(L: int, q: int, jz: float) -> float:
    """``f_q(jz)``, the smallest eigenvalue of the real form of block ``q``
    at ``gamma = 0``.  That matrix is the symmetric part of the real form
    at every ``gamma``, so every level of the block has ``Re E >= f_q``.
    ``-inf`` for a block above ``BOUND_DIM_CAP``."""
    block = _block(L, q)
    if block.dim > BOUND_DIM_CAP:
        return -np.inf
    with _BOUNDS_LOCK:
        f = _BOUNDS.get((L, q), {}).get(jz)
    if f is None:
        f = float(eigh(block.matrix(block.exchange + jz * block.ising).toarray(),
                       eigvals_only=True, subset_by_index=[0, 0])[0])
        with _BOUNDS_LOCK:
            known = _BOUNDS.setdefault((L, q), {})
            known[jz] = f
            while len(known) > _BOUNDS_KEPT:
                del known[next(iter(known))]
    return f


def _bound_estimate(L: int, q: int, jz: float) -> float:
    """A lower bound on ``f_q(jz)`` from the cached bounds, ``-inf`` without
    one: ``f_q(jz) >= f_q(a) - L |jz - a|`` (Weyl), as the Ising diagonal
    is at most ``L`` in size.  It is ``f_q(jz)`` itself if that is cached."""
    with _BOUNDS_LOCK:
        known = list(_BOUNDS.get((L, q), {}).items())
    return max((f - L * abs(jz - a) for a, f in known), default=-np.inf)


def _lowest_blocks(p: XxzParams, solve) -> list[tuple[int, LanczosResult]]:
    """``(q, solve(q))`` for the blocks of the sector that can hold its
    ground level, in ascending order of ``(f_q, q)``.

    A block is taken from a heap keyed by its best known bound: a cached
    ``f_q``, else a Weyl estimate, which is replaced by ``f_q`` before the
    block is solved.  The walk stops at the first key above the lowest
    ``Re E`` found by more than the tie tolerance of ``ground_state_index``:
    no level of that block, or of any later one, can be selected.  So the
    blocks solved do not depend on what the cache holds.
    """
    heap = [(_bound_estimate(p.L, q, p.jz), q) for q in range(p.L // 4 + 1)]
    heapq.heapify(heap)
    found = []
    while heap:
        bound, q = heapq.heappop(heap)
        if found:
            energies = np.array([r.eigenvalue for _, r in found])
            if bound > energies.real.min() + re_tie_tolerance(energies):
                break
        f = _bendixson_bound(p.L, q, p.jz)
        if f > bound:
            heapq.heappush(heap, (f, q))
        else:
            found.append((q, solve(q)))
    return found


def ground_state(
    p: XxzParams,
    *,
    method: str = "lanczos",
    basis: M0Basis | None = None,
    v0: np.ndarray | None = None,
    seed: int = 0,
    max_iter: int = 600,
    tol_resid: float = 1e-10,
    tol_real: float | None = None,
) -> XxzGroundState:
    """Smallest-Re eigenpair of the M=0 sector.

    The deterministic selection rule (smallest real part, then largest
    imaginary part) picks one fixed member of the PT pair in the broken
    phase.  Both methods solve the real forms of the momentum blocks
    (see ``_Block``) that can hold the ground level (see
    ``_lowest_blocks``), apply the rule across the blocks' ground levels,
    and map the winner ``u`` back to the spin-z basis as ``x = B u``,
    gauged; the covector stays the plain transpose of ``x``.  ``residual``
    is ``||H x - E x||``: for Lanczos the solver's ``||R u - E u||``, equal
    to it because ``B`` is an isometry onto an invariant subspace; for
    ``method="dense"`` computed on the dense sector matrix.

    ``method="dense"`` is the oracle path for small sectors: each block's
    ground pair comes from ``dense_ground_pair`` on its dense real form
    (real ``eigvals``, then inverse iteration with one LU factorization),
    so it raises ``NoConvergenceError`` above the residual bound and
    ``DefectiveMatrixError`` on a defective ground pair of a solved block;
    it ignores ``v0``, ``seed`` and ``max_iter``.

    ``method="lanczos"`` solves each block in real arithmetic.
    ``max_iter`` is the Krylov-step budget of one block solve, summed over
    its restarts.  The start vector in a block is a real random vector from
    ``seed``, or the largest ``Theta``-real part of ``v0``'s component in
    the block (for example from the ground state of nearby parameters)
    plus a real random part of relative weight ``START_NOISE`` from
    ``seed``, which keeps the block's other symmetry sectors in reach; a
    ``v0`` with no component in the block starts it cold.  ``seed`` also
    seeds any reseed from a random vector, which only an invariant subspace
    without a converged pair calls for (see ``complex_symmetric_lanczos``).
    ``basis`` is only checked against ``p.L``; a negative or NaN
    ``tol_real`` raises ``ValueError``.
    """
    if method not in ("lanczos", "dense"):
        raise ValueError(f"unknown method {method!r}")
    _check_tol_real(tol_real)
    _check_basis(p, basis)
    if method == "dense":
        _check_dense_cap(comb(p.L, p.L // 2))
    if tol_real is None:
        tol_real = 1e-10 * _norm_estimate(p)
    rng = np.random.default_rng(seed)

    def solve(q: int) -> LanczosResult:
        R = _block_hamiltonian(p, q)
        if method == "dense":
            w, g, u, _, residual = dense_ground_pair(R.toarray())
            return LanczosResult(complex(w[g]), u, residual, 0, 0)
        block = _block(p.L, q)
        u0 = None if v0 is None else _theta_real_start(block, v0)
        norm = 0.0 if u0 is None else np.linalg.norm(u0)
        if not norm > 0:
            u0 = rng.standard_normal(block.dim)
        else:
            noise = rng.standard_normal(block.dim)
            u0 = u0 / norm + START_NOISE * noise / np.linalg.norm(noise)
        return complex_symmetric_lanczos(R, block.dim, v0=u0, max_iter=max_iter,
                                         tol_resid=tol_resid, rng=rng)

    found = _lowest_blocks(p, solve)
    q, res = found[ground_state_index(np.array([r.eigenvalue for _, r in found]))]
    right = _block(p.L, q).basis @ res.vector
    right /= gauge_factor(right)
    energy, residual = res.eigenvalue, res.residual
    if method == "dense":       # on the dense sector, as a check of it would
        residual = float(np.linalg.norm(
            build_hamiltonian(p).to_dense() @ right - energy * right))
    left, condition = _covector(right)
    pt_class = "broken" if abs(energy.imag) > tol_real else "unbroken"
    return XxzGroundState(
        params=p, energy=energy, right=right, left=left,
        pt_class=pt_class, condition=condition, method=method,
        residual=residual, block=q, blocks_solved=len(found),
        **{name: sum(getattr(r, name) for _, r in found)
           for name in ("iterations", "restarts", "matvecs", "extractions")},
    )


def _with(p: XxzParams, direction: str, value: float) -> XxzParams:
    if direction == "gamma":
        return XxzParams(jz=p.jz, gamma=value, L=p.L)
    if direction == "jz":
        return XxzParams(jz=value, gamma=p.gamma, L=p.L)
    raise ValueError(f"unknown scan direction {direction!r}")


def _ground_state_pair(pa: XxzParams, pb: XxzParams, seed_a: int, seed_b: int,
                       definition_tag: str, *, start: np.ndarray | None = None,
                       **solve,
                       ) -> tuple[XxzGroundState, XxzGroundState, complex]:
    """Ground states at ``pa`` and ``pb`` and their fidelity.

    ``pb`` is a small shift of ``pa`` (``lam + epsilon``), so its solve
    starts from the ground state at ``pa``, an O(epsilon) perturbation of
    the one it seeks, and needs fewer Krylov steps than a random start.
    The solve at ``pa`` starts from ``start``, or cold without one.
    ``seed_a`` and ``seed_b`` seed the random start or random part of the
    start, and any reseed, at ``pa`` and ``pb``.  ``solve`` goes to
    ``ground_state``.  A pair depends on nothing but its arguments.
    """
    ga = ground_state(pa, seed=seed_a, v0=start, **solve)
    gb = ground_state(pb, seed=seed_b, v0=ga.right, **solve)
    return ga, gb, fidelity_variant(definition_tag, ga.left, ga.right,
                                    gb.left, gb.right)


def _point_seed(base: int, linear_index: int) -> int:
    return int(np.random.SeedSequence([base, linear_index]).generate_state(1)[0])


def _scan_line(params, values, epsilon: float, seed: int, first: int,
               definition_tag: str, **solve):
    """The one walk of an XXZ scan line: for each ``lam`` of ``values`` in
    order, yield ``_ground_state_pair``'s ``(ga, gb, F)`` at ``params(lam)``
    and ``params(lam + epsilon)``, or the exception the point raised.  A
    point starts from the ground state of the previous point, cold at the
    first and after a point that raised, and point ``i`` is seeded from
    ``_point_seed(seed, first + i)``, ``first`` being the grid index of the
    line's first point.  ``solve`` goes to ``ground_state``."""
    start = None
    for i, lam in enumerate(values):
        s = _point_seed(seed, first + i)
        try:
            pair = _ground_state_pair(params(lam), params(lam + epsilon), s, s + 1,
                                      definition_tag, start=start, **solve)
        except Exception as err:  # the caller records or raises it
            start, pair = None, err
        else:
            start = pair[0].right
        yield pair


def fidelity_scan(
    p: XxzParams,
    direction: str,
    grid,
    epsilon: float = DEFAULT_EPSILON,
    *,
    definition_tag: str = "metricized",
    method: str = "lanczos",
    seed: int = 0,
    tol_real: float | None = None,
    on_error: str = "raise",
    solver_options: dict | None = None,
) -> list[FidelityRecord]:
    """Ground-state fidelity records along ``gamma`` or ``jz``.

    Each grid value compares the tracked ground states at ``lam`` and
    ``lam + epsilon``; records whose endpoint PT classes differ straddle
    an exceptional point.  The grid is one scan line, walked and seeded by
    ``_scan_line`` from grid index 0 as in a sweep, so a scan equals the
    one-axis XXZ sweep with the same seed; split a grid into separate scans
    and the points after each split start cold and are seeded anew.
    With ``on_error="record"`` solver failures (e.g. stalled convergence
    next to an exceptional point) are stored in the record's ``error``
    field instead of aborting the scan.
    """
    if on_error not in ("raise", "record"):
        raise ValueError("on_error must be 'raise' or 'record'")
    grid = np.asarray(grid, dtype=float)
    records: list[FidelityRecord] = []
    pairs = _scan_line(lambda lam: _with(p, direction, lam), grid, epsilon, seed,
                       0, definition_tag, method=method, tol_real=tol_real,
                       **(solver_options or {}))
    for lam, pair in zip(grid, pairs):
        record = FidelityRecord(lam=float(lam), epsilon=float(epsilon),
                                F=0j, chi_fd=0j, definition_tag=definition_tag)
        if isinstance(pair, Exception):
            if on_error == "raise":
                raise pair
            record.error = error_text(pair)
        else:
            ga, gb, F = pair
            record.F, record.chi_fd = complex(F), chi_finite_difference(F, epsilon)
            record.pt_class_a, record.pt_class_b = ga.pt_class, gb.pt_class
            record.energy_a, record.energy_b = ga.energy, gb.energy
        records.append(record)
    return records


def is_broken_at(p: XxzParams, direction: str, value: float, *,
                 seed: int = 0, tol_real: float | None = None) -> bool:
    """PT class of the Lanczos ground state.  No program code calls it
    (``ep-locate`` probes through warm-started ``ground_state`` calls); it
    stays because ``perfbench`` traces the name."""
    return ground_state(_with(p, direction, value), seed=seed,
                        tol_real=tol_real).is_broken


@dataclass
class PeakExtrapolation:
    """Per-size peak locations with a polynomial-in-1/L extrapolation."""

    sizes: tuple[int, ...]
    positions: dict[int, float]
    heights: dict[int, float]
    intercept: float
    coefficients: np.ndarray
    fit_residual: float
    loglog_slopes: np.ndarray
    fit_degree: int


def peak_and_extrapolate(
    data: dict[int, tuple[np.ndarray, np.ndarray]],
    fit_degree: int = 2,
) -> PeakExtrapolation:
    """Locate per-size maxima and extrapolate their positions in 1/L.

    ``data`` maps each system size to ``(grid, values)``; entries that are
    NaN (e.g. EP-straddling scan points) are ignored.  Peak positions are
    refined by a parabola through the three points around the discrete
    maximum, then fitted with a least-squares polynomial in ``1/L``.  The
    returned log-log slope sequence of peak heights versus size supports
    the faster-than-power-law divergence check.
    """
    sizes = sorted(data)
    if len(sizes) < 3:
        raise InsufficientSizesError(
            f"extrapolation needs >= 3 sizes, got {len(sizes)}"
        )
    positions: dict[int, float] = {}
    heights: dict[int, float] = {}
    for L in sizes:
        x, y = data[L]
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ok = np.isfinite(y)
        if not np.any(ok):
            raise ValueError(f"no finite values for size {L}")
        xo, yo = x[ok], y[ok]
        i = int(np.argmax(yo))
        pos, height = float(xo[i]), float(yo[i])
        if 0 < i < len(yo) - 1:
            dl, dr = xo[i] - xo[i - 1], xo[i + 1] - xo[i]
            if abs(dl - dr) < 1e-9 * max(abs(dl), abs(dr)):
                curv = yo[i - 1] - 2 * yo[i] + yo[i + 1]
                if curv < 0:
                    off = 0.5 * (yo[i - 1] - yo[i + 1]) / curv * dl
                    pos += float(off)
                    height += float(-0.25 * (yo[i - 1] - yo[i + 1]) * off / dl)
        positions[L] = pos
        heights[L] = height

    inv_l = 1.0 / np.array(sizes, dtype=float)
    pos_arr = np.array([positions[L] for L in sizes])
    degree = min(fit_degree, len(sizes) - 1)
    coeff = np.polyfit(inv_l, pos_arr, degree)
    fitted = np.polyval(coeff, inv_l)
    resid = float(np.sqrt(np.mean((fitted - pos_arr) ** 2)))

    hts = np.array([heights[L] for L in sizes])
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = np.diff(np.log(hts)) / np.diff(np.log(np.array(sizes, float)))

    return PeakExtrapolation(
        sizes=tuple(sizes), positions=positions, heights=heights,
        intercept=float(coeff[-1]), coefficients=coeff,
        fit_residual=resid, loglog_slopes=slopes, fit_degree=degree,
    )


def _peak_value(value: float, F: complex, error: str, straddles: bool) -> float:
    """``value`` of one scan point, or NaN when the point cannot feed a peak
    fit: it failed, it straddles an EP (its finite difference measures the
    one-half jump, not a susceptibility), or its fidelity sits far from 1
    (``|1 - F| > 0.5``).  The last marks a tracked state that changed
    discontinuously between the endpoints, e.g. across an exact level
    crossing, where the finite difference is not a derivative of anything.
    """
    return np.nan if error or straddles or abs(1.0 - F) > 0.5 else value


def records_to_peak_input(records, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Convert scan records to (grid, Re chi / L), with the points that
    ``_peak_value`` rejects set to NaN."""
    x = np.array([r.lam for r in records])
    y = np.array([_peak_value(r.chi_fd.real / L, r.F, r.error, r.straddles_ep)
                  for r in records])
    return x, y


def full_sector_spectrum(p: XxzParams) -> np.ndarray:
    """All sector eigenvalues, sorted by (Re, Im); spectral-portrait data.

    The union of the spectra of the blocks' dense real forms (``_Block``),
    from LAPACK's real solver, so complex eigenvalues come in exact
    conjugate pairs.  A paired block holds both the ``+K`` and ``-K`` copy
    of its levels, so each level appears once (see ``_t2_orbits``)."""
    _check_dense_cap(comb(p.L, p.L // 2))
    w = np.concatenate([dense_full_spectrum(_block_hamiltonian(p, q).toarray())
                        for q in range(p.L // 4 + 1)])
    return w[np.lexsort((w.imag, w.real))]
