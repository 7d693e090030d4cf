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
reverses the staggered field.  So every sector matrix is unitarily
equivalent to a real sparse matrix, its real form (``_RealPattern``), and
the Lanczos ground state is solved there in real arithmetic.  Its start
vector is the largest ``Theta``-real part of a given vector plus real
noise, or a real random vector, and the solution is mapped back to the
spin-z basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np
import scipy.sparse as sparse

from .biortho import (
    SparseComplexSymmetricMatrix,
    dense_full_spectrum,
    dense_ground_pair,
    gauge_factor,
)
from .errors import (
    BasisCapExceededError,
    DimTooLargeError,
    InsufficientSizesError,
    OddLError,
    error_text,
)
from .fidelity import DEFAULT_EPSILON, FidelityRecord, chi_finite_difference, fidelity_variant
from .lanczos import complex_symmetric_lanczos

LANCZOS_BASIS_CAP = comb(28, 14)       # ~4.0e7 configurations
DENSE_SECTOR_CAP = 5000
# relative weight of the random part added to a given Lanczos start vector.
# A start vector inside one symmetry block of the sector never leaves it and
# misses a level of another block that has crossed below.  With this part,
# such a level is missed only within about tol_resid * sqrt(dim) /
# START_NOISE (2e-5 at L=10) of the crossing.  The part is real, like the
# real form it starts, and it costs Krylov steps: the 200 solves of four
# warm 25-point L=10, Jz=1 lines on gamma in [0, 0.4] take 5629 steps at
# 1e-4, 4581 at 1e-6 and 3408 without it (5899, 5145 and 3936 in complex
# arithmetic), so two fifths of their steps bring the other blocks' levels
# back in
START_NOISE = 1e-4
_SQRT_HALF = np.sqrt(0.5)


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


@dataclass(frozen=True)
class _RealPattern:
    """Parameter-free pieces of the real form of the ``L``-site sector
    matrix, all read-only.

    The spin flip ``F`` maps the configuration of index ``i`` to its bit
    complement, of index ``n - 1 - i`` (complement reverses the ascending
    order); no configuration is its own complement.  With representatives
    ``r < n/2`` and the unitary ``S`` of columns ``(e_r + e_Fr) / sqrt 2``,
    then ``i (e_r - e_Fr) / sqrt 2``, the sector matrix ``H`` becomes

        S^H H S = [[X+ + jz I, -gamma D], [gamma D, X- + jz I]]

    with ``(X+-)_rs = H_xx[r, s] +- H_xx[r, F s]`` from the exchange ``H_xx``,
    and ``I`` and ``D`` the Ising and staggered diagonals on the
    representatives.  It is real, and ``J``-symmetric for ``J = diag(1, -1)``
    (blocks), but not symmetric.  ``exchange``, ``ising`` and ``staggered``
    are aligned data arrays on one CSR pattern; the real form at
    ``(jz, gamma)`` has data ``exchange + jz * ising + gamma * staggered``.
    """

    indices: np.ndarray
    indptr: np.ndarray
    exchange: np.ndarray
    ising: np.ndarray
    staggered: np.ndarray


@lru_cache(maxsize=4)
def _real_pattern(L: int) -> _RealPattern:
    """The read-only ``_RealPattern`` of ``L`` sites, folded once per ``L``
    from the representative rows of ``_sector_pattern``."""
    pat = _sector_pattern(L)
    n = len(pat.ising)
    h = n // 2
    # representative rows of H_xx (diagonal slots included, as zeros), each
    # column folded onto its representative, with the sign it has in X-
    end = pat.indptr[h]
    rows = np.repeat(np.arange(h), np.diff(pat.indptr[:h + 1]))
    cols = pat.indices[:end]
    hops = pat.data[:end].real
    flipped = cols >= h
    folded = np.where(flipped, n - 1 - cols, cols)
    cells, slot = np.unique(rows * h + folded, return_inverse=True)
    x_plus = np.bincount(slot, hops, len(cells))
    x_minus = np.bincount(slot, np.where(flipped, -hops, hops), len(cells))
    r, s = np.divmod(cells, h)
    reps = np.arange(h)
    diagonal = np.where(r == s, pat.ising[r], 0.0)
    zeros = np.zeros(h)
    rows = np.concatenate([r, r + h, reps, reps + h])
    cols = np.concatenate([s, s + h, reps + h, reps])
    order = np.lexsort((cols, rows))
    out = _RealPattern(
        indices=cols[order].astype(pat.indices.dtype),
        indptr=np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))]
                              ).astype(pat.indptr.dtype),
        exchange=np.concatenate([x_plus, x_minus, zeros, zeros])[order],
        ising=np.concatenate([diagonal, diagonal, zeros, zeros])[order],
        staggered=np.concatenate([np.zeros(2 * len(cells)),
                                  -pat.staggered[:h], pat.staggered[:h]])[order],
    )
    for a in vars(out).values():
        a.flags.writeable = False
    return out


def _real_hamiltonian(p: XxzParams) -> sparse.csr_matrix:
    """The real form ``S^H H S`` of the sector matrix (see ``_RealPattern``)
    as a real CSR matrix; the pattern is shared read-only and every call
    gets its own ``data``."""
    pat = _real_pattern(p.L)
    data = pat.exchange + p.jz * pat.ising + p.gamma * pat.staggered
    n = len(pat.indptr) - 1
    return sparse.csr_matrix((data, pat.indices, pat.indptr), shape=(n, n))


def _from_real_form(u: np.ndarray) -> np.ndarray:
    """``S u``: the spin-z basis vector of real-form coordinates ``u``; a
    complex-linear map, so ``u`` may be complex."""
    h = len(u) // 2
    a, b = u[:h], 1j * u[h:]
    return _SQRT_HALF * np.concatenate([a + b, (a - b)[::-1]])


def _to_real_form(x: np.ndarray) -> np.ndarray:
    """``S^H x``: real-form coordinates of the spin-z basis vector ``x``,
    real exactly when ``x`` is ``Theta``-real."""
    h = len(x) // 2
    top, flipped = x[:h], x[::-1][:h]          # x_r and x_Fr
    return _SQRT_HALF * np.concatenate([top + flipped, -1j * (top - flipped)])


def _theta_real_start(v: np.ndarray) -> np.ndarray:
    """Real-form coordinates of the largest ``Theta``-real part of ``v``.

    ``(c v + Theta(c v)) / 2`` has squared norm
    ``(||v||^2 + Re(conj(c)^2 <v, Theta v>)) / 2`` (Hermitian product), largest
    for the phase ``c = exp(i arg<v, Theta v> / 2)``, where it keeps at least
    half of ``||v||^2``.  Its coordinates are ``Re(c S^H v)``.
    """
    v = np.asarray(v, dtype=complex)
    c = np.exp(0.5j * np.angle(np.vdot(v, v[::-1].conj())))
    return (c * _to_real_form(v)).real


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
    to zero on approach to an exceptional point.  ``iterations``,
    ``restarts``, ``matvecs`` and ``extractions`` are the Lanczos solver's
    counts (see ``LanczosResult``); they are 0 for ``method="dense"``.
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

    @property
    def is_broken(self) -> bool:
        return self.pt_class == "broken"


def _norm_estimate(p: XxzParams) -> float:
    return 2.0 * p.L + abs(p.jz) * p.L + p.gamma * p.L


def _check_dense_cap(dim: int) -> None:
    if dim > DENSE_SECTOR_CAP:   # checked before densifying: L=16 would take 2.6 GB
        raise DimTooLargeError(f"sector dim {dim} exceeds dense cap {DENSE_SECTOR_CAP}")


def _covector(right: np.ndarray) -> tuple[np.ndarray, float]:
    q = np.dot(right, right)
    return right / q, float(abs(q))


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
    phase.  ``method="dense"`` is the oracle path for small sectors: it
    densifies the sector and takes the ground pair from
    ``dense_ground_pair`` (full dense spectrum, then inverse iteration with
    one LU factorization), so it raises ``NoConvergenceError`` above the
    residual bound and ``DefectiveMatrixError`` on a defective ground pair;
    ``residual`` is that of the returned right vector, and the covector
    stays the plain transpose of it; it ignores ``v0``, ``seed`` and
    ``max_iter``.

    ``method="lanczos"`` solves the real form ``S^H H S`` of the sector
    (see ``_RealPattern``) in real arithmetic and maps the solution ``u``
    back to the spin-z basis as ``S u``, gauged; ``S`` is unitary, so
    ``residual`` is ``||H x - E x||`` of the returned ``right``.
    ``max_iter`` is the total Krylov-step budget summed over all restarts
    of the solve.  The start vector is a real random vector from ``seed``,
    or the largest ``Theta``-real part of ``v0`` (for example the ground
    state of nearby parameters) plus a real random part of relative
    weight ``START_NOISE`` from ``seed``, which keeps every symmetry block
    of the sector in reach.  ``seed`` also seeds every reseed from a
    random vector, after a breakdown or a cycle that ends with a worse
    residual than it started from (see ``complex_symmetric_lanczos``).
    ``basis`` is only checked against ``p.L``.
    """
    dim = comb(p.L, p.L // 2)
    _check_basis(p, basis)
    if tol_real is None:
        tol_real = 1e-10 * _norm_estimate(p)

    counts = {}
    if method == "lanczos":
        rng = np.random.default_rng(seed)
        if v0 is None:
            u0 = rng.standard_normal(dim)
        else:
            u0 = _theta_real_start(v0)
            noise = rng.standard_normal(dim)
            u0 = (u0 / np.linalg.norm(u0)
                  + START_NOISE * noise / np.linalg.norm(noise))
        res = complex_symmetric_lanczos(
            _real_hamiltonian(p), dim, v0=u0, max_iter=max_iter,
            tol_resid=tol_resid, rng=rng,
        )
        right = _from_real_form(res.vector)
        right /= gauge_factor(right)
        energy, residual = res.eigenvalue, res.residual
        counts = dict(iterations=res.iterations, restarts=res.restarts,
                      matvecs=res.matvecs, extractions=res.extractions)
    elif method == "dense":
        _check_dense_cap(dim)
        w, g, right, _, residual = dense_ground_pair(build_hamiltonian(p).to_dense())
        energy = complex(w[g])
    else:
        raise ValueError(f"unknown method {method!r}")

    left, condition = _covector(right)
    pt_class = "broken" if abs(energy.imag) > tol_real else "unbroken"
    return XxzGroundState(
        params=p, energy=energy, right=right, left=left,
        pt_class=pt_class, condition=condition, method=method,
        residual=residual, **counts,
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
    The solve at ``pa`` starts from ``start`` (a scan passes the ground
    state of its previous point), or cold without one.  ``seed_a`` seeds
    the random start, or random part of the start, at ``pa``, and
    ``seed_b`` the random part of the start at ``pb``; each also seeds any
    reseed at its endpoint.  ``solve`` goes to ``ground_state``.  A pair
    depends on nothing but its arguments.
    """
    ga = ground_state(pa, seed=seed_a, v0=start, **solve)
    gb = ground_state(pb, seed=seed_b, v0=ga.right, **solve)
    return ga, gb, fidelity_variant(definition_tag, ga.left, ga.right,
                                    gb.left, gb.right)


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
    an exceptional point.  The grid is one scan line, walked in order, as
    in a sweep: the Lanczos solve at ``lam`` starts from the ground state at
    the previous grid value (the first value, and the one after a failed
    value, start cold), and the solve at ``lam + epsilon`` from the ground
    state at ``lam``.  Random parts are seeded from ``seed`` and the grid
    index, so a scan depends only on its arguments, but its points are not
    independent: split a grid into separate scans and the points after
    each split start cold.
    With ``on_error="record"`` solver failures (e.g. stalled convergence
    next to an exceptional point) are stored in the record's ``error``
    field instead of aborting the scan.
    """
    if on_error not in ("raise", "record"):
        raise ValueError("on_error must be 'raise' or 'record'")
    grid = np.asarray(grid, dtype=float)
    solver_options = solver_options or {}
    records: list[FidelityRecord] = []
    start = None
    for i, lam in enumerate(grid):
        record = FidelityRecord(lam=float(lam), epsilon=float(epsilon),
                                F=0j, chi_fd=0j, definition_tag=definition_tag)
        try:
            ga, gb, F = _ground_state_pair(
                _with(p, direction, lam), _with(p, direction, lam + epsilon),
                seed + 2 * i, seed + 2 * i + 1, definition_tag, start=start,
                method=method, tol_real=tol_real, **solver_options)
            start = ga.right
            record.F = complex(F)
            record.chi_fd = chi_finite_difference(F, epsilon)
            record.pt_class_a, record.pt_class_b = ga.pt_class, gb.pt_class
            record.energy_a, record.energy_b = ga.energy, gb.energy
        except Exception as err:
            if on_error == "raise":
                raise
            record.error = error_text(err)
            start = None
        records.append(record)
    return records


def is_broken_at(p: XxzParams, direction: str, value: float, *,
                 seed: int = 0, tol_real: float | None = None) -> bool:
    """PT class of the Lanczos ground state; the probe of EP bisection."""
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
    """All sector eigenvalues, sorted by (Re, Im); spectral-portrait data."""
    _check_dense_cap(comb(p.L, p.L // 2))
    return dense_full_spectrum(build_hamiltonian(p).to_dense())
