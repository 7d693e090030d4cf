"""Sparse exact diagonalization of the staggered-gain XXZ ring.

Pauli-matrix convention throughout: neighbor exchange flips antiparallel
pairs with amplitude 2, the Ising term contributes ``Jz * s_j * s_j+1``
with ``s = +/-1``, and the staggered imaginary field adds
``+i*gamma*s_j`` on even sites and ``-i*gamma*s_j`` on odd sites
(0-indexed).  Total magnetization is conserved, so all work happens in
the zero-magnetization sector, where the matrix is complex symmetric in
the spin-z product basis and the left ground covector is the plain
transpose of the right vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import lu_factor, lu_solve

from .biortho import SparseComplexSymmetricMatrix, ground_state_index
from .errors import (
    BasisCapExceededError,
    DimTooLargeError,
    InsufficientSizesError,
    NoConvergenceError,
    OddLError,
)
from .fidelity import DEFAULT_EPSILON, FidelityRecord, chi_finite_difference, fidelity_variant
from .lanczos import complex_symmetric_lanczos

LANCZOS_BASIS_CAP = comb(28, 14)       # ~4.0e7 configurations
DENSE_SECTOR_CAP = 5000


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


def build_m0_basis(L: int, *, basis_cap: int = LANCZOS_BASIS_CAP) -> M0Basis:
    """Enumerate the M=0 sector in ascending bit-pattern order."""
    if L % 2:
        raise OddLError(f"M=0 sector needs even L, got {L}")
    size = comb(L, L // 2)
    if size > basis_cap:
        raise BasisCapExceededError(
            f"M=0 sector of L={L} has {size} states, above cap {basis_cap}"
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


def build_hamiltonian(p: XxzParams, basis: M0Basis | None = None,
                      ) -> SparseComplexSymmetricMatrix:
    """Assemble the sector Hamiltonian as a complex symmetric CSR matrix."""
    if basis is None:
        basis = build_m0_basis(p.L)
    S = basis.states
    n = basis.size
    diag = np.zeros(n, dtype=complex)
    rows, cols = [], []
    for j in range(p.L):
        jn = (j + 1) % p.L
        sj, sn = _spin_z(S, j), _spin_z(S, jn)
        diag += p.jz * sj * sn
        flip = sj != sn
        flipped = S[flip] ^ ((1 << j) | (1 << jn))
        cols.append(np.nonzero(flip)[0])
        rows.append(np.searchsorted(S, flipped))
        diag += 1j * p.gamma * ((-1) ** j) * sj
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    H = sparse.coo_matrix(
        (np.full(len(r), 2.0 + 0j), (r, c)), shape=(n, n)
    ).tocsr()
    H = H + sparse.diags(diag)
    return SparseComplexSymmetricMatrix(matrix=H.tocsr())


def staggered_field_direction(basis: M0Basis) -> np.ndarray:
    """Diagonal of dH/dgamma: ``i * sum_j (-1)^j s_j``."""
    d = np.zeros(basis.size, dtype=complex)
    for j in range(basis.L):
        d += 1j * ((-1) ** j) * _spin_z(basis.states, j)
    return d


def ising_direction(basis: M0Basis) -> np.ndarray:
    """Diagonal of dH/dJz: ``sum_j s_j s_j+1`` (periodic)."""
    d = np.zeros(basis.size, dtype=complex)
    for j in range(basis.L):
        jn = (j + 1) % basis.L
        d += _spin_z(basis.states, j) * _spin_z(basis.states, jn)
    return d


@dataclass
class XxzGroundState:
    """Tracked ground state of one sector Hamiltonian.

    ``left`` is the covector (unconjugated transpose of ``right``, scaled
    so the pairing is 1); ``condition`` records ``|r^T r|``, which tends
    to zero on approach to an exceptional point.
    """

    params: XxzParams
    energy: complex
    right: np.ndarray
    left: np.ndarray
    pt_class: str
    condition: float
    method: str
    residual: float = 0.0

    @property
    def is_broken(self) -> bool:
        return self.pt_class == "broken"


def _norm_estimate(p: XxzParams) -> float:
    return 2.0 * p.L + abs(p.jz) * p.L + p.gamma * p.L


def _covector(right: np.ndarray) -> tuple[np.ndarray, float]:
    q = np.dot(right, right)
    return right / q, float(abs(q))


def _inverse_iteration(H: np.ndarray, energy: complex) -> tuple[np.ndarray, float]:
    """Unit eigenvector of dense ``H`` for its computed eigenvalue ``energy``.

    A few inverse-iteration solves with the LU factors of ``H - energy I``
    from a fixed start vector; raises when the final residual
    ``|H x - energy x|`` exceeds ``1e-10 |H|_1``.
    """
    shifted = H.copy()
    shifted.flat[::len(H) + 1] -= energy
    lu = lu_factor(shifted, overwrite_a=True, check_finite=False)
    x = np.random.default_rng(0).standard_normal(len(H)).astype(complex)
    for _ in range(3):
        x = lu_solve(lu, x, check_finite=False)
        x /= np.linalg.norm(x)
    residual = float(np.linalg.norm(H @ x - energy * x))
    if not residual <= 1e-10 * np.linalg.norm(H, 1):     # NaN fails too
        raise NoConvergenceError(
            f"dense inverse iteration left residual {residual:.3e} at E={energy}")
    return x, residual


def ground_state(
    p: XxzParams,
    *,
    method: str = "lanczos",
    basis: M0Basis | None = None,
    matrix: SparseComplexSymmetricMatrix | None = None,
    v0: np.ndarray | None = None,
    seed: int = 0,
    max_iter: int = 600,
    tol_resid: float = 1e-10,
    tol_real: float | None = None,
) -> XxzGroundState:
    """Smallest-Re eigenpair of the M=0 sector.

    The deterministic selection rule (smallest real part, then largest
    imaginary part) picks one fixed member of the PT pair in the broken
    phase.  ``method="dense"`` takes the eigenvalue from the full dense
    spectrum and its vector from inverse iteration; it serves as the
    oracle path for small sectors.  For ``method="lanczos"``,
    ``max_iter`` is the total Krylov-step budget summed over all restarts
    of the solve, and ``seed`` seeds the start vector and every reseed
    after a quasi-null breakdown (see ``complex_symmetric_lanczos``).
    """
    if basis is None:
        basis = build_m0_basis(p.L)
    if matrix is None:
        matrix = build_hamiltonian(p, basis)
    if tol_real is None:
        tol_real = 1e-10 * _norm_estimate(p)

    if method == "lanczos":
        rng = np.random.default_rng(seed)
        res = complex_symmetric_lanczos(
            matrix, basis.size, v0=v0, max_iter=max_iter,
            tol_resid=tol_resid, rng=rng,
        )
        energy, right, residual = res.eigenvalue, res.vector, res.residual
    elif method == "dense":
        if basis.size > DENSE_SECTOR_CAP:
            raise DimTooLargeError(
                f"sector dim {basis.size} exceeds dense cap {DENSE_SECTOR_CAP}"
            )
        H = matrix.to_dense()
        w = np.linalg.eigvals(H)
        energy = complex(w[ground_state_index(w)])
        right, residual = _inverse_iteration(H, energy)
        pivot = int(np.argmax(np.abs(right)))
        right = right * (abs(right[pivot]) / right[pivot])
    else:
        raise ValueError(f"unknown method {method!r}")

    left, condition = _covector(right)
    pt_class = "broken" if abs(energy.imag) > tol_real else "unbroken"
    return XxzGroundState(
        params=p, energy=energy, right=right, left=left,
        pt_class=pt_class, condition=condition, method=method,
        residual=residual,
    )


def _with(p: XxzParams, direction: str, value: float) -> XxzParams:
    if direction == "gamma":
        return XxzParams(jz=p.jz, gamma=value, L=p.L)
    if direction == "jz":
        return XxzParams(jz=value, gamma=p.gamma, L=p.L)
    raise ValueError(f"unknown scan direction {direction!r}")


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
    an exceptional point.  Grid points are independent (each Lanczos run
    is deterministically seeded), so callers may parallelize freely.
    With ``on_error="record"`` solver failures (e.g. stalled convergence
    next to an exceptional point) are stored in the record's ``error``
    field instead of aborting the scan.
    """
    if on_error not in ("raise", "record"):
        raise ValueError("on_error must be 'raise' or 'record'")
    grid = np.asarray(grid, dtype=float)
    basis = build_m0_basis(p.L)
    solver_options = solver_options or {}
    records: list[FidelityRecord] = []
    for i, lam in enumerate(grid):
        record = FidelityRecord(lam=float(lam), epsilon=float(epsilon),
                                F=0j, chi_fd=0j, definition_tag=definition_tag)
        try:
            ga = ground_state(_with(p, direction, lam), method=method,
                              basis=basis, seed=seed + 2 * i, tol_real=tol_real,
                              **solver_options)
            gb = ground_state(_with(p, direction, lam + epsilon), method=method,
                              basis=basis, seed=seed + 2 * i + 1,
                              tol_real=tol_real, **solver_options)
            F = fidelity_variant(definition_tag, ga.left, ga.right,
                                 gb.left, gb.right)
            record.F = complex(F)
            record.chi_fd = chi_finite_difference(F, epsilon)
            record.pt_class_a = ga.pt_class
            record.pt_class_b = gb.pt_class
            record.energy_a = ga.energy
            record.energy_b = gb.energy
        except Exception as err:
            if on_error == "raise":
                raise
            record.error = f"{type(err).__name__}: {err}"
        records.append(record)
    return records


def is_broken_at(p: XxzParams, direction: str, value: float, *,
                 method: str = "lanczos", seed: int = 0,
                 tol_real: float | None = None) -> bool:
    """PT class probe used by EP bisection."""
    g = ground_state(_with(p, direction, value), method=method, seed=seed,
                     tol_real=tol_real)
    return g.is_broken


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


def records_to_peak_input(records, L: int,
                          *, mask_straddles: bool = True,
                          discontinuity_guard: float | None = 0.5,
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Convert scan records to (grid, Re chi / L) with unusable points masked.

    Straddling records are masked (their finite difference measures the
    one-half jump, not a susceptibility), as are records whose fidelity
    sits far from 1 (``|1 - F| > discontinuity_guard``): those indicate
    the tracked state changed discontinuously between the endpoints, e.g.
    across an exact level crossing, where the finite difference is not a
    derivative of anything.
    """
    x = np.array([r.lam for r in records])
    y = np.array([r.chi_fd.real / L for r in records])
    bad = np.array([bool(r.error) for r in records])
    if mask_straddles:
        bad |= np.array([r.straddles_ep for r in records])
    if discontinuity_guard is not None:
        bad |= np.array([abs(1.0 - r.F) > discontinuity_guard for r in records])
    return x, np.where(bad, np.nan, y)


def full_sector_spectrum(p: XxzParams, *,
                         dense_cap: int = DENSE_SECTOR_CAP) -> np.ndarray:
    """All sector eigenvalues, sorted by (Re, Im); spectral-portrait data."""
    basis = build_m0_basis(p.L)
    if basis.size > dense_cap:
        raise DimTooLargeError(
            f"sector dim {basis.size} exceeds dense cap {dense_cap}"
        )
    H = build_hamiltonian(p, basis).to_dense()
    w = np.linalg.eigvals(H)
    return w[np.lexsort((w.imag, w.real))]
