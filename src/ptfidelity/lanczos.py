"""Restarted Lanczos iteration for complex symmetric matrices.

The iteration builds a Krylov basis orthogonal under the unconjugated
bilinear form ``<u, v> = sum_i u_i v_i``, which tridiagonalizes matrices
equal to their plain transpose (the three-term recurrence of Cullum and
Willoughby).  Each step reorthogonalizes fully against the current basis
and enters those coefficients into a dense projected matrix ``T``, so
``H V = V T + w e_m^T`` holds to rounding and Rayleigh-Ritz on ``T`` keeps
its accuracy as the basis grows.  Every ``RITZ_INTERVAL`` steps the Ritz
values come from ``eigvals(T)``; only the wanted Ritz vector is formed, by
inverse iteration on ``T - theta I``.  A cycle keeps at most ``KRYLOV_CAP``
Krylov vectors (memory ``KRYLOV_CAP + 1`` vectors of the matrix dimension)
and restarts when it reaches that size or when the true residual stops
halving between two extractions: from its best Ritz vector if that vector's
residual is finite and below the start vector's, else from a fresh random
vector.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgetrf, zgetrs

from .biortho import gauge_factor, ground_state_index
from .errors import NoConvergenceError, QuasiNullBreakdownError

# Krylov vectors kept per cycle: large enough that the sector ground states
# of the XXZ ring converge in one or two cycles up to L=20.  A Ritz
# extraction costs O(m^3) on the dense m x m projection, and it is not cheap
# next to a sparse matvec: at m=40, eig takes 1.6 ms and eigvals 0.9 ms,
# while one L=10 sector matvec takes 6 us (one core of a shared 2-vCPU host,
# OpenBLAS on one thread).  For small sectors the extractions, not the
# matvecs, set the cost of a solve
KRYLOV_CAP = 80
# Krylov steps between Ritz extractions
RITZ_INTERVAL = 10
# relative quasi-norm floor |<w,w>| / ||w||^2 of a Krylov vector
BREAKDOWN_GUARD = 1e-14

log = logging.getLogger(__name__)


@dataclass
class LanczosResult:
    eigenvalue: complex
    vector: np.ndarray          # unit conventional norm, phase-fixed
    residual: float             # ||H x - E x||_2
    iterations: int             # Krylov steps summed over all cycles
    restarts: int               # restarts of every kind
    matvecs: int = 0            # operator applications: steps plus checks


def _resolve_apply(matrix):
    if callable(matrix):
        return matrix
    if hasattr(matrix, "apply"):
        return matrix.apply
    return lambda v: matrix @ v


def _bilinear(u, v):
    return np.dot(u, v)  # no conjugation


def complex_symmetric_lanczos(
    matrix,
    dim: int,
    v0: np.ndarray | None = None,
    max_iter: int = 500,
    tol_resid: float = 1e-10,
    *,
    restart_max: int = 5,
    rng: np.random.Generator | None = None,
) -> LanczosResult:
    """Extremal eigenpair of a complex symmetric matrix.

    Returns the eigenpair whose eigenvalue has the smallest real part among
    the Ritz values, tie-broken toward larger imaginary part.  The matching
    left covector is the unconjugated transpose of the returned right
    vector (complex symmetry).

    Parameters
    ----------
    matrix : callable, object with ``apply``, or anything supporting ``@``.
    dim : vector dimension.
    v0 : optional seed vector with nonzero quasi-norm ``<v, v>``.
    max_iter : total budget of Krylov steps (one matvec each) summed over
        all cycles; the true-residual checks come on top of it.
    tol_resid : target on the true residual ``||H x - E x||_2``.

    A cycle ends when it reaches ``KRYLOV_CAP`` vectors or its true
    residual fails to halve between two extractions.  The next cycle starts
    from the cycle's best Ritz vector if that vector's residual is finite
    and below the start vector's own ``||H v0 - a v0|| / ||v0||``; otherwise
    the cycle made no progress (a near-breakdown can blow the projection up
    to a Ritz residual of 1e98), and the iteration reseeds from a fresh
    random vector of ``rng``.  A Krylov vector whose relative quasi-norm
    falls below ``BREAKDOWN_GUARD`` (a quasi-null breakdown), and an
    invariant subspace without a converged pair, reseed the same way.  At
    most ``restart_max`` reseeds are made.

    The result's ``iterations`` counts every Krylov step of every cycle,
    ``matvecs`` every application of ``matrix`` (the steps plus the
    true-residual checks), and ``restarts`` every restart, reseeds
    included.

    Raises
    ------
    QuasiNullBreakdownError
        After ``restart_max`` reseeds, the last one for a breakdown.
    NoConvergenceError
        After ``restart_max`` reseeds, the last one for a cycle without
        progress, or if the smallest-Re Ritz pair has not met ``tol_resid``
        when the ``max_iter`` budget is spent.
    """
    apply = _resolve_apply(matrix)
    if rng is None:
        rng = np.random.default_rng(0)

    def random_seed():
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

    seed = random_seed() if v0 is None else np.asarray(v0, dtype=complex)
    if seed.shape != (dim,):
        raise ValueError(f"seed vector must have shape ({dim},)")

    m_cap = min(KRYLOV_CAP, dim)
    basis = np.empty((m_cap + 1, dim), dtype=complex)   # rows: Krylov vectors
    T = np.empty((m_cap, m_cap), dtype=complex)         # projected matrix
    steps = checks = restarts = reseeds = 0
    best_resid = np.inf
    while True:
        kind, cycle_steps, cycle_checks, result, start_resid = _cycle(
            apply, seed, basis, T, max_iter - steps, tol_resid)
        steps += cycle_steps
        checks += cycle_checks
        if result is not None:
            result.iterations, result.restarts = steps, restarts
            result.matvecs = steps + checks
            if result.residual <= tol_resid:
                return result
            best_resid = min(best_resid, result.residual)
        if kind == "budget":
            raise NoConvergenceError(
                f"no converged smallest-Re eigenpair after {steps} Krylov "
                f"steps ({restarts} restarts; best residual {best_resid:.3e})"
            )
        restarts += 1
        log.debug("restart after cycle %d: %s, best residual %.3e, "
                  "%d iterations", restarts, kind, best_resid, steps)
        breakdown = kind in ("quasi-null", "invariant")
        if breakdown or not result.residual < start_resid:   # also NaN
            reseeds += 1
            if reseeds > restart_max:
                error = QuasiNullBreakdownError if breakdown else NoConvergenceError
                raise error(
                    f"{kind} cycle after {restart_max} reseeds "
                    f"(best residual {best_resid:.3e})"
                )
            seed = random_seed()
        else:
            seed = result.vector


def _ritz_vector(T, theta, t_max):
    """Unit eigenvector of the small matrix ``T`` for its eigenvalue ``theta``.

    Two inverse-iteration solves with the LU factors of ``T - theta I``.
    Pivots below ``eps * t_max`` (``t_max`` = max |T|) are raised to it, as
    LAPACK's inverse iteration does, so an exactly singular shift
    (``T - theta I = 0`` for a 1x1 invariant subspace) still gives the
    eigenvector.
    """
    pivot_floor = max(np.finfo(float).eps * t_max, np.finfo(float).tiny)
    lu, piv, _ = zgetrf(T - theta * np.eye(len(T)), overwrite_a=True)
    small = np.flatnonzero(np.abs(lu.diagonal()) < pivot_floor)
    lu[small, small] = pivot_floor
    y = np.ones(len(T), dtype=complex)
    for _ in range(2):
        y, _ = zgetrs(lu, piv, y, overwrite_b=True)
        y /= np.linalg.norm(y)
    return y


def _cycle(apply, seed, basis, T, budget, tol_resid):
    """One Lanczos cycle from ``seed`` of at most ``len(T)`` and at most
    ``budget`` Krylov steps.  Returns why it stopped, the steps it took, the
    true-residual checks it made, its best extracted Ritz pair (or None) and
    the relative residual ``||H v0 - a v0|| / ||v0||`` of the start vector
    (inf before the first step)."""
    start_resid = np.inf
    if budget <= 0:
        return "budget", 0, 0, None, start_resid
    q0 = _bilinear(seed, seed)
    if abs(q0) < BREAKDOWN_GUARD * max(np.linalg.norm(seed) ** 2, 1e-300):
        return "quasi-null", 0, 0, None, start_resid
    m_cap = T.shape[0]
    basis[0] = seed / np.sqrt(q0)
    T[:] = 0.0
    t_max = 0.0                     # running max of |T[:m, :m]|
    checks = 0
    best: LanczosResult | None = None
    for m in range(1, m_cap + 1):
        v = basis[m - 1]
        Av = apply(v)
        alpha = _bilinear(v, Av)
        w = basis[m]                # the next Krylov vector, built in place
        np.multiply(alpha, v, out=w)
        np.subtract(Av, w, out=w)
        if m > 1:
            w -= T[m - 2, m - 1] * basis[m - 2]
        # full reorthogonalization in the bilinear form (single blocked
        # pass); its coefficients belong to column m-1 of the projection
        coeffs = basis[:m] @ w
        w -= basis[:m].T @ coeffs
        T[m - 1, m - 1] = alpha
        T[:m, m - 1] += coeffs
        t_max = max(t_max, np.abs(T[:m, m - 1]).max())

        nw = np.linalg.norm(w)
        if m == 1:
            start_resid = nw / np.linalg.norm(v)
        invariant = nw <= 1e-13 * max(t_max, 1.0)
        last = invariant or m == m_cap or m == budget
        if last or m % RITZ_INTERVAL == 0:
            theta = np.linalg.eigvals(T[:m, :m])
            t = ground_state_index(theta)
            y = _ritz_vector(T[:m, :m], theta[t], t_max)
            # cheap residual estimate ||w|| * |y_m| before forming the vector
            if last or nw * abs(y[m - 1]) <= tol_resid:
                x = basis[:m].T @ y
                x = x / gauge_factor(x)
                resid = float(np.linalg.norm(apply(x) - theta[t] * x))
                checks += 1
                result = LanczosResult(complex(theta[t]), x, resid, 0, 0)
                if resid <= tol_resid:
                    return "converged", m, checks, result, start_resid
                if invariant:
                    return "invariant", m, checks, result, start_resid
                if best is not None and resid > 0.5 * best.residual:
                    return "stagnation", m, checks, min(
                        best, result, key=lambda r: r.residual), start_resid
                if last:
                    kind = "budget" if m == budget else "krylov-cap"
                    return kind, m, checks, result, start_resid
                best = result

        q = _bilinear(w, w)
        if abs(q) < BREAKDOWN_GUARD * nw**2:
            return "quasi-null", m, checks, best, start_resid
        beta = np.sqrt(q)
        T[m, m - 1] = T[m - 1, m] = beta
        t_max = max(t_max, abs(beta))
        w /= beta
