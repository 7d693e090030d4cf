"""Restarted Lanczos iteration for complex symmetric matrices.

The iteration builds a Krylov basis orthogonal under the unconjugated
bilinear form ``<u, v> = sum_i u_i v_i``, which tridiagonalizes matrices
equal to their plain transpose (the three-term recurrence of Cullum and
Willoughby).  Each step reorthogonalizes fully against the current basis
and enters those coefficients into a dense projected matrix ``T``, so
``H V = V T + w e_m^T`` holds to rounding and Rayleigh-Ritz on ``T`` keeps
its accuracy as the basis grows.  A cycle keeps at most ``KRYLOV_CAP``
Krylov vectors (memory ``KRYLOV_CAP + 1`` vectors of the matrix dimension)
and restarts from its best Ritz vector when it reaches that size or when
the true residual stops halving between two extractions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .biortho import gauge_factor, ground_state_index
from .errors import NoConvergenceError, QuasiNullBreakdownError

# Krylov vectors kept per cycle: large enough that the sector ground states
# of the XXZ ring converge in one or two cycles up to L=20, small enough that
# eig of the projected matrix stays cheap next to a sparse matvec
KRYLOV_CAP = 80

log = logging.getLogger(__name__)


@dataclass
class LanczosResult:
    eigenvalue: complex
    vector: np.ndarray          # unit conventional norm, phase-fixed
    residual: float             # ||H x - E x||_2
    iterations: int             # Krylov steps summed over all cycles
    restarts: int               # restarts of every kind


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
    breakdown_guard: float = 1e-14,
    restart_max: int = 5,
    rng: np.random.Generator | None = None,
    ritz_interval: int = 10,
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
    breakdown_guard : relative quasi-norm floor ``|<w,w>| / ||w||^2`` below
        which the iteration declares a quasi-null breakdown and reseeds
        from a fresh random vector (up to ``restart_max`` times; an
        invariant subspace without a converged pair reseeds the same way).
    ritz_interval : Krylov steps between Ritz value estimates.

    The result's ``iterations`` counts every Krylov step of every cycle and
    ``restarts`` counts every restart: reseeds as above, and restarts from
    the cycle's best Ritz vector when it reaches ``KRYLOV_CAP`` vectors or its
    true residual fails to halve between two extractions.

    Raises
    ------
    QuasiNullBreakdownError
        After ``restart_max`` reseeds.
    NoConvergenceError
        If the smallest-Re Ritz pair has not met ``tol_resid`` when the
        ``max_iter`` budget is spent.
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
    steps = restarts = reseeds = 0
    best_resid = np.inf
    while True:
        kind, cycle_steps, result = _cycle(
            apply, seed, basis, T, max_iter - steps, tol_resid,
            breakdown_guard, ritz_interval)
        steps += cycle_steps
        if result is not None:
            result.iterations, result.restarts = steps, restarts
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
        if kind in ("quasi-null", "invariant"):
            reseeds += 1
            if reseeds > restart_max:
                raise QuasiNullBreakdownError(
                    f"{kind} breakdown persisted through {restart_max} "
                    f"restarts (best residual {best_resid:.3e})"
                )
            seed = random_seed()
        else:
            seed = result.vector


def _cycle(apply, seed, basis, T, budget, tol_resid, breakdown_guard,
           ritz_interval):
    """One Lanczos cycle from ``seed`` of at most ``len(T)`` and at most
    ``budget`` Krylov steps.  Returns why it stopped, the steps it took and
    its best extracted Ritz pair (or None)."""
    if budget <= 0:
        return "budget", 0, None
    q0 = _bilinear(seed, seed)
    if abs(q0) < breakdown_guard * max(np.linalg.norm(seed) ** 2, 1e-300):
        return "quasi-null", 0, None
    m_cap = T.shape[0]
    basis[0] = seed / np.sqrt(q0)
    T[:] = 0.0
    best: LanczosResult | None = None
    for m in range(1, m_cap + 1):
        v = basis[m - 1]
        w = apply(v)
        alpha = _bilinear(v, w)
        w = w - alpha * v
        if m > 1:
            w = w - T[m - 2, m - 1] * basis[m - 2]
        # full reorthogonalization in the bilinear form (single blocked
        # pass); its coefficients belong to column m-1 of the projection
        coeffs = basis[:m] @ w
        w = w - basis[:m].T @ coeffs
        T[m - 1, m - 1] = alpha
        T[:m, m - 1] += coeffs

        nw = np.linalg.norm(w)
        invariant = nw <= 1e-13 * max(np.abs(T[:m, :m]).max(), 1.0)
        last = invariant or m == m_cap or m == budget
        if last or m % ritz_interval == 0:
            theta, Y = np.linalg.eig(T[:m, :m])
            t = ground_state_index(theta)
            # cheap residual estimate ||w|| * |y_m| before forming the vector
            if last or nw * abs(Y[m - 1, t]) <= tol_resid:
                x = basis[:m].T @ Y[:, t]
                x = x / gauge_factor(x)
                resid = float(np.linalg.norm(apply(x) - theta[t] * x))
                result = LanczosResult(complex(theta[t]), x, resid, 0, 0)
                if resid <= tol_resid:
                    return "converged", m, result
                if invariant:
                    return "invariant", m, result
                if best is not None and resid > 0.5 * best.residual:
                    return "stagnation", m, min(best, result,
                                                key=lambda r: r.residual)
                if last:
                    kind = "budget" if m == budget else "krylov-cap"
                    return kind, m, result
                best = result

        q = _bilinear(w, w)
        if abs(q) < breakdown_guard * nw**2:
            return "quasi-null", m, best
        beta = np.sqrt(q)
        T[m, m - 1] = T[m - 1, m] = beta
        basis[m] = w / beta
