"""Restarted Arnoldi iteration for the smallest-Re eigenpair of a complex
symmetric matrix, or of a real one.

The iteration builds a Krylov basis orthonormal under the standard inner
product ``<u, v> = sum_i conj(u_i) v_i``.  Each step orthogonalizes the
new vector against the whole basis in two blocked Gram-Schmidt passes and
enters the coefficients of both into column ``m-1`` of a dense projected
matrix ``T``, so ``H V = V T + w e_m^T`` holds to rounding and
Rayleigh-Ritz on ``T`` keeps its accuracy as the basis grows.  ``T`` is
upper Hessenberg in both dtypes, and the operator need not be symmetric.
An orthonormal basis has no null vectors, so the only breakdown is an
invariant subspace.

The iteration runs in the dtype of its start vector.  A real start vector
with an operator that maps real vectors to real vectors gives a real
basis, a real ``T`` and real reseeds.  Without a start vector the
iteration is complex.

A Ritz extraction takes the Ritz values from ``eigvals(T)`` and forms only
the wanted Ritz vector, by inverse iteration on ``T - theta I``.  The first
comes after ``RITZ_INTERVAL`` steps.  Each extraction yields the standard
Ritz residual estimate ``||w|| |y_m|`` (Parlett, *The Symmetric Eigenvalue
Problem*), and the next extraction is placed where that estimate, decaying
geometrically at the rate it showed since the previous extraction (or since
the start vector's own residual), reaches the tolerance: at least 1 and at
most ``2 * RITZ_INTERVAL`` steps ahead (for a matrix of dimension below
``KRYLOV_CAP``, at most a quarter of the cycle's room, but at least
``RITZ_INTERVAL``), or ``RITZ_INTERVAL`` ahead if it did not fall.  The
true residual is computed only where the estimate has met the tolerance,
and at the end of a cycle.  A cycle keeps at most
``KRYLOV_CAP`` Krylov vectors (memory ``KRYLOV_CAP + 1`` vectors of the
matrix dimension) and restarts from its best Ritz vector (its real part in
a real iteration) when it reaches that size or when the true residual stops
halving between two checks.  Only a start vector of zero or non-finite
norm, and an invariant subspace without a converged pair, reseed from a
fresh random vector.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .biortho import _shifted_lu, gauge_factor, ground_state_index
from .errors import NoConvergenceError

# Krylov vectors kept per cycle: large enough that the sector ground states
# of the XXZ ring converge in one or two cycles up to L=20.  A Ritz
# extraction costs O(m^3) on the dense m x m projection, and it is not cheap
# next to a sparse matvec.  eigvals of a real T takes 25 us at m=10, 73 us
# at m=20, 165 us at m=30, 0.30 ms at m=40 and 2.1-2.5 ms at m=80; of a
# complex T 53 us, 0.21 ms, 0.52 ms, 0.95 ms and 5.9 ms (2.2-3.2x the real
# one).  The Ritz vector takes 30-80 us up to m=40, while one matvec takes
# 6.3 us in the 52-dim L=10 K=0 block, 7.3 us in the 160-dim L=12 one and
# 5.8 us in the real form of the whole 252-dim L=10 sector, nearly all of it
# scipy's dispatch (one core of a shared 2-vCPU Xeon host, OpenBLAS on one
# thread).  For small blocks the extractions, not the matvecs, set the cost
# of a solve
KRYLOV_CAP = 80
# Krylov steps to the first Ritz extraction of a cycle; later extractions
# are placed by the Ritz estimate, at most twice this far apart
RITZ_INTERVAL = 10

log = logging.getLogger(__name__)


@dataclass
class LanczosResult:
    eigenvalue: complex
    vector: np.ndarray          # unit conventional norm, phase-fixed
    residual: float             # ||H x - E x||_2
    iterations: int             # Krylov steps summed over all cycles
    restarts: int               # restarts of every kind
    matvecs: int = 0            # operator applications: steps plus checks
    extractions: int = 0        # projected eigensolves eigvals(T)


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
    """Smallest-Re eigenpair of a complex symmetric matrix, or of a real one.

    Returns the eigenpair whose eigenvalue has the smallest real part among
    the Ritz values, tie-broken toward larger imaginary part.  For complex
    symmetric input the matching left covector is the unconjugated
    transpose of the returned right vector; for a real nonsymmetric
    operator it is not.

    Parameters
    ----------
    matrix : callable, or anything supporting ``@``.
    dim : vector dimension, at least 1.
    v0 : optional seed vector.  Its dtype sets the arithmetic: a real ``v0``
        runs the iteration in real arithmetic (the operator must then map
        real vectors to real vectors), with real reseeds; a complex ``v0``,
        or none, runs it in complex arithmetic.
    max_iter : total budget of Krylov steps (one matvec each) summed over
        all cycles; the true-residual checks come on top of it.
    tol_resid : target on the true residual ``||H x - E x||_2``.

    A cycle ends when it reaches ``KRYLOV_CAP`` vectors or its true
    residual fails to halve between two checks, and the next cycle starts
    from the cycle's best Ritz vector (in a real iteration, its real part).
    A start vector of zero or non-finite norm, and an invariant subspace
    without a converged pair, reseed from a fresh random vector of ``rng``
    instead.  At most ``restart_max`` reseeds are made.

    The result's ``iterations`` counts every Krylov step of every cycle,
    ``matvecs`` every application of ``matrix`` (the steps plus the
    true-residual checks), ``extractions`` every projected eigensolve
    ``eigvals(T)``, and ``restarts`` every restart, reseeds included.

    Raises
    ------
    ValueError
        If ``dim < 1`` or ``v0`` does not have shape ``(dim,)``.
    NoConvergenceError
        After ``restart_max`` reseeds, or if the smallest-Re Ritz pair has
        not met ``tol_resid`` when the ``max_iter`` budget is spent.
    """
    apply = matrix if callable(matrix) else matrix.__matmul__
    if rng is None:
        rng = np.random.default_rng(0)

    real = v0 is not None and np.isrealobj(v0)
    dtype = float if real else complex

    def random_seed():
        if real:
            return rng.standard_normal(dim)
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    seed = random_seed() if v0 is None else np.asarray(v0, dtype=dtype)
    if seed.shape != (dim,):
        raise ValueError(f"seed vector must have shape ({dim},)")

    m_cap = min(KRYLOV_CAP, dim)
    basis = np.empty((m_cap + 1, dim), dtype=dtype)     # rows: Krylov vectors
    T = np.empty((m_cap, m_cap), dtype=dtype)           # projected matrix
    steps = checks = extractions = restarts = reseeds = 0
    best_resid = np.inf
    while True:
        kind, cycle_steps, cycle_checks, cycle_extractions, result = _cycle(
            apply, seed, basis, T, max_iter - steps, tol_resid)
        steps += cycle_steps
        checks += cycle_checks
        extractions += cycle_extractions
        if result is not None:
            result.iterations, result.restarts = steps, restarts
            result.matvecs, result.extractions = steps + checks, extractions
            if result.residual <= tol_resid:
                return result
            best_resid = min(best_resid, result.residual)
        if kind == "budget":
            raise NoConvergenceError(
                f"no converged smallest-Re eigenpair after {steps} Krylov "
                f"steps ({restarts} restarts; best residual {best_resid:.3e})"
            )
        restarts += 1
        reseed = kind in ("degenerate-start", "invariant")
        log.debug("%s after cycle %d: %s, best residual %.3e, %d iterations",
                  "reseed" if reseed else "restart", restarts, kind,
                  best_resid, steps)
        if reseed:
            reseeds += 1
            if reseeds > restart_max:
                raise NoConvergenceError(
                    f"{kind} cycle after {restart_max} reseeds "
                    f"(best residual {best_resid:.3e})"
                )
            seed = random_seed()
        else:
            seed = result.vector.real if real else result.vector


def _ritz_vector(T, theta):
    """Unit eigenvector of the small matrix ``T`` for its eigenvalue ``theta``.

    Two inverse-iteration solves from a vector of ones with the LU factors
    of ``T - theta I`` (``_shifted_lu``), whose pivots are floored at
    ``eps * max |T|`` (1 for ``T = 0``), so an exactly singular shift
    (``T - theta I = 0`` for a 1x1 invariant subspace) still gives the
    eigenvector.  The iterate with the smaller ``||T y - theta y||`` is
    returned: next to an exceptional point the second solve can undo the
    first (3e-14, then 5e-8, for a pair split by 3e-7 in a 20-dim L=8
    block).
    """
    lu, piv, getrs = _shifted_lu(T, theta, np.finfo(float).eps * np.abs(T).max() or 1.0)
    y = np.ones(len(T), dtype=lu.dtype)
    best = best_resid = None
    for _ in range(2):
        y, _ = getrs(lu, piv, y, overwrite_b=True)
        y /= np.linalg.norm(y)
        resid = np.linalg.norm(T @ y - theta * y)
        if best is None or resid < best_resid:
            best, best_resid = y.copy(), resid
    return best


def _steps_ahead(estimate, previous, steps, tol_resid, longest):
    """Krylov steps until the Ritz estimate reaches ``tol_resid``, if it keeps
    the geometric decay it showed from ``previous`` over the last ``steps``
    steps; ``RITZ_INTERVAL`` if it did not fall.  Clipped to
    [1, longest]."""
    if not estimate < previous:                 # also NaN
        return RITZ_INTERVAL
    if estimate <= tol_resid:
        return 1
    rate = np.log(estimate / previous) / steps  # < 0
    return int(min(max(np.ceil(np.log(tol_resid / estimate) / rate), 1), longest))


def _cycle(apply, seed, basis, T, budget, tol_resid):
    """One Arnoldi cycle from ``seed`` of at most ``len(T)`` and at most
    ``budget`` Krylov steps.  Returns why it stopped, the steps it took, the
    true-residual checks and the Ritz extractions it made, and its best
    extracted Ritz pair (or None)."""
    if budget <= 0:
        return "budget", 0, 0, 0, None
    norm = np.linalg.norm(seed)
    if not 0 < norm < np.inf:               # also NaN
        return "degenerate-start", 0, 0, 0, None
    m_cap = T.shape[0]
    # the decay of the estimate speeds up as the Krylov space fills a small
    # matrix, so no jump is longer than a quarter of the cycle's room
    longest = min(2 * RITZ_INTERVAL, max(RITZ_INTERVAL, m_cap // 4))
    basis[0] = seed / norm
    T[:] = 0.0
    t_max = 0.0                     # running max of |T[m-1, m-1]|, |T[m, m-1]|
    checks = extractions = 0
    best: LanczosResult | None = None
    # the next extraction, and the step and Ritz estimate of the last one
    # (the start vector's own residual stands in before the first)
    next_m, prev_m, prev_estimate = RITZ_INTERVAL, 1, np.inf
    for m in range(1, m_cap + 1):
        V = basis[:m]
        Vh = V.conj()               # V itself for a real basis
        Av = apply(V[m - 1])
        # two blocked Gram-Schmidt passes; the first holds the diagonal
        # entry, and both fill column m-1 of the projection
        w = basis[m]                # the next Krylov vector, built in place
        coeffs = Vh @ Av
        np.subtract(Av, V.T @ coeffs, out=w)
        again = Vh @ w
        w -= V.T @ again
        coeffs += again
        T[:m, m - 1] = coeffs
        t_max = max(t_max, abs(coeffs[m - 1]))

        nw = np.sqrt(np.vdot(w, w).real)
        if m == 1:
            prev_estimate = nw / np.linalg.norm(V[0])
        invariant = nw <= 1e-13 * max(t_max, 1.0)
        last = invariant or m == m_cap or m == budget
        if last or m == next_m:
            extractions += 1
            theta = np.linalg.eigvals(T[:m, :m])
            t = ground_state_index(theta)
            y = _ritz_vector(T[:m, :m], theta[t])
            # cheap residual estimate ||w|| * |y_m| before forming the vector
            estimate = nw * abs(y[m - 1])
            if last or estimate <= tol_resid:
                x = basis[:m].T @ y
                x = x / gauge_factor(x)
                resid = float(np.linalg.norm(apply(x) - theta[t] * x))
                checks += 1
                result = LanczosResult(complex(theta[t]), x, resid, 0, 0)
                counts = m, checks, extractions
                if resid <= tol_resid:
                    return "converged", *counts, result
                if invariant:
                    return "invariant", *counts, result
                if best is not None and resid > 0.5 * best.residual:
                    return "stagnation", *counts, min(
                        best, result, key=lambda r: r.residual)
                if last:
                    kind = "budget" if m == budget else "krylov-cap"
                    return kind, *counts, result
                best = result
            next_m = m + _steps_ahead(estimate, prev_estimate, m - prev_m,
                                      tol_resid, longest)
            prev_m, prev_estimate = m, estimate

        T[m, m - 1] = nw
        t_max = max(t_max, nw)
        w /= nw
