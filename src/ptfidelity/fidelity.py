"""Fidelity definitions, susceptibilities, and the one-half EP test.

All functions take left states as covectors (row vectors already including
any conjugation), so pairings are plain dot products: ``<L|R> = ell @ r``.
The metricized fidelity ``<L_a|R_b><L_b|R_a>`` is complex in general,
gauge invariant, and real whenever both endpoint states are PT-unbroken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .biortho import BiorthogonalEigensystem
from .errors import (
    DegenerateDenominatorError,
    DimensionMismatchError,
    NoTransitionError,
    PartnerMismatchError,
)

DEFAULT_EPSILON = 1e-3
FIDELITY_TAGS = ("metricized", "RR", "LR-half-sum", "LR-sqrt-abs", "LR-sqrt")


def _check_dims(*vectors):
    dims = {np.asarray(v).shape for v in vectors}
    if len(dims) != 1:
        raise DimensionMismatchError(f"mixed vector shapes {sorted(dims)}")


def _dot(a, b):  # unconjugated pairing over the last axis, one value per row
    return np.einsum("...i,...i->...", a, b)


def metricized_fidelity(left_a, right_a, left_b, right_b):
    """``<L_a|R_b> <L_b|R_a>`` between biorthonormalized state pairs.

    Exactly invariant under per-state phase rotations (a phase applied to
    a right vector is compensated by its own left covector).
    """
    return fidelity_variant("metricized", left_a, right_a, left_b, right_b)


def fidelity_variant(tag, left_a, right_a, left_b, right_b):
    """Evaluate one of the catalogued fidelity definitions.

    ``metricized`` and ``LR-sqrt`` are complex; ``RR`` is guaranteed real
    in [0, 1] by self-normalization; the ``LR-half-sum`` and
    ``LR-sqrt-abs`` variants are nonnegative reals.  Every tag reduces over
    the last axis: stacked ``(n, dim)`` rows give ``n`` values.
    """
    _check_dims(left_a, right_a, left_b, right_b)
    ab, ba = _dot(left_a, right_b), _dot(left_b, right_a)
    metricized = np.multiply(ab, ba, dtype=complex)
    if tag == "metricized":
        F = metricized
    elif tag == "RR":
        F = np.abs(_dot(np.conj(right_a), right_b)) ** 2  # conjugating product
    elif tag == "LR-half-sum":
        F = 0.5 * np.abs(ab + np.conj(ba))
    elif tag == "LR-sqrt-abs":
        F = np.sqrt(np.abs(metricized))
    elif tag == "LR-sqrt":
        F = np.sqrt(metricized)
    else:
        raise ValueError(f"unknown fidelity tag {tag!r}; expected one of {FIDELITY_TAGS}")
    return F.item() if np.ndim(F) == 0 else F


def chi_finite_difference(F, epsilon: float) -> complex:
    """Second-order coefficient estimate ``(1 - F) / epsilon**2``."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return (1.0 - complex(F)) / epsilon**2


def _matvec(V, x):
    V = np.asarray(V)
    if V.ndim == 1:          # diagonal operator stored as its diagonal
        return V * x
    return V @ x


def _guard_denominators(w, ground_index, degeneracy_guard):
    gaps = np.abs(w - w[ground_index])
    gaps[ground_index] = np.inf
    m = float(gaps.min())
    if m < degeneracy_guard:
        raise DegenerateDenominatorError(
            f"|E_0 - E_n| = {m:.3e} below degeneracy guard "
            f"{degeneracy_guard:.3e}: exceptional point or exact degeneracy"
        )
    return gaps


def chi_perturbative(
    es: BiorthogonalEigensystem,
    V,
    ground_index: int,
    *,
    degeneracy_guard: float = 1e-12,
) -> complex:
    """Susceptibility from the second-order sum over excited states.

    ``sum_{n != 0} <L_0|V|R_n><L_n|V|R_0> / (E_0 - E_n)^2`` with ``V`` the
    parameter derivative of the matrix (dense array, or 1-D array read as
    a diagonal operator).
    """
    w = es.eigenvalues
    _guard_denominators(w, ground_index, degeneracy_guard)
    r0 = es.right_vectors[:, ground_index]
    l0 = es.left_vectors[ground_index]
    Varr = np.asarray(V)
    a = es.left_vectors @ _matvec(V, r0)                   # <L_n|V|R_0>
    b = ((l0 * Varr) @ es.right_vectors if Varr.ndim == 1  # <L_0|V|R_n>
         else l0 @ (Varr @ es.right_vectors))
    keep = np.arange(len(w)) != ground_index
    denom = (w[ground_index] - w) ** 2
    return complex(np.sum(b[keep] * a[keep] / denom[keep]))


def second_order_energy(
    es: BiorthogonalEigensystem,
    V,
    ground_index: int,
    *,
    degeneracy_guard: float = 1e-12,
) -> complex:
    """Second-order energy correction (first-power denominators)."""
    w = es.eigenvalues
    _guard_denominators(w, ground_index, degeneracy_guard)
    r0 = es.right_vectors[:, ground_index]
    l0 = es.left_vectors[ground_index]
    a = es.left_vectors @ _matvec(V, r0)
    Varr = np.asarray(V)
    b = ((l0 * Varr) @ es.right_vectors if Varr.ndim == 1
         else l0 @ (Varr @ es.right_vectors))
    keep = np.arange(len(w)) != ground_index
    denom = w[ground_index] - w
    return complex(np.sum(b[keep] * a[keep] / denom[keep]))


def chi_rr_perturbative(
    es: BiorthogonalEigensystem,
    V,
    ground_index: int,
    *,
    degeneracy_guard: float = 1e-12,
) -> complex:
    """Right-right susceptibility (self-normalized definition).

    Double sum over excited states with the right-vector overlap factor
    ``<R_m|R_n> - <R_m|R_0><R_0|R_n>``; real and nonnegative by
    construction.
    """
    w = es.eigenvalues
    _guard_denominators(w, ground_index, degeneracy_guard)
    R = es.right_vectors
    r0 = R[:, ground_index]
    r0 = r0 / np.linalg.norm(r0)
    a = es.left_vectors @ _matvec(V, R[:, ground_index])   # <L_n|V|R_0>
    keep = np.arange(len(w)) != ground_index
    c = a[keep] / (w[ground_index] - w[keep])
    Rk = R[:, keep]
    gram = Rk.conj().T @ Rk
    proj = (Rk.conj().T @ r0)[:, None] * (r0.conj() @ Rk)[None, :]
    M = gram - proj
    return complex(np.conj(c) @ M @ c)


def chi_real_part(
    chi: complex,
    chi_partner: complex,
    *,
    tol: float = 1e-9,
    tol_pair_chi: float = 1e-9,
) -> float:
    """Average of the susceptibility with its PT-partner value.

    In the PT-broken phase the partner susceptibility equals the complex
    conjugate, so the average is the (always real) observable part.
    """
    scale = max(1.0, abs(chi))
    if abs(chi_partner - np.conj(chi)) > tol_pair_chi * scale:
        raise PartnerMismatchError(
            f"partner susceptibility {chi_partner} is not conj({chi}) "
            f"within {tol_pair_chi:.1e} (relative)"
        )
    avg = 0.5 * (chi + chi_partner)
    if abs(avg.imag) > tol * scale:
        raise PartnerMismatchError(
            f"averaged susceptibility retains imaginary part {avg.imag:.3e}"
        )
    return float(avg.real)


def bisect_ep(
    is_broken: Callable[[float], bool],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-6,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Bisection bracket of a PT transition along a parameter axis.

    Shrinks ``[lo, hi]`` (whose endpoints must have different PT classes)
    until ``hi - lo <= tol``; returns the final bracket.
    """
    b_lo, b_hi = is_broken(lo), is_broken(hi)
    if b_lo == b_hi:
        raise NoTransitionError(
            f"endpoints {lo} and {hi} have the same PT class ({'broken' if b_lo else 'unbroken'})"
        )
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if is_broken(mid) == b_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


@dataclass
class OneHalfResult:
    """Outcome of the one-half fidelity test across an exceptional point."""

    is_second_order: bool
    n_crossings: int | None          # matched exponent in (1/2)^n, if any
    target: float                    # (1/2)^n used for the verdict
    re_f_trace: list[tuple[float, complex]] = field(default_factory=list)


@dataclass
class _EndpointState:
    left: object
    right: object
    pt_class: str


def one_half_ep_test(
    state_fn: Callable[[float], tuple],
    lambda_lo: float,
    lambda_hi: float,
    *,
    epsilon_schedule: Sequence[float] = (1e-2, 1e-3, 1e-4),
    a: float = 0.5,
    b: float = 0.5,
    tol_half: float = 5e-3,
    max_n: int = 6,
    fidelity_fn: Callable | None = None,
) -> OneHalfResult:
    """Test whether a PT transition is a second-order exceptional point.

    ``state_fn(lam)`` must return ``(left, right, pt_class)`` with
    ``pt_class`` one of ``"unbroken"``/``"broken"``.  The bracket
    ``[lambda_lo, lambda_hi]`` must straddle exactly one transition and
    should already be tight (bisect first; this test does not locate the
    EP itself).  For each ``eps`` the fidelity is evaluated between
    ``lam_c - a*eps`` and ``lam_c + b*eps`` around the bracket center;
    asymmetric weights ``a != b`` probe the one-sided limits, which share
    the same value at a second-order EP.

    The verdict matches ``Re F`` at the smallest straddling ``eps``
    against ``(1/2)**n``: for product states of independent modes the
    crossing count ``n`` may exceed one, and a value matching no small
    ``n`` indicates a higher-order EP.
    """
    if a <= 0 or b <= 0:
        raise ValueError("asymmetry weights a, b must be positive")

    def fetch(lam):
        left, right, pt_class = state_fn(lam)
        return _EndpointState(left, right, str(pt_class))

    lo_state = fetch(lambda_lo)
    hi_state = fetch(lambda_hi)
    if lo_state.pt_class == hi_state.pt_class:
        raise NoTransitionError(
            f"both endpoints are {lo_state.pt_class}; bracket does not straddle a transition"
        )

    if fidelity_fn is None:
        fidelity_fn = lambda sa, sb: metricized_fidelity(
            sa.left, sa.right, sb.left, sb.right
        )

    center = 0.5 * (lambda_lo + lambda_hi)
    trace: list[tuple[float, complex]] = []
    last_straddling: complex | None = None
    for eps in epsilon_schedule:
        sa = fetch(center - a * eps)
        sb = fetch(center + b * eps)
        F = complex(fidelity_fn(sa, sb))
        trace.append((float(eps), F))
        if sa.pt_class != sb.pt_class:
            last_straddling = F

    if last_straddling is None:
        raise NoTransitionError(
            "no epsilon in the schedule straddled the transition; "
            "tighten the bracket or enlarge epsilon"
        )

    re_f = last_straddling.real
    n_match = None
    for n in range(1, max_n + 1):
        if abs(re_f - 0.5**n) < tol_half:
            n_match = n
            break
    return OneHalfResult(
        is_second_order=n_match is not None,
        n_crossings=n_match,
        target=0.5**n_match if n_match else 0.5,
        re_f_trace=trace,
    )


@dataclass
class FidelityRecord:
    """Fidelity and susceptibility at one scan point.

    ``lam`` is the parameter value, the fidelity compares states at
    ``lam`` and ``lam + epsilon``, and ``pt_class_a``/``pt_class_b`` hold
    the endpoint PT classes ("unbroken"/"broken").  A record whose
    endpoint classes differ straddles an exceptional point.
    """

    lam: float
    epsilon: float
    F: complex
    chi_fd: complex
    definition_tag: str = "metricized"
    pt_class_a: str = ""
    pt_class_b: str = ""
    energy_a: complex = 0j
    energy_b: complex = 0j
    error: str = ""

    @property
    def straddles_ep(self) -> bool:
        return (self.pt_class_a != self.pt_class_b
                and bool(self.pt_class_a) and bool(self.pt_class_b))


@dataclass
class PerturbationDirection:
    """A parameter-derivative matrix with an optional PT check.

    ``pt_permutation`` (a permutation array ``p`` such that the antiunitary
    symmetry acts as ``x -> conj(x)[p]``) enables validation that the
    direction preserves PT symmetry: ``V[p][:, p].conj() == V``.
    """

    matrix: np.ndarray
    description: str = ""
    pt_permutation: np.ndarray | None = None

    def validate_pt(self, tol: float = 1e-12) -> float:
        if self.pt_permutation is None:
            raise ValueError("no PT permutation attached")
        p = np.asarray(self.pt_permutation)
        V = np.asarray(self.matrix, dtype=complex)
        if V.ndim == 1:
            V = np.diag(V)
        defect = float(np.abs(np.conj(V[np.ix_(p, p)]) - V).max())
        if defect > tol:
            raise ValueError(
                f"direction breaks PT symmetry (defect {defect:.3e} > {tol:.1e})"
            )
        return defect
