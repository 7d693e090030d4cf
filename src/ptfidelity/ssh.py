"""Closed-form machinery for the two-leg non-Hermitian SSH ladder.

Per-momentum Bloch matrices ``[[iu, eta], [conj(eta), -iu]]`` with
``eta = -w - v1 e^{-ik} - v2 e^{ik}``, analytic eigenvector branches for
both signs of the band discriminant, analytic susceptibilities, EP
geometry, open-boundary spectra, and the complex Berry phase.  Left
states are returned as covectors (conjugate of the analytic left kets),
so every pairing is a plain dot product.  Every per-momentum quantity
comes from one stacked evaluation (``_Bands``): over the grid for sums and
products, at one k for the scalar views ``bloch_matrix``, ``band_point``,
``single_particle_states`` and ``chi_k_*``, and over the points of a sweep
scan line times the grid, one row per point, for ``sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import isfinite

import numpy as np

# scipy.special is imported inside the analytic Berry phase, its only
# caller: after numpy the import takes about 0.29 s (2 shared vCPUs), more
# than the rest of an SSH command
from .biortho import DENSE_DIM_CAP
from .errors import (
    AtExceptionalMomentumError,
    DimTooLargeError,
    GridCrossesEPError,
)
from .fidelity import fidelity_variant

GOLDEN_V2 = 0.5 * (1.0 + np.sqrt(5.0))
EDGE_CELLS = 4             # unit cells at each end that hold a boundary mode


@dataclass(frozen=True)
class SshParams:
    """Ladder couplings: rung hopping ``w`` (energy unit), diagonal
    hoppings ``v1``/``v2``, gain-loss strength ``u``, unit cells ``L``."""

    v1: float
    v2: float = 0.0
    u: float = 0.0
    w: float = 1.0
    L: int = 101

    def __post_init__(self):
        # NaN passes the sign checks below; written out, as a sweep builds two per point
        if not (isfinite(self.v1) and isfinite(self.v2) and isfinite(self.u)
                and isfinite(self.w)):
            raise ValueError("couplings must be finite")
        if self.w <= 0:
            raise ValueError("w must be positive (energy unit)")
        if self.u < 0:
            raise ValueError("u must be nonnegative")
        if self.L < 2:
            raise ValueError("L must be at least 2 unit cells")

    @property
    def tol_delta(self) -> float:
        return _tol_delta(self)

    def momenta(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.L) / self.L


def _tol_delta(c):
    """Largest ``|Delta_k|`` read as an exceptional momentum, for the
    couplings of a parameter set or of a stack (one per row)."""
    return 1e-10 * (c.w**2 + c.v1**2 + c.v2**2 + c.u**2)


def bloch_matrix(k: float, p: SshParams) -> np.ndarray:
    """Traceless 2x2 Bloch block; commutes with sigma_x composed with
    complex conjugation (the per-momentum PT operation)."""
    eta = _Bands(p, k).eta[0]
    return np.array([[1j * p.u, eta], [np.conj(eta), -1j * p.u]])


def bloch_dv1(k: float) -> np.ndarray:
    """Derivative of the Bloch block with respect to v1."""
    return np.array([[0.0, -np.exp(-1j * k)], [-np.exp(1j * k), 0.0]])


def band_discriminant(k, p: SshParams):
    """``Delta_k = |eta_k|^2 - u^2``; positive on the real-energy branch,
    negative where the single-particle pair turns imaginary.

    ``|eta_k|^2`` is a sum of two squares, so the only cancellation left is
    the one against ``u^2`` that sets ``Delta_k`` itself; the expanded
    polynomial in ``cos k`` loses about ``1 / |Delta_k|`` ulps near an EP.
    """
    re_eta = p.w + (p.v1 + p.v2) * np.cos(k)
    im_eta = (p.v1 - p.v2) * np.sin(k)
    return re_eta**2 + im_eta**2 - p.u**2


class _Bands:
    """One stacked evaluation over momenta ``ks`` (the grid by default, one
    momentum for the scalar views); every per-momentum quantity of the
    module is read from here.  ``p`` is one parameter set, whose arrays
    have shape (n,), or a list of sets on the same ``L`` stacked as
    rows, whose arrays have shape (P, n): the couplings ``v1, v2, u, w``
    are then (P, 1) columns that broadcast against the momenta.  ``Delta_k`` and the
    exceptional-momentum mask are computed once, ``eta_k`` on first use."""

    def __init__(self, p: SshParams | list[SshParams], ks=None):
        if isinstance(p, SshParams):
            self.v1, self.v2, self.u, self.w = p.v1, p.v2, p.u, p.w
        else:
            self.v1, self.v2, self.u, self.w = (
                np.array([getattr(q, name) for q in p])[:, None]
                for name in ("v1", "v2", "u", "w"))
            p = p[0]
        self.ks = p.momenta() if ks is None else np.atleast_1d(ks)
        # band_discriminant and _tol_delta read only the couplings
        self.delta = band_discriminant(self.ks, self)
        self.at_ep = np.abs(self.delta) < _tol_delta(self)

    @cached_property
    def eta(self) -> np.ndarray:
        """Off-diagonal Bloch entry ``eta_k``."""
        return -self.w - self.v1 * np.exp(-1j * self.ks) - self.v2 * np.exp(1j * self.ks)

    def pt_class(self):
        """``"broken"`` as soon as any momentum carries imaginary energy,
        else ``"unbroken"``; a list with one class per row for a stack."""
        return np.where(np.any(self.delta < 0, axis=-1), "broken", "unbroken").tolist()

    def energies(self):
        """``E_+/- = +/- sqrt(Delta_k + 0j)``, and 0 at exceptional momenta;
        ``0 - root`` rather than ``-root`` keeps zero parts at +0.0."""
        root = np.where(self.at_ep, 0j, np.sqrt(self.delta + 0j))
        return root, 0 - root

    def chi(self) -> np.ndarray:
        """Closed-form per-momentum susceptibilities for a v1 scan."""
        return chi_k_numerator(self.ks, self) / (4 * self.delta**2)

    def states(self, sigma: int):
        """Analytic left covectors and right vectors of band ``sigma``, the
        two components on a last axis of length 2, assuming no momentum is
        exceptional: ``conj((a, g))`` and ``(conj(a), g)`` times their
        norms, with ``g = -conj(eta_k)`` and ``a = iu - E`` (real branch)
        or ``i (u + sigma |E|)`` (imaginary)."""
        delta, u = self.delta, self.u
        g = -np.conj(self.eta)
        pos = delta > 0
        root = np.sqrt(np.abs(delta))       # |E|
        # s = u + sigma |E|; for sigma = -1 the form |eta_k|^2 / (u + |E|)
        # keeps the digits that u - |E| cancels where |eta_k| << u
        s = u + root if sigma > 0 else np.abs(g) ** 2 / (u + root)
        a = np.where(pos, 1j * u - sigma * root, 1j * s)
        with np.errstate(divide="ignore", invalid="ignore"):    # np.where computes both
            norm_l = np.where(pos, 1.0 / np.sqrt(2 * delta),
                              -sigma * np.sqrt(u / (-2 * delta * s)))
            norm_r = np.where(pos, 1.0 / (np.sqrt(2) * (sigma * 1j * u + root)),
                              1.0 / np.sqrt(2 * u * s))
            left = np.conj(np.stack([a * norm_l, g * norm_l], axis=-1))
            right = np.stack([np.conj(a) * norm_r, g * norm_r], axis=-1)
        # s = 0 only where eta_k = 0 and u > 0: the block is diag(iu, -iu),
        # not an EP, and its -iu eigenvector takes the fixed phase (0, 1)
        left[s == 0] = right[s == 0] = (0, 1)
        return left, right


def _row_errors(*bands: _Bands) -> list[AtExceptionalMomentumError | None]:
    """The one exceptional-momentum check, per row of ``bands`` (stacks of
    the same shape on the same momenta): the error for the first momentum
    that is exceptional for any of them, or None where every one is
    regular.  A one-point stack has one row."""
    bad = np.atleast_2d(np.any([b.at_ep for b in bands], axis=0))
    errors = [None] * len(bad)
    for row in np.flatnonzero(bad.any(axis=-1)):
        m = int(np.argmax(bad[row]))
        k = float(bands[0].ks[m])
        errors[row] = (
            AtExceptionalMomentumError(f"momentum k={k:.6f} is exceptional", k=k)
            if bad.shape[-1] == 1 else AtExceptionalMomentumError(
                f"grid momentum m={m} (k={k:.6f}) is exceptional",
                momentum_index=m, k=k))
    return errors


def _check_regular(*bands: _Bands) -> None:
    """Raises the first row's error of ``_row_errors``."""
    for err in _row_errors(*bands):
        if err is not None:
            raise err


@dataclass(frozen=True)
class BandPoint:
    k: float
    eta: complex
    delta: float
    energy_plus: complex
    energy_minus: complex
    branch: str           # "real", "broken", or "ep"


def band_point(k: float, p: SshParams) -> BandPoint:
    """Single-particle energies and branch tag at one momentum."""
    b = _Bands(p, k)
    delta = float(b.delta[0])
    e_plus, e_minus = (complex(e[0]) for e in b.energies())
    branch = "ep" if b.at_ep[0] else "real" if delta > 0 else "broken"
    return BandPoint(k=float(k), eta=complex(b.eta[0]), delta=delta,
                     energy_plus=e_plus, energy_minus=e_minus, branch=branch)


@dataclass(frozen=True)
class BlochStates:
    """Both eigenvector branches at one momentum (covector lefts)."""

    k: float
    branch: str
    energy_plus: complex
    energy_minus: complex
    left_plus: np.ndarray
    right_plus: np.ndarray
    left_minus: np.ndarray
    right_minus: np.ndarray

    def left(self, sigma: int) -> np.ndarray:
        return self.left_plus if sigma > 0 else self.left_minus

    def right(self, sigma: int) -> np.ndarray:
        return self.right_plus if sigma > 0 else self.right_minus

    def energy(self, sigma: int) -> complex:
        return self.energy_plus if sigma > 0 else self.energy_minus


def single_particle_states(k: float, p: SshParams) -> BlochStates:
    """Analytic left/right eigenvectors of both bands at momentum ``k``.

    The states satisfy ``<L_s|R_t> = delta_st`` and ``<R_s|R_s> = 1`` on
    either branch.  Raises at exceptional momenta, where the two branches
    coalesce and no biorthonormal pair exists.
    """
    b = _Bands(p, k)
    _check_regular(b)
    (lp, rp), (lm, rm) = b.states(+1), b.states(-1)
    ep, em = b.energies()
    return BlochStates(
        k=float(k),
        branch="real" if b.delta[0] > 0 else "broken",
        energy_plus=complex(ep[0]),
        energy_minus=complex(em[0]),
        left_plus=lp[0],
        right_plus=rp[0],
        left_minus=lm[0],
        right_minus=rm[0],
    )


def chi_k_numerator(k, p: SshParams):
    """Numerator of the per-momentum susceptibility along the v1 direction."""
    return (p.w**2 * np.sin(k) ** 2 - p.u**2
            + p.v2 * p.w * (np.cos(k) - np.cos(3 * k))
            + p.v2**2 * np.sin(2 * k) ** 2)


def chi_k_metricized(k: float, p: SshParams) -> float:
    """Closed-form per-momentum susceptibility for a v1 scan.

    Real on both branches and equal for the two bands; negative wherever
    the single-particle energies are imaginary.
    """
    b = _Bands(p, k)
    _check_regular(b)
    return float(b.chi()[0])


def chi_k_rr(k: float, p: SshParams) -> float:
    """Closed-form per-momentum right-right susceptibility (v1 scan).

    Separate closed forms on the two branches.  ``Delta_k`` and the
    exceptional-momentum check come from the stacked evaluation; the
    imaginary-energy branch needs ``u^2 > |eta_k|^2``, so ``u > 0`` there.
    """
    b = _Bands(p, k)
    _check_regular(b)
    delta = float(b.delta[0])
    v1, v2, u, w = p.v1, p.v2, p.u, p.w
    if w != 1.0:
        # the closed forms below are written in units of w
        v1, v2, u = v1 / w, v2 / w, u / w
        delta = delta / w**2
    c1, c2, c3, c4, c5, c6 = (np.cos(i * k) for i in range(1, 7))
    s1, s2, s3, s4 = (np.sin(i * k) for i in range(1, 5))
    if delta > 0:
        root = np.sqrt(delta)
        omega = (
            4 * root * u * v1 * v2 * s2
            + 4 * root * u * v1 * s1
            + 2 * root * u * v2**2 * s4
            + 4 * root * u * v2 * s3
            + 2 * root * u * s2
            + v2 * c4 * (v2 * (-2 * u**2 + v1**2 + 3) + 3 * v1 + v2**3)
            - c1 * (4 * u**2 * v1 + 2 * v1**2 * v2 + 2 * v1 * v2**2
                    + v1 + 4 * v2**3 + 3 * v2)
            + c2 * (-2 * u**2 * (2 * v1 * v2 + 1) + v1**2
                    - v1 * v2 * (v2**2 + 2) + v2**2 + 1)
            + c3 * (v2 * (-4 * u**2 + 2 * v1**2 + 3) - v1 * v2**2
                    + v1 + 3 * v2**3)
            - v1**2 * (2 * u**2 + v2**2 + 1)
            + v1 * v2**3 * c6
            + v2**2 * c5 * (3 * v1 + v2)
            - v1 * v2 - (v2**2 + 4) * v2**2 - 1
        )
        denom = 2 * v1 * v2 * c2 + 2 * c1 * (v1 + v2) + v1**2 + v2**2 + 1
        chi = -omega / (8 * delta * denom**2)
    else:
        upsilon = -(2 * u**2 + v2 * (v2 * c4 - 2 * c1 + 2 * c3) + c2 - v2**2 - 1)
        chi = upsilon / (8 * delta * u**2)
    return float(chi / w**2)        # back from units of w


@dataclass
class ManyBodyFidelity:
    value: complex               # one per row for stacked evaluations
    momenta: np.ndarray
    per_k: np.ndarray            # single-particle fidelities f_k


@dataclass
class ChiTotal:
    value: float
    momenta: np.ndarray
    per_k: np.ndarray


def _many_body(ba: _Bands, bb: _Bands,
               definition_tag: str = "metricized") -> ManyBodyFidelity:
    """The one many-body product: lower-band fidelities ``f_k`` between two
    stacked evaluations of the same shape on the same grid, and their
    product over the momenta (the last axis)."""
    _check_regular(ba, bb)
    per_k = fidelity_variant(definition_tag, *ba.states(-1), *bb.states(-1))
    value = np.prod(per_k, axis=-1)
    return ManyBodyFidelity(value=complex(value) if value.ndim == 0 else value,
                            momenta=ba.ks, per_k=per_k)


def many_body_fidelity(p: SshParams, v1_a: float, v1_b: float,
                       definition_tag: str = "metricized") -> ManyBodyFidelity:
    """Half-filled many-body fidelity between two v1 values.

    The ground state is the product of the lower-band states over the
    finite momentum grid, so the fidelity factorizes into per-momentum
    contributions ``f_k``, evaluated stacked over the grid.
    """
    return _many_body(_Bands(replace(p, v1=v1_a)), _Bands(replace(p, v1=v1_b)),
                      definition_tag)


def chi_total(p: SshParams) -> ChiTotal:
    """Sum of the closed-form per-momentum susceptibilities on the grid."""
    b = _Bands(p)
    _check_regular(b)
    per_k = b.chi()
    return ChiTotal(value=float(per_k.sum()), momenta=b.ks, per_k=per_k)


def ground_state_pt_class(p: SshParams) -> str:
    """PT class of the finite-size half-filled ground state: broken as
    soon as any grid momentum carries imaginary single-particle energy."""
    return _Bands(p).pt_class()


@dataclass
class EPGeometry:
    """Exceptional momenta and the surrounding phase geometry."""

    k_ep: tuple[float, ...]
    line_intercepts: tuple[float, float]      # v1 + v2 = w + u and w - u
    l0: float | None                          # 2*pi / |k_ep2 - k_ep1|
    discriminant_curve: np.ndarray            # sampled (v1, u) double-root locus


def _cos_roots(p: SshParams) -> list[float]:
    """Real solutions c = cos(k) of Delta_k = 0 within [-1, 1]."""
    w, v1, v2, u = p.w, p.v1, p.v2, p.u
    const = v1**2 + v2**2 + w**2 - 2 * v1 * v2 - u**2
    lin = 2 * w * (v1 + v2)
    quad_c = 4 * v1 * v2
    roots: list[float] = []
    if abs(quad_c) < 1e-14:
        if abs(lin) < 1e-14:
            return []                      # constant; no isolated roots
        roots = [-const / lin]
    else:
        disc = lin**2 - 4 * quad_c * const
        if disc < 0:
            return []
        s = np.sqrt(disc)
        roots = [(-lin + s) / (2 * quad_c), (-lin - s) / (2 * quad_c)]
    return [c for c in roots if -1.0 <= c <= 1.0]


def ep_momenta(p: SshParams) -> EPGeometry:
    """Exceptional momenta (roots of ``Delta_k``) and phase-boundary data.

    Solves ``Delta_k = 0`` as a quadratic in cos(k) (reducing to the
    linear form ``cos(k) = (u^2 - w^2 - v1^2) / (2 w v1)`` when ``v2``
    vanishes), returns both momenta per root in [0, 2*pi), the straight
    phase-boundary lines ``v1 + v2 = w +/- u``, the threshold length
    ``L0 = 2*pi/|k2 - k1|`` when exactly two momenta exist, and a sampled
    locus of double roots (the discriminant-zero curve) in the (v1, u)
    plane at this ``v2``, on 201 values of ``v1`` in [0.05, 2.05].
    """
    ks: list[float] = []
    for c in _cos_roots(p):
        k = float(np.arccos(np.clip(c, -1.0, 1.0)))
        ks.append(k)
        mirrored = 2 * np.pi - k
        if abs(mirrored - k) > 1e-12 and mirrored < 2 * np.pi:
            ks.append(mirrored)
    ks = sorted(set(np.round(ks, 15)))

    l0 = None
    if len(ks) == 2:
        l0 = float(2 * np.pi / abs(ks[1] - ks[0]))

    curve = []
    if p.v2 != 0.0:
        for v1 in np.linspace(0.05, 2.05, 201):
            # double root of the quadratic in cos(k): discriminant zero
            u2 = ((4 * v1 * p.v2 * (v1**2 + p.v2**2 + p.w**2 - 2 * v1 * p.v2)
                   - p.w**2 * (v1 + p.v2) ** 2) / (4 * v1 * p.v2))
            if u2 < 0:
                continue
            double_root = -p.w * (v1 + p.v2) / (4 * v1 * p.v2)
            if abs(double_root) <= 1.0:
                curve.append((v1, float(np.sqrt(u2))))
    curve_arr = np.array(curve) if curve else np.empty((0, 2))

    return EPGeometry(
        k_ep=tuple(float(k) for k in ks),
        line_intercepts=(p.w + p.u, p.w - p.u),
        l0=l0,
        discriminant_curve=curve_arr,
    )


def positive_divergence_curve(v2: float = 0.0, w: float = 1.0) -> np.ndarray:
    """Locus where the susceptibility numerator and ``Delta_k`` vanish together.

    Parametrized by momentum: eliminating ``u^2`` between the two
    conditions leaves a quadratic for ``v1``; each of 721 momenta in
    [0, 2*pi] with a real, nonnegative solution pair contributes a sample
    row ``(k, v1, u)``.
    For ``v2 = 0`` the locus reduces to ``u = sqrt(w^2 - v1^2)`` (with
    ``v1 = -w cos k``), a curve through the Hermitian critical point.
    """
    rows = []
    numerator = SshParams(v1=0.0, v2=v2, w=w)   # chi_k_numerator reads u, v2 and w
    for k in np.linspace(0.0, 2 * np.pi, 721):
        c, c2 = np.cos(k), np.cos(2 * k)
        # u^2 from the numerator condition
        a_num = chi_k_numerator(k, numerator)
        # Delta_k + u^2 = quadratic in v1
        # v1^2 + 2 v1 (w c + v2 c2) + (v2^2 + w^2 + 2 w v2 c - a_num) = 0
        b_lin = w * c + v2 * c2
        c_const = v2**2 + w**2 + 2 * w * v2 * c - a_num
        disc = b_lin**2 - c_const
        if disc < 0 or a_num < 0:
            continue
        for v1 in (-b_lin + np.sqrt(disc), -b_lin - np.sqrt(disc)):
            rows.append((k, float(v1), float(np.sqrt(a_num))))
    return np.array(rows) if rows else np.empty((0, 3))


def positive_divergence_parametric_golden(k, w: float = 1.0):
    """Printed parametric form of the double-zero locus at the golden v2."""
    rt5 = np.sqrt(5.0)
    v1 = -np.cos(k) - 0.5 * (1 + rt5) * np.cos(2 * k)
    u_sq = (4 + rt5 + 2 * (1 + rt5) * np.cos(k)
            + (3 + rt5) * np.cos(2 * k)) * np.sin(k) ** 2
    return w * v1, w * np.sqrt(np.maximum(u_sq, 0.0))


@dataclass
class BoundaryMode:
    index: int
    eigenvalue: complex
    edge_weight: float          # |amplitude|^2 within the edge windows
    up_weight: float            # sublattice weight on the gain leg
    down_weight: float
    side: str                   # "left", "right", or "both"


@dataclass
class OpenBoundaryResult:
    eigenvalues: np.ndarray
    boundary_modes: list[BoundaryMode]


def open_boundary_matrix(p: SshParams) -> np.ndarray:
    """Single-particle matrix of the open ladder (no wrap-around bond).

    Basis index ``2 j + s`` for cell ``j`` and leg ``s`` (0 = gain leg,
    1 = loss leg).
    """
    n = 2 * p.L
    H = np.zeros((n, n), dtype=complex)
    for j in range(p.L):
        up, dn = 2 * j, 2 * j + 1
        H[up, up] = 1j * p.u
        H[dn, dn] = -1j * p.u
        H[up, dn] = H[dn, up] = -p.w
        if j + 1 < p.L:
            up2, dn2 = 2 * (j + 1), 2 * (j + 1) + 1
            H[up, dn2] = H[dn2, up] = -p.v1
            H[dn, up2] = H[up2, dn] = -p.v2
    return H


def open_boundary_spectrum(p: SshParams) -> OpenBoundaryResult:
    """Open-chain spectrum with boundary-mode detection.

    A state counts as a boundary mode when at least 0.9 of its
    amplitude-squared weight sits within ``EDGE_CELLS`` unit cells of
    either end; the dominant sublattice and edge side are reported.
    """
    if p.L < 4:
        raise ValueError("open-boundary analysis needs L >= 4")
    if 2 * p.L > DENSE_DIM_CAP:
        raise DimTooLargeError(f"open chain dimension {2*p.L} exceeds {DENSE_DIM_CAP}")
    H = open_boundary_matrix(p)
    w, V = np.linalg.eig(H)
    order = np.lexsort((w.imag, w.real))
    w, V = w[order], V[:, order]

    cells = np.arange(2 * p.L) // 2
    left_win = cells < EDGE_CELLS
    right_win = cells >= p.L - EDGE_CELLS
    up_leg = (np.arange(2 * p.L) % 2) == 0

    modes: list[BoundaryMode] = []
    for i in range(2 * p.L):
        amp = np.abs(V[:, i]) ** 2
        amp = amp / amp.sum()
        lw, rw = float(amp[left_win].sum()), float(amp[right_win].sum())
        edge = lw + rw
        if edge < 0.9:
            continue
        side = "both"
        if lw > 0.8 * edge:
            side = "left"
        elif rw > 0.8 * edge:
            side = "right"
        modes.append(BoundaryMode(
            index=i,
            eigenvalue=complex(w[i]),
            edge_weight=edge,
            up_weight=float(amp[up_leg].sum()),
            down_weight=float(amp[~up_leg].sum()),
            side=side,
        ))
    return OpenBoundaryResult(eigenvalues=w, boundary_modes=modes)


@dataclass
class BerryPhase:
    value: complex
    method: str
    band: int
    n_k: int
    grid_change: float | None = None   # |gamma(2N) - gamma(N)| convergence check


def _berry_loop(p: SshParams, band: int, n_k: int) -> complex:
    b = _Bands(p, 2 * np.pi * np.arange(n_k) / n_k)
    try:
        _check_regular(b)
    except AtExceptionalMomentumError as err:
        raise GridCrossesEPError(f"Berry {err}") from None
    left, right = b.states(band)
    overlaps = np.einsum("ij,ij->i", left, np.roll(right, -1, axis=0))
    return complex(1j * np.sum(np.log(overlaps)))


def complex_berry_phase(p: SshParams, band: int = -1,
                        method: str = "numeric", *,
                        n_k: int = 4096) -> BerryPhase:
    """Loop integral of the biorthogonal connection over the Brillouin zone.

    numeric
        Discretized loop product ``i * sum_j Log <L(k_j)|R(k_j+1)>`` on an
        ``n_k``-point grid.  A second pass at ``2 n_k`` cancels the
        first-order grid error (Richardson), and the difference of the two
        passes is reported as a convergence check.
    analytic
        Closed form for ``v2 = 0`` built from the complete elliptic
        integrals K and Pi (Pi in Carlson's symmetric form); valid in the
        PT-unbroken phase (``u < |w - v1|``).

    The real part is defined modulo ``2 pi``; the imaginary part diverges
    on approach to the PT phase boundary.
    """
    if band not in (+1, -1):
        raise ValueError("band must be +1 or -1")
    if n_k < 1:
        raise ValueError(f"n_k must be at least 1, got {n_k}")
    if method == "numeric":
        g1 = _berry_loop(p, band, n_k)
        g2 = _berry_loop(p, band, 2 * n_k)
        return BerryPhase(
            value=2.0 * g2 - g1,
            method=method, band=band, n_k=2 * n_k,
            grid_change=float(abs(g2 - g1)),
        )
    if method == "analytic":
        if p.v2 != 0.0:
            raise ValueError("analytic Berry phase is available only for v2 = 0")
        w, v1, u = p.w, p.v1, p.u
        x = 4 * v1 / (w * (v1 / w + 1) ** 2)
        y = (4 * v1 / w) / ((v1 / w + 1) ** 2 - u**2 / w**2)
        if y >= 1.0:
            raise GridCrossesEPError(
                "analytic Berry phase undefined at/beyond the PT boundary (y >= 1)"
            )
        from scipy.special import ellipk, elliprf, elliprj

        ellip_k = ellipk(y)
        ellip_pi = elliprf(0.0, 1 - y, 1.0) + x / 3 * elliprj(0.0, 1 - y, 1.0, 1 - x)
        real = np.pi if v1 / w > 1.0 else 0.0
        # branch sign fixed against the numeric loop for this band labeling
        imag = band * (u / (2 * w)) * np.sqrt(y * w / v1) * (
            ellip_k + (v1 - w) / (v1 + w) * ellip_pi)
        return BerryPhase(value=complex(real, imag), method=method,
                          band=band, n_k=0)
    raise ValueError(f"unknown method {method!r}")


def re_mod_2pi(value: complex) -> float:
    """Real part of a Berry phase reduced to [0, 2*pi)."""
    return float(np.real(value) % (2 * np.pi))
