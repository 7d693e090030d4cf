"""Computations made apart from ptfidelity, used to check its outputs.

Nothing here imports the package under test.  The SSH ladder is rebuilt
from its Bloch-block definition and solved as stacked 2x2 eigenproblems;
the XXZ sector is enumerated and assembled independently and solved with
dense LAPACK or ARPACK; the dense-file model goes through
``scipy.linalg.eig(H, left=True)``.

Ground-state rule (the program's documented convention): smallest Re E,
ties within ``1e-8 * max(1, max|E|)`` broken toward the largest Im E.
Broken-phase ground states come as PT pairs, so checks that select a
ground state this way compare Re F and |Im F|, which do not change when
both endpoints take their partner.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

RE_TIE_REL = 1e-8
IM_REAL_REL = 1e-8    # |Im E| below this share of max|E| counts as real


def ground_index(w: np.ndarray) -> int:
    scale = max(1.0, float(np.abs(w).max()))
    re_min = w.real.min()
    tied = np.nonzero(w.real <= re_min + RE_TIE_REL * scale)[0]
    return int(tied[np.argmax(w.imag[tied])])


def pt_class(energy: complex, scale: float) -> str:
    return "broken" if abs(energy.imag) > IM_REAL_REL * max(1.0, scale) else "unbroken"


# --------------------------------------------------------------------------
# SSH ladder: H_k = [[i u, eta], [conj(eta), -i u]],
# eta = -w - v1 e^{-ik} - v2 e^{ik}, so H_k^2 = (|eta|^2 - u^2) * 1.

def ssh_momenta(L: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(L) / L


def ssh_eta(ks, v1, v2, w):
    return -w - v1 * np.exp(-1j * ks) - v2 * np.exp(1j * ks)


def ssh_delta(ks, v1, v2, u, w) -> np.ndarray:
    """Band discriminant |eta_k|^2 - u^2 (E_k^2 of the 2x2 block)."""
    return np.abs(ssh_eta(ks, v1, v2, w)) ** 2 - u**2


def ssh_pt_class(L, v1, v2, u, w) -> str:
    d = ssh_delta(ssh_momenta(L), v1, v2, u, w)
    return "broken" if bool(np.any(d < 0)) else "unbroken"


def _ssh_lower_band(ks, v1, v2, u, w):
    """Right vectors, left covectors and energies of both bands, with the
    E_- = -sqrt(Delta_k) branch (principal root) in slot 0."""
    eta = ssh_eta(ks, v1, v2, w)
    H = np.empty((len(ks), 2, 2), dtype=complex)
    H[:, 0, 0] = 1j * u
    H[:, 0, 1] = eta
    H[:, 1, 0] = np.conj(eta)
    H[:, 1, 1] = -1j * u
    e, R = np.linalg.eig(H)
    # E_- is the root with negative real part (real branch) or negative
    # imaginary part (imaginary branch): order each pair by (Re + Im).
    key = e.real + e.imag
    order = np.argsort(key, axis=1)
    e = np.take_along_axis(e, order, axis=1)
    R = np.take_along_axis(R, order[:, None, :], axis=2)
    Linv = np.linalg.inv(R)          # rows: covectors paired with columns of R
    return e, R, Linv


def ssh_sweep_oracle(L, v1_values, epsilon, v2, u, w):
    """Metricized many-body fidelity F(v1, v1 + eps) on the lower band and
    the perturbative susceptibility sum at v1, for every grid value."""
    ks = ssh_momenta(L)
    F = np.empty(len(v1_values), dtype=complex)
    chi = np.empty(len(v1_values), dtype=complex)
    V = np.zeros((L, 2, 2), dtype=complex)          # dH_k / dv1
    V[:, 0, 1] = -np.exp(-1j * ks)
    V[:, 1, 0] = -np.exp(1j * ks)
    for i, v1 in enumerate(v1_values):
        ea, Ra, La = _ssh_lower_band(ks, v1, v2, u, w)
        _, Rb, Lb = _ssh_lower_band(ks, v1 + epsilon, v2, u, w)
        ra, la = Ra[:, :, 0], La[:, 0, :]
        rb, lb = Rb[:, :, 0], Lb[:, 0, :]
        f_k = np.sum(la * rb, axis=1) * np.sum(lb * ra, axis=1)
        F[i] = np.prod(f_k)
        # chi_k = <L_-|V|R_+><L_+|V|R_-> / (E_- - E_+)^2
        v_mp = np.einsum("ki,kij,kj->k", La[:, 0, :], V, Ra[:, :, 1])
        v_pm = np.einsum("ki,kij,kj->k", La[:, 1, :], V, Ra[:, :, 0])
        chi[i] = np.sum(v_mp * v_pm / (ea[:, 0] - ea[:, 1]) ** 2)
    return F, chi


def ssh_crossings(L, v2, u, w) -> list[tuple[float, int]]:
    """Closed-form v1 at which grid momentum m has Delta_k = 0 (v2 = 0)."""
    if v2 != 0.0:
        raise ValueError("closed-form crossings are written for v2 = 0")
    out = []
    for m, k in enumerate(ssh_momenta(L)):
        # v1^2 + 2 w cos(k) v1 + (w^2 - u^2) = 0
        c = np.cos(k)
        disc = (w * c) ** 2 - (w**2 - u**2)
        if disc < 0:
            continue
        for s in (-1.0, 1.0):
            out.append((float(-w * c + s * np.sqrt(disc)), m))
    return sorted(out)


# --------------------------------------------------------------------------
# XXZ ring, M = 0 sector, Pauli convention: exchange amplitude 2 on
# antiparallel neighbours, Jz s_j s_j+1, +i gamma s_j on even sites and
# -i gamma s_j on odd sites, periodic boundary.

def xxz_states(L: int) -> np.ndarray:
    states = [sum(1 << j for j in up) for up in combinations(range(L), L // 2)]
    return np.array(sorted(states), dtype=np.int64)


def xxz_sector(L: int, jz: float, gamma: float, states=None) -> sp.csr_matrix:
    if states is None:
        states = xxz_states(L)
    n = len(states)
    index = {int(s): i for i, s in enumerate(states)}
    spins = np.array([[1 if (int(s) >> j) & 1 else -1 for j in range(L)]
                      for s in states])
    stagger = np.array([(-1) ** j for j in range(L)])
    diag = (jz * np.sum(spins * np.roll(spins, -1, axis=1), axis=1)
            + 1j * gamma * (spins @ stagger))
    rows, cols = [], []
    for i, s in enumerate(states):
        s = int(s)
        for j in range(L):
            jn = (j + 1) % L
            if ((s >> j) & 1) != ((s >> jn) & 1):
                rows.append(index[s ^ ((1 << j) | (1 << jn))])
                cols.append(i)
    off = sp.csr_matrix((np.full(len(rows), 2.0 + 0j), (rows, cols)), shape=(n, n))
    return (off + sp.diags(diag)).tocsr()


def xxz_gamma_direction(L: int, states=None) -> np.ndarray:
    """dH/dgamma as a dense diagonal matrix."""
    H1 = xxz_sector(L, 0.0, 1.0, states)
    H0 = xxz_sector(L, 0.0, 0.0, states)
    return (H1 - H0).toarray()


def dense_ground(H: np.ndarray):
    """(energy, covector, right vector, class) from dense LAPACK eig,
    with left covectors from ``scipy.linalg.eig(H, left=True)``."""
    w, vl, vr = sla.eig(H, left=True)
    g = ground_index(w)
    left = vl[:, g].conj()
    right = vr[:, g]
    left = left / np.dot(left, right)
    return complex(w[g]), left, right, pt_class(w[g], float(np.abs(w).max()))


def arpack_ground(H: sp.spmatrix, k: int = 6, seed: int = 12345):
    """(energy, covector, right vector, class, residual) from ARPACK
    ``eigs(which="SR")`` on a complex symmetric sparse matrix."""
    v0 = np.random.default_rng(seed).standard_normal(H.shape[0]).astype(complex)
    w, V = spla.eigs(H, k=k, which="SR", v0=v0, tol=0)
    g = ground_index(w)
    right = V[:, g] / np.linalg.norm(V[:, g])
    resid = float(np.linalg.norm(H @ right - w[g] * right))
    left = right / np.dot(right, right)    # H = H^T: the plain transpose
    return complex(w[g]), left, right, pt_class(w[g], float(np.abs(w).max())), resid


def fidelity(left_a, right_a, left_b, right_b) -> complex:
    return complex(np.dot(left_a, right_b) * np.dot(left_b, right_a))
