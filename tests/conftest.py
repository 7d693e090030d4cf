import numpy as np
import pytest

from ptfidelity.ssh import SshParams, band_discriminant


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def reversal_permutation(n):
    return np.arange(n)[::-1]


def random_pt_matrix(n, rng, *, scale_imag=0.5):
    """Random matrix commuting with (index reversal) o (conjugation).

    With P the reversal permutation, PT symmetry means P conj(H) P = H,
    i.e. the real part is reversal-symmetric and the imaginary part is
    reversal-antisymmetric.
    """
    p = reversal_permutation(n)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    a = 0.5 * (a + a[np.ix_(p, p)])
    b = 0.5 * (b - b[np.ix_(p, p)])
    return a + 1j * scale_imag * b


def random_diagonalizable(n, rng, *, min_gap=1e-3):
    """Random complex matrix with a well-separated spectrum."""
    for _ in range(50):
        H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = np.linalg.eigvals(H)
        ws = w[np.lexsort((w.imag, w.real))]
        d = np.abs(np.diff(ws))
        if len(ws) < 2 or d.min() > min_gap:
            return H
    raise RuntimeError("could not sample a well-separated spectrum")


def greedy_conjugate_closure_defect(w):
    """Max distance in a greedy matching of a spectrum onto its conjugate."""
    target = np.conj(w).copy()
    used = np.zeros(len(w), dtype=bool)
    worst = 0.0
    for x in w:
        d = np.abs(target - x)
        d[used] = np.inf
        j = int(np.argmin(d))
        used[j] = True
        worst = max(worst, float(d[j]))
    return worst


def midpoint_bisection(is_broken, lo, hi, tol):
    """Reference bisection: ``((lo, hi), probed points)``, every step at the
    midpoint, at most 200 halvings."""
    probed = [lo, hi]
    b_lo = is_broken(lo)
    is_broken(hi)
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        probed.append(mid)
        if is_broken(mid) == b_lo:
            lo = mid
        else:
            hi = mid
    return (lo, hi), probed


def recording(probe):
    """``probe`` wrapped to append every argument to the returned list."""
    probed = []

    def wrapped(x):
        probed.append(x)
        return probe(x)
    return wrapped, probed


def ssh_broken_count(v1, u=0.2, L=101):
    """Count of PT-broken grid momenta of the SSH ladder at ``v1`` (v2 = 0),
    the class that SSH ``ep-locate`` and criterion 04 bisect on."""
    p = SshParams(v1=v1, v2=0.0, u=u, L=L)
    return int(np.sum(band_discriminant(p.momenta(), p) < 0))
