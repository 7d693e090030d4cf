"""A fixed reference computation that measures the machine's speed.

The shared host the benchmark was tuned on changes speed by up to 2x
within seconds, and process CPU time follows wall time, so the slowdown
is not stolen time that a CPU clock could leave out.  Each workload
round is therefore timed between two runs of this kernel, and the
end-to-end ``wall_rel`` is the round's wall time over the kernel's wall
time measured next to it.  The kernel mixes the kinds of work the
program does: interpreter loops, many small numpy calls, a dense LAPACK
eigensolve and long complex vector operations.  It does not import the
program, so a change to the program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(12345)
_DENSE = _RNG.standard_normal((80, 80)) + 1j * _RNG.standard_normal((80, 80))
_SMALL = np.array([[0.3, 1.1], [0.7, -0.2]], dtype=complex)
_VEC = _RNG.standard_normal(16384) + 1j * _RNG.standard_normal(16384)
_BASIS = _RNG.standard_normal((16, 16384)) + 1j * _RNG.standard_normal((16, 16384))


def _interpreter() -> float:
    s = 0.0
    for i in range(100000):
        s += (i * 0.5) % 7.0
    return s


def _small_numpy() -> float:
    s = 0.0
    for i in range(1000):
        s += float(np.linalg.eigvals(_SMALL + i * 1e-6)[0].real)
    return s


def _dense() -> float:
    return float(np.linalg.eig(_DENSE)[0][0].real)


def _vectors() -> float:
    v = _VEC.copy()
    for _ in range(8):
        v -= _BASIS.T @ (_BASIS.conj() @ v) * 1e-6
    return float(v[0].real)


def kernel_seconds() -> float:
    """Wall time of one run of the kernel (about 50 ms when the host is fast)."""
    t = time.perf_counter()
    _interpreter()
    _small_numpy()
    _dense()
    _vectors()
    return time.perf_counter() - t


def calibrate(repeats: int = 5) -> float:
    """The mean of ``repeats`` kernel runs, in seconds.  A mean, not a
    median: the host switches between a fast and a slow state within a
    second, and the rounds it is compared with pay the average of both."""
    return sum(kernel_seconds() for _ in range(repeats)) / repeats
