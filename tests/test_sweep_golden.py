"""Sweep CSVs against stored files.

Each case below is a small sweep whose CSV is kept under ``tests/data``.
The files were written by the per-point sequential evaluation of every
model; any evaluation path (the stacked SSH scan line included) must
reproduce them byte for byte.  Regenerate them only for an intended and
logged output change:

    PYTHONPATH=src python tests/test_sweep_golden.py [case ...]

With case names (for example ``xxz_tiny``) only those files are
rewritten.  Run it, like the tests, under the default BLAS thread count: the
XXZ rows depend on it in their last digits, and with
``OPENBLAS_NUM_THREADS=1`` the ``xxz_tiny`` case does not match its stored
file.  The ``dense_file`` rows do not depend on it (see
``test_dense_file_matches_with_one_blas_thread``).
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ptfidelity.fidelity import FIDELITY_TAGS
from ptfidelity.sweep import Axis, SweepConfig, run_sweep, write_csv

DATA = Path(__file__).resolve().parent / "data"


def _ssh(axes, fixed, **kwargs):
    return SweepConfig(model="ssh", axes=axes, fixed=fixed, **kwargs)


def _ssh_grid(tag):
    # u x v1 on the L = 21 ladder: both PT transitions on most lines
    return _ssh([Axis("u", 0.05, 0.3, 4), Axis("v1", 0.6, 1.2, 7)],
                {"v2": 0.2, "L": 21}, definition=tag)


def _dense_file(tmp_path):
    # open four-site chain with gain/loss at its ends: PT-symmetric under
    # reversal and conjugation, with an EP inside the lambda range
    H0 = np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1)
    V = np.diag([1j, 0.0, 0.0, -1j])
    np.save(tmp_path / "h0.npy", H0)
    np.save(tmp_path / "v.npy", V)
    return SweepConfig(model="dense-file", axes=[Axis("lambda", 0.2, 1.4, 5)],
                       options={"h0": str(tmp_path / "h0.npy"),
                                "v": str(tmp_path / "v.npy")})


CASES = {
    **{f"ssh_grid_{tag}": (lambda tmp_path, tag=tag: _ssh_grid(tag))
       for tag in FIDELITY_TAGS},
    "ssh_u_scan": lambda tmp_path: _ssh(
        [Axis("u", 0.05, 0.3, 6)], {"v1": 0.9, "v2": 0.1, "L": 21}),
    "ssh_v2_scan": lambda tmp_path: _ssh(
        [Axis("v2", 0.0, 0.4, 5)], {"v1": 0.7, "u": 0.2, "L": 21}),
    # k = pi is exceptional where v1 + v2 = 1 at u = 0: the shifted endpoint
    # of the last point on the first line, the point itself on the second
    "ssh_exceptional_L4": lambda tmp_path: _ssh(
        [Axis("v2", 0.0, 0.001, 2), Axis("v1", 0.499, 0.999, 6)],
        {"u": 0.0, "L": 4}),
    "ssh_negative_u_scan": lambda tmp_path: _ssh(
        [Axis("u", -0.1, 0.2, 4)], {"v1": 0.8, "L": 21}),
    "ssh_negative_u_lines": lambda tmp_path: _ssh(
        [Axis("u", -0.2, 0.2, 3), Axis("v1", 0.6, 1.0, 3)], {"L": 21}),
    "ssh_zero_L": lambda tmp_path: _ssh(
        [Axis("v1", 0.6, 1.0, 3)], {"u": 0.1, "L": 0}),
    "ssh_sizes": lambda tmp_path: _ssh(
        [Axis("v1", 0.7, 1.1, 9)], {"u": 0.15}, sizes=[11, 13, 15]),
    "xxz_tiny": lambda tmp_path: SweepConfig(
        model="xxz", axes=[Axis("gamma", 0.0, 0.4, 5)], fixed={"jz": 1.0},
        sizes=[6], epsilon=1e-3, seed=3),
    "dense_file": _dense_file,
}


def sweep_csv(cfg: SweepConfig) -> str:
    buf = io.StringIO()
    write_csv(run_sweep(cfg), buf)
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_stored_file(name, tmp_path):
    want = (DATA / f"{name}.csv").read_text(encoding="utf-8")
    assert sweep_csv(CASES[name](tmp_path)) == want


def test_dense_file_matches_with_one_blas_thread():
    # the case's open chain is centrohermitian, so every endpoint is solved
    # in real arithmetic, and one BLAS thread must give the stored bytes too
    import ptfidelity

    src = os.path.dirname(os.path.dirname(ptfidelity.__file__))
    here = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, here, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, tempfile\n"
            "from pathlib import Path\n"
            "from test_sweep_golden import CASES, sweep_csv\n"
            "with tempfile.TemporaryDirectory() as tmp:\n"
            "    sys.stdout.write(sweep_csv(CASES['dense_file'](Path(tmp))))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / "dense_file.csv").read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases {unknown}; known: {sorted(CASES)}")
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            text = sweep_csv(CASES[name](Path(tmp)))
            (DATA / f"{name}.csv").write_text(text, encoding="utf-8")
            print(f"wrote {name}.csv ({text.count(chr(10)) - 1} rows)", file=sys.stderr)
