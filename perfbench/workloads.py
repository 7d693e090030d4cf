"""The four workloads: inputs made from the seed, one round of program
operations, and the checks of every operation against ``oracles``.

A round is a fixed list of operations (sweep points or ``ep-locate``
calls).  ``prepare`` builds the inputs and ``reference`` the independent
reference, once per run and outside the timed region; ``reference`` runs
after the rounds, so it does not raise the measured peak memory.
``run_round`` is the timed part; ``chunks`` splits it into pieces that
are timed one by one, with the calibration kernel run between them, so
that a long round is compared with the machine's speed during it.
``check`` returns one entry per operation: ``""`` when it passed,
``"error: ..."`` for an in-band program error, ``"wrong: ..."`` for an
output that disagrees with the reference.

Seeds.  ``--seed`` moves the grids of the workloads whose per-operation
cost does not depend on where the grid sits (``ssh-sweep``,
``dense-sweep``, the SSH half of ``ep-locate``).  The XXZ inputs
(``xxz-sweep`` and the XXZ half of ``ep-locate``) are fixed:
the program's own Lanczos seed stays at its default 0, and which solves
stall is a deterministic function of (gamma, point index), so a
seed-moved gamma grid would turn the stall count into binomial noise
that no run length here averages out (100-point L=10 grids shifted by
0.002 gave 6 and 9 stalls).
"""

from __future__ import annotations

import csv
import json
import os
from functools import partial

import numpy as np

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs")

EPSILON = 1e-3                 # program default fidelity step
# tolerances of the checks (largest deviation seen in prototypes in brackets)
TOL_F_SSH = 1e-9               # [4e-13]
TOL_CHI_REL = 1e-8             # [3e-12]
TOL_IM_F_UNBROKEN = 1e-10
TOL_F_XXZ = 1e-8              # [1.5e-11, Lanczos residual 1e-10]
TOL_F_DENSE = 1e-9            # [2.6e-14]
TOL_HALF = 1e-3


def read_sweep_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _complex(row, re_key, im_key) -> complex:
    return complex(float(row[re_key]), float(row[im_key]))


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _shifted(seed: int, start: float, stop: float, max_shift: float):
    """The grid ends moved by the same seed-drawn amount in [0, max_shift)."""
    shift = float(_rng(seed).uniform(0.0, max_shift))
    return start + shift, stop + shift


def _compare_f(program: complex, ref: complex, tol: float) -> str:
    """Re F and |Im F| agree (PT-partner invariant comparison)."""
    d = max(abs(program.real - ref.real), abs(abs(program.imag) - abs(ref.imag)))
    return "" if d <= tol else f"wrong: F={program} reference {ref} (|dF|={d:.2e})"


def _ref_point(ends) -> dict:
    """Reference of one sweep point from the ground states at both ends."""
    F = oracles.fidelity(ends[0][1], ends[0][2], ends[1][1], ends[1][2])
    return {"re_F": F.real, "abs_im_F": abs(F.imag),
            "pt_class_a": ends[0][3], "pt_class_b": ends[1][3]}


class Workload:
    name = ""
    warmup = True           # one untimed round first; off for long rounds

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.outdir = outdir

    def prepare(self) -> None:
        """Inputs of the program (untimed, before the rounds)."""

    def reference(self) -> None:
        """Independent reference (untimed, after the rounds)."""

    def run_round(self):
        raise NotImplementedError

    def chunks(self) -> list:
        """The round as callables timed one by one; ``join`` their outputs."""
        return [self.run_round]

    def join(self, parts):
        return parts[0]

    def check(self, output) -> list[str]:
        raise NotImplementedError


# --------------------------------------------------------------------------

class SweepWorkload(Workload):
    TOL_F: float
    ref: list[dict]         # one _ref_point per grid point

    def configs(self) -> list:
        """One ``SweepConfig`` per chunk of the round."""
        raise NotImplementedError

    def check(self, rows):
        """F and both endpoint PT classes of every point against ``ref``."""
        out = []
        for row, ref in zip(rows, self.ref):
            if row["error"]:
                out.append("error: " + row["error"])
                continue
            F = _complex(row, "re_F", "im_F")
            msg = _compare_f(F, complex(ref["re_F"], ref["abs_im_F"]), self.TOL_F)
            got = (row["pt_class_a"], row["pt_class_b"])
            want = (ref["pt_class_a"], ref["pt_class_b"])
            if not msg and got != want:
                msg = f"wrong: PT classes {got} reference {want}"
            out.append(msg)
        return out + ["wrong: missing point"] * (len(self.ref) - len(rows))

    def sweep(self, k: int, cfg):
        from ptfidelity.sweep import emit, run_sweep
        path = os.path.join(self.outdir, f"{self.name}-{k}.csv")
        emit(run_sweep(cfg), "csv", path)
        return read_sweep_csv(path)

    def chunks(self):
        return [partial(self.sweep, k, cfg) for k, cfg in enumerate(self.configs())]

    def join(self, parts):
        return [row for rows in parts for row in rows]

    def run_round(self):
        return self.join([chunk() for chunk in self.chunks()])


class SshSweep(SweepWorkload):
    name = "ssh-sweep"
    L, U, V2, W = 101, 0.2, 0.0, 1.0
    START, STOP, COUNT = 0.5, 1.3, 25     # both PT transitions: 0.802, 1.198
    TOL_F = TOL_F_SSH

    def prepare(self):
        step = (self.STOP - self.START) / (self.COUNT - 1)
        self.start, self.stop = _shifted(self.seed, self.START, self.STOP, step)
        self.v1 = np.linspace(self.start, self.stop, self.COUNT)

    def reference(self):
        F, self.ref_chi = oracles.ssh_sweep_oracle(
            self.L, self.v1, EPSILON, self.V2, self.U, self.W)
        self.ref = [{"re_F": f.real, "abs_im_F": abs(f.imag),
                     "pt_class_a": oracles.ssh_pt_class(self.L, v, self.V2, self.U, self.W),
                     "pt_class_b": oracles.ssh_pt_class(self.L, v + EPSILON, self.V2,
                                                        self.U, self.W)}
                    for f, v in zip(F, self.v1)]

    def configs(self):
        from ptfidelity.sweep import Axis, SweepConfig
        return [SweepConfig(model="ssh",
                            axes=[Axis("v1", self.start, self.stop, self.COUNT)],
                            fixed={"u": self.U, "v2": self.V2, "L": self.L},
                            threads=1, seed=0)]

    def check(self, rows):
        """The shared F and class check, then chi and Im F."""
        out = super().check(rows)
        for i, row in enumerate(rows):
            if out[i]:
                continue
            chi = _complex(row, "re_chi", "im_chi")
            if abs(chi - self.ref_chi[i]) > TOL_CHI_REL * abs(self.ref_chi[i]):
                out[i] = f"wrong: chi={chi} reference {self.ref_chi[i]}"
            elif (row["pt_class_a"] == row["pt_class_b"] == "unbroken"
                  and abs(float(row["im_F"])) > TOL_IM_F_UNBROKEN):
                out[i] = f"wrong: Im F={row['im_F']} with both endpoints unbroken"
        return out


class XxzSweep(SweepWorkload):
    """100 gamma points on [0, 0.4], run as four sweeps of 25 consecutive
    points, so that the calibration kernel runs every 2 s or so; the
    program seeds every point from its index within its sweep."""
    name = "xxz-sweep"
    warmup = False
    L, JZ = 10, 1.0
    START, STOP, COUNT, CHUNKS = 0.0, 0.4, 100, 4
    TOL_F = TOL_F_XXZ
    REF_FILE = "xxz_sweep.json"

    @classmethod
    def axes(cls) -> list[tuple[float, float, int]]:
        """(start, stop, count) of every chunk's gamma axis."""
        grid = np.linspace(cls.START, cls.STOP, cls.COUNT)
        size = cls.COUNT // cls.CHUNKS
        return [(float(grid[k]), float(grid[k + size - 1]), size)
                for k in range(0, cls.COUNT, size)]

    def reference(self):
        self.ref = load_reference(self.REF_FILE, self.reference_inputs())["points"]

    @classmethod
    def reference_inputs(cls):
        return {"L": cls.L, "jz": cls.JZ, "start": cls.START, "stop": cls.STOP,
                "count": cls.COUNT, "chunks": cls.CHUNKS, "epsilon": EPSILON}

    @classmethod
    def compute_reference(cls):
        """Dense LAPACK on the benchmark's own sector matrices."""
        states = oracles.xxz_states(cls.L)
        points = []
        for start, stop, count in cls.axes():
            for g in np.linspace(start, stop, count):
                ends = [oracles.dense_ground(
                    oracles.xxz_sector(cls.L, cls.JZ, x, states).toarray())
                    for x in (g, g + EPSILON)]
                points.append({"gamma": float(g), **_ref_point(ends)})
        return {"method": "scipy.linalg.eig(H, left=True) on a dense sector "
                          "matrix assembled by perfbench/oracles.py",
                "points": points}

    def configs(self):
        from ptfidelity.sweep import Axis, SweepConfig
        return [SweepConfig(model="xxz", axes=[Axis("gamma", start, stop, count)],
                            fixed={"jz": self.JZ}, sizes=[self.L],
                            threads=1, seed=0)
                for start, stop, count in self.axes()]


class DenseSweep(SweepWorkload):
    name = "dense-sweep"
    L, JZ = 10, 1.0
    # the EP sits at 0.15801; every shift keeps points on both sides of it
    START, STOP, COUNT, MAX_SHIFT = 0.09, 0.21, 3, 0.05
    TOL_F = TOL_F_DENSE

    def prepare(self):
        states = oracles.xxz_states(self.L)
        self.H0 = oracles.xxz_sector(self.L, self.JZ, 0.0, states).toarray()
        self.V = oracles.xxz_gamma_direction(self.L, states)
        self.h0_path = os.path.join(self.outdir, "dense_h0.npy")
        self.v_path = os.path.join(self.outdir, "dense_v.npy")
        np.save(self.h0_path, self.H0)
        np.save(self.v_path, self.V)
        self.start, self.stop = _shifted(self.seed, self.START, self.STOP, self.MAX_SHIFT)

    def reference(self):
        self.ref = [_ref_point([oracles.dense_ground(self.H0 + x * self.V)
                                for x in (lam, lam + EPSILON)])
                    for lam in np.linspace(self.start, self.stop, self.COUNT)]

    def configs(self):
        from ptfidelity.sweep import Axis, SweepConfig
        return [SweepConfig(model="dense-file",
                            axes=[Axis("lambda", self.start, self.stop, self.COUNT)],
                            options={"h0": self.h0_path, "v": self.v_path},
                            threads=1, seed=0)]


# --------------------------------------------------------------------------

class EpLocate(Workload):
    name = "ep-locate"
    SSH_L, SSH_U, SSH_TOL = 101, 0.2, 1e-9
    XXZ_L, XXZ_JZ, XXZ_BRACKET = 12, 1.0, (0.0, 0.6)
    REF_FILE = "ep_xxz.json"

    def prepare(self):
        rng = _rng(self.seed)
        self.ssh_bracket = (0.5 + 0.1 * float(rng.uniform()),
                            1.0 - 0.1 * float(rng.uniform()))
        crossings = oracles.ssh_crossings(self.SSH_L, 0.0, self.SSH_U, 1.0)
        inside = [c for c in crossings if self.ssh_bracket[0] < c[0] < self.ssh_bracket[1]]
        self.ssh_first = min(c[0] for c in inside)
        self.ssh_crossings = crossings
        self.ssh_out = os.path.join(self.outdir, "ep_ssh.json")
        self.xxz_out = os.path.join(self.outdir, "ep_xxz.json")

    def argv(self):
        lo, hi = self.ssh_bracket
        return [
            ["ep-locate", "--model", "ssh", "--u", repr(self.SSH_U), "--v2", "0.0",
             "--bracket", repr(lo), repr(hi), "-L", str(self.SSH_L),
             "--tol", repr(self.SSH_TOL), "--seed", "0", "--out", self.ssh_out],
            ["ep-locate", "--model", "xxz", "--jz", repr(self.XXZ_JZ),
             "--bracket", repr(self.XXZ_BRACKET[0]), repr(self.XXZ_BRACKET[1]),
             "-L", str(self.XXZ_L), "--seed", "0", "--out", self.xxz_out],
        ]

    def reference(self):
        self.ref = load_reference(self.REF_FILE, self.reference_inputs())
        self.states = oracles.xxz_states(self.XXZ_L)
        self.arpack_class: dict[float, str] = {}   # every round probes the same ends

    def xxz_class(self, gamma: float) -> str:
        if gamma not in self.arpack_class:
            H = oracles.xxz_sector(self.XXZ_L, self.XXZ_JZ, gamma, self.states)
            self.arpack_class[gamma] = oracles.arpack_ground(H)[3]
        return self.arpack_class[gamma]

    @classmethod
    def reference_inputs(cls):
        return {"L": cls.XXZ_L, "jz": cls.XXZ_JZ, "bracket": list(cls.XXZ_BRACKET)}

    @classmethod
    def compute_reference(cls):
        """Bisection on ARPACK ground-state classes to 1e-10."""
        states = oracles.xxz_states(cls.XXZ_L)
        lo, hi = cls.XXZ_BRACKET

        def broken(g):
            H = oracles.xxz_sector(cls.XXZ_L, cls.XXZ_JZ, g, states)
            return oracles.arpack_ground(H)[3] == "broken"

        if broken(lo) == broken(hi):
            raise RuntimeError("reference bracket has no transition")
        b_lo = broken(lo)
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if broken(mid) == b_lo:
                lo = mid
            else:
                hi = mid
        return {"method": "bisection on ARPACK eigs(which='SR', k=6) classes of "
                          "a sector matrix assembled by perfbench/oracles.py",
                "bracket": [lo, hi]}

    def run_round(self):
        from ptfidelity.cli import main
        reports = []
        for argv in self.argv():
            code = main(argv)
            if code != 0:
                reports.append({"exit_code": code})
                continue
            with open(argv[-1], encoding="utf-8") as f:
                reports.append(json.load(f))
        return reports

    def check(self, reports):
        return [self.check_ssh(reports[0]), self.check_xxz(reports[1])]

    def check_ssh(self, r):
        if "exit_code" in r:
            return f"error: exit code {r['exit_code']}"
        lo, hi = r["bracket"]
        if not lo - 1e-12 <= self.ssh_first <= hi + 1e-12:
            return f"wrong: bracket {r['bracket']} misses the crossing at {self.ssh_first!r}"
        want = sorted(m for v, m in self.ssh_crossings if abs(v - self.ssh_first) < 1e-9)
        got = sorted(c["m"] for c in r["crossing_momenta"])
        if got != want or len(got) != 2:
            return f"wrong: crossing momenta {got}, closed form {want}"
        for c in r["crossing_momenta"]:
            if abs(c["re_f_k"] - 0.5) > TOL_HALF:
                return f"wrong: Re f_k={c['re_f_k']} at m={c['m']}"
        if not r["is_second_order"]:
            return "wrong: not reported second order"
        return ""

    def check_xxz(self, r):
        if "exit_code" in r:
            return f"error: exit code {r['exit_code']}"
        lo, hi = r["bracket"]
        ref_lo, ref_hi = self.ref["bracket"]
        if hi < ref_lo or lo > ref_hi:
            return f"wrong: bracket {r['bracket']} misses reference {self.ref['bracket']}"
        if self.xxz_class(lo) == self.xxz_class(hi):
            return f"wrong: ARPACK finds both bracket ends {self.xxz_class(lo)}"
        eps, re_f, _ = min(r["re_f_trace"], key=lambda t: t[0])
        if abs(re_f - 0.5) > TOL_HALF:
            return f"wrong: Re F={re_f} at eps={eps}"
        if not r["is_second_order"]:
            return "wrong: not reported second order"
        return ""


WORKLOADS = {w.name: w for w in (SshSweep, XxzSweep, EpLocate, DenseSweep)}
STORED = {"xxz_sweep.json": XxzSweep, "ep_xxz.json": EpLocate}


def load_reference(filename: str, inputs: dict) -> dict:
    with open(os.path.join(REFS, filename), encoding="utf-8") as f:
        data = json.load(f)
    if data["inputs"] != inputs:
        raise RuntimeError(f"stale reference {filename}: recompute it with "
                           "python3 perfbench/run.py --recompute-references")
    return data


def recompute_references() -> None:
    os.makedirs(REFS, exist_ok=True)
    for filename, cls in STORED.items():
        data = {"inputs": cls.reference_inputs(), **cls.compute_reference()}
        with open(os.path.join(REFS, filename), "w", encoding="utf-8") as f:
            json.dump(data, f, indent=1)
            f.write("\n")
