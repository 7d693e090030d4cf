"""Self-test of the benchmark's checks: wrong outputs must be rejected.

    python3 perfbench/selftest.py

For each workload it takes one correct output, confirms the check passes
it, then feeds deliberately wrong copies and confirms every one is
rejected: F shifted by 1e-6 and a flipped PT class at every sweep point,
chi off by 1e-6 relative at every SSH point, and each ep-locate bracket
moved by 10x its width either way.  The correct output is one program
round.
"""

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[key] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402

OUT = os.path.join(HERE, "out")
FLIP = {"broken": "unbroken", "unbroken": "broken"}


def sweep_mutations(rows, with_chi: bool):
    for i in range(len(rows)):
        bad = copy.deepcopy(rows)
        bad[i]["re_F"] = repr(float(bad[i]["re_F"]) + 1e-6)
        yield f"F+1e-6 at point {i}", i, bad
        bad = copy.deepcopy(rows)
        bad[i]["pt_class_a"] = FLIP[bad[i]["pt_class_a"]]
        yield f"flipped PT class at point {i}", i, bad
        if with_chi:
            bad = copy.deepcopy(rows)
            bad[i]["re_chi"] = repr(float(bad[i]["re_chi"]) * (1 + 1e-6))
            yield f"chi*(1+1e-6) at point {i}", i, bad


def ep_mutations(reports):
    for op, label in ((0, "ssh"), (1, "xxz")):
        lo, hi = reports[op]["bracket"]
        for sign in (+1, -1):
            bad = copy.deepcopy(reports)
            shift = sign * 10 * (hi - lo)
            bad[op]["bracket"] = [lo + shift, hi + shift]
            bad[op]["lambda_ep"] = 0.5 * (lo + hi) + shift
            yield f"{label} lambda_EP moved by {sign * 10}x the bracket", op, bad


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    rejected = failures = 0
    for name, cls in WORKLOADS.items():
        workload = cls(0, OUT)
        workload.prepare()
        good = workload.run_round()
        workload.reference()
        verdicts = workload.check(good)
        if any(verdicts):
            print(f"{name}: correct output rejected: {[v for v in verdicts if v][:3]}")
            failures += 1
            continue
        if name == "ep-locate":
            cases = ep_mutations(good)
        else:
            cases = sweep_mutations(good, with_chi=(name == "ssh-sweep"))
        n = 0
        for label, op, bad in cases:
            n += 1
            if workload.check(bad)[op].startswith("wrong"):
                rejected += 1
            else:
                print(f"{name}: NOT rejected: {label}")
                failures += 1
        print(f"{name}: correct output passes; {n} wrong outputs tried", flush=True)
    print(f"self-test: {rejected} wrong outputs rejected, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
