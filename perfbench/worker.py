"""One workload in one fresh process; started by ``run.py``.

Imports ptfidelity first and times it (a set-up sample), makes the
inputs, runs whole rounds until ``--seconds`` have passed, each timed
between runs of the calibration kernel (``calib.py``), reading the peak
resident set after the first, then checks every round's outputs against
the independent reference.  With ``--trace 1`` it runs untraced rounds
for half the time, then one traced round, and reports per-layer figures
of that round.  Prints one JSON object as its last line.
"""

import time

_t0 = time.perf_counter()
import ptfidelity  # noqa: E402
import ptfidelity.cli  # noqa: E402,F401
IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from statistics import median  # noqa: E402

from calib import calibrate  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, recompute_references  # noqa: E402

MAX_MESSAGES = 5


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_rounds(workload, seconds: float):
    """Whole rounds until ``seconds`` have passed.  Every chunk of a round
    is timed between two calibration points, and a round's ``rel`` is the
    sum over its chunks of chunk wall time over the mean of the two.  A
    workload with short rounds first runs one warm-up round, which is
    checked but not timed; then at least one timed round runs.  Also
    returns the peak resident set after the first round: later rounds add
    allocator fragmentation that depends on how many rounds fit."""
    outputs = []
    start = time.perf_counter()
    if workload.warmup:
        outputs.append(workload.run_round())
    rss = peak_rss_mb()
    walls, rel, cals = [], [], [calibrate()]
    while not walls or time.perf_counter() - start < seconds:
        parts, wall, cost = [], 0.0, 0.0
        for chunk in workload.chunks():
            t = time.perf_counter()
            parts.append(chunk())
            dt = time.perf_counter() - t
            cals.append(calibrate())
            wall += dt
            cost += dt / (0.5 * (cals[-2] + cals[-1]))
        outputs.append(workload.join(parts))
        walls.append(wall)
        rel.append(cost)
        if len(outputs) == 1:
            rss = peak_rss_mb()
    return walls, cals, rel, outputs, rss


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--recompute-references", action="store_true")
    args = parser.parse_args()
    if args.recompute_references:
        recompute_references()
        return 0

    workload = WORKLOADS[args.workload](args.seed, args.outdir)
    workload.prepare()
    report = {"import_s": IMPORT_S}
    if args.trace:
        walls, cals, rel, outputs, _ = run_rounds(workload, args.seconds / 2)
        tracer = Tracer()
        restore = tracer.install()
        t = time.perf_counter()
        try:
            outputs.append(workload.run_round())
        finally:
            traced_wall = time.perf_counter() - t
            restore()
        cals.append(calibrate())
        layers = tracer.metrics()
        layers["trace.wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = median(walls)
        # both sides calibrated, so the machine's speed drops out
        traced_rel = traced_wall / (0.5 * (cals[-2] + cals[-1]))
        layers["trace.overhead"] = traced_rel / median(rel) - 1.0
        report["per_layer"] = layers
        trace_file = os.path.join(
            args.outdir, f"trace-{args.workload}-seed{args.seed}.csv")
        tracer.write(trace_file)
        report["trace_file"] = trace_file
    else:
        walls, cals, rel, outputs, report["peak_rss_mb"] = run_rounds(
            workload, args.seconds)
        report["wall_rel"] = median(rel)
        report["round_rel"] = rel
    report["round_walls_s"] = walls
    report["calibration_s"] = cals

    workload.reference()
    attempted = failed = 0
    wrong = False
    messages = []
    for output in outputs:
        verdicts = workload.check(output)
        attempted += len(verdicts)
        for i, v in enumerate(verdicts):
            if v:
                failed += 1
                wrong |= v.startswith("wrong")
                if len(messages) < MAX_MESSAGES:
                    messages.append(f"op {i}: {v}")
    report.update(attempted=attempted, failed=failed, correct=not wrong,
                  messages=messages, provenance=provenance())
    print(json.dumps(report))
    return 0


def provenance() -> dict:
    import numpy
    import platform
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ptfidelity": ptfidelity.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
    }


if __name__ == "__main__":
    raise SystemExit(main())
