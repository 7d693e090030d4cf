"""Benchmark of ptfidelity: four workloads, each in a fresh process.

    python3 perfbench/run.py                       # every workload, a table
    python3 perfbench/run.py --workload ssh-sweep --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --recompute-references

Run from the root of a checkout; the program is imported from ``src``.
With ``--workload`` the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``), and a
result file with provenance is written under ``perfbench/out``.

This script uses the standard library only, so its own start-up does not
load numpy; BLAS is pinned to one thread in every child process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SETUP_PROBES = 2          # fresh-process imports before and after the worker
DEADLINE_S = 170          # a run ends well inside 180 s
PROBE = ("import time; t = time.perf_counter(); import ptfidelity, ptfidelity.cli; "
         "print(time.perf_counter() - t)")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run ``argv`` to completion within the deadline; return its stdout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{argv[1]} exceeded the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(argv[:3])} exited with {proc.returncode}")
    return out


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    if not lines:
        raise ChildFailed("child printed nothing")
    return lines[-1]


def source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_workload(spec: dict, name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S

    def probes():
        return [float(last_line(run_child([sys.executable, "-c", PROBE], deadline)))
                for _ in range(SETUP_PROBES)]

    # set-up samples spread over the run, so their median spans its length
    setup = probes()
    report = json.loads(last_line(run_child(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--outdir", OUT], deadline)))
    setup += [report["import_s"]] + probes()

    if trace:
        wanted = spec["per_layer"]
        values = report["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = {"setup_s": median(setup),
                  "wall_rel": report["wall_rel"],
                  "peak_rss_mb": report["peak_rss_mb"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}

    provenance = dict(report["provenance"])
    provenance.update(
        nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
        machine=platform.machine(), git_sha=git_sha(),
        source_sha256=source_digest(), workload_seed=seed, program_seed=0,
        run_seconds=seconds, trace=trace)
    record = {"workload": name, "result": result, "setup_samples_s": setup,
              "round_walls_s": report["round_walls_s"],
              "round_rel": report.get("round_rel"),
              "calibration_s": report["calibration_s"],
              "messages": report["messages"], "provenance": provenance}
    if trace:
        record["trace_file"] = os.path.relpath(report["trace_file"], ROOT)
    path = os.path.join(OUT, f"result-{name}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for msg in report["messages"]:
        print(f"{name}: {msg}", file=sys.stderr)
    return result


def run_all(spec: dict, seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process; prints a table of every metric."""
    ok = True
    print(f"{'workload':<12} {'attempted':>9} {'failed':>6} {'correct':>7}  metrics")
    for w in spec["workloads"]:
        try:
            out = run_child([sys.executable, os.path.abspath(__file__), "--workload",
                             w["name"], "--seed", str(seed), "--seconds", str(seconds),
                             "--trace", str(trace)], time.monotonic() + DEADLINE_S + 10)
        except ChildFailed as err:
            print(f"{w['name']:<12} FAILED: {err}")
            ok = False
            continue
        r = json.loads(last_line(out))
        ok &= r["correct"]
        shown = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items())
        print(f"{w['name']:<12} {r['attempted']:>9} {r['failed']:>6} "
              f"{str(r['correct']):>7}  {shown}", flush=True)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--recompute-references", action="store_true",
                        help="recompute the stored references under perfbench/refs")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "ptfidelity", "__init__.py")):
        print(f"no program to measure: {SRC}/ptfidelity is missing", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    os.makedirs(OUT, exist_ok=True)

    try:
        if args.recompute_references:
            run_child([sys.executable, os.path.join(HERE, "worker.py"),
                       "--recompute-references", "--outdir", OUT],
                      time.monotonic() + 3600)
            return 0
        if args.workload is None:
            return run_all(spec, args.seed, seconds, args.trace)
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
        result = run_workload(spec, args.workload, args.seed, seconds, args.trace)
    except ChildFailed as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
