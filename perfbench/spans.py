"""Span tracing from outside the program.

``install`` replaces the public functions listed in ``TRACED`` with
wrappers that record one span per call: name, parent span, start and end
(``perf_counter_ns``).  Every module of the package that holds a
reference to a traced function gets the wrapper, so calls between
modules are seen too.  Spans stay in memory until ``write`` dumps them.
Self time is a span's duration minus the time covered by its direct
children (the program runs single-threaded here, so children nest).
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from statistics import median
from time import perf_counter_ns

# (module, attribute, span name); "Class.method" patches the class
TRACED = [
    ("ssh", "single_particle_states", "ssh.single_particle_states"),
    ("ssh", "many_body_fidelity", "ssh.many_body_fidelity"),
    ("ssh", "chi_total", "ssh.chi_total"),
    ("ssh", "band_discriminant", "ssh.band_discriminant"),
    ("fidelity", "fidelity_variant", "fidelity.fidelity_variant"),
    ("fidelity", "bisect_ep", "fidelity.bisect_ep"),
    ("fidelity", "one_half_ep_test", "fidelity.one_half_ep_test"),
    ("xxz", "build_m0_basis", "xxz.build_m0_basis"),
    ("xxz", "build_hamiltonian", "xxz.build_hamiltonian"),
    ("xxz", "ground_state", "xxz.ground_state"),
    ("xxz", "is_broken_at", "xxz.is_broken_at"),
    ("lanczos", "complex_symmetric_lanczos", "lanczos"),
    ("biortho", "SparseComplexSymmetricMatrix.apply", "biortho.apply"),
    ("biortho", "biorthogonal_eig", "biortho.biorthogonal_eig"),
    ("biortho", "classify_pt", "biortho.classify_pt"),
    ("sweep", "run_sweep", "sweep.run_sweep"),
    ("sweep", "emit", "sweep.emit"),
    ("cli", "cmd_ep_locate", "cli.ep_locate"),
]

SLOW_SOLVE_FACTOR = 3      # a solve is slow above 3x the median matvec count
TAIL_MIN_BEYOND = 10       # the tail percentile keeps 10 samples beyond it
TAIL_MIN_SAMPLES = 40


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, parent, start_ns, end_ns]
        self.stack: list[int] = []
        self.iterations: dict[int, int] = {}       # lanczos span -> reported
        self.alloc_peak: dict[int, int] = {}       # lanczos span -> bytes
        self.probes = 0
        self.output_bytes = 0

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, 0, 0])
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, start: int) -> None:
        end = perf_counter_ns()
        self.stack.pop()
        self.spans[sid][2] = start
        self.spans[sid][3] = end

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self._open(name)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, start)
        return traced

    def wrap_lanczos(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self._open(name)
            tracemalloc.start()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                self.iterations[sid] = int(result.iterations)
                return result
            finally:
                self._close(sid, start)
                self.alloc_peak[sid] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        return traced

    def wrap_bisect(self, name: str, fn):
        inner = self.wrap(name, fn)

        def traced(is_broken, *args, **kwargs):
            def probe(x):
                self.probes += 1
                return is_broken(x)
            return inner(probe, *args, **kwargs)
        return traced

    def wrap_emit(self, name: str, fn):
        inner = self.wrap(name, fn)

        def traced(result, fmt, path):
            inner(result, fmt, path)
            self.output_bytes += os.path.getsize(path)
        return traced

    def install(self):
        """Patch the traced functions everywhere; returns an undo callable."""
        import ptfidelity  # noqa: F401  (loads every submodule)

        special = {"lanczos": self.wrap_lanczos,
                   "fidelity.bisect_ep": self.wrap_bisect,
                   "sweep.emit": self.wrap_emit}
        modules = [m for key, m in sys.modules.items()
                   if key == "ptfidelity" or key.startswith("ptfidelity.")]
        undo = []
        for mod_name, attr, span in TRACED:
            mod = sys.modules["ptfidelity." + mod_name]
            wrap = special.get(span, self.wrap)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, wrap(span, orig))
                undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = wrap(span, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        undo.append((m, key, orig))

        def restore():
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)
        return restore

    def write(self, path: str) -> None:
        """One line per span: id, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,parent,name,start_ns,end_ns\n")
            for sid, (name, parent, start, end) in enumerate(self.spans):
                f.write(f"{sid},{parent},{name},{start},{end}\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of everything recorded: calls, seconds and
        self seconds of every traced name, plus the counts below.  A name
        that never ran reads 0; BENCHMARK.json picks what is reported."""
        dur = [end - start for _, _, start, end in self.spans]
        child = [0] * len(self.spans)
        matvecs: dict[int, int] = {}
        for sid, (name, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[sid]
            if name == "biortho.apply":
                owner = parent
                while owner >= 0 and self.spans[owner][0] != "lanczos":
                    owner = self.spans[owner][1]
                if owner >= 0:
                    matvecs[owner] = matvecs.get(owner, 0) + 1

        calls: dict[str, int] = {}
        total: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        per_call: dict[str, list[int]] = {}
        for sid, (name, _, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + dur[sid]
            self_ns[name] = self_ns.get(name, 0) + dur[sid] - child[sid]
            per_call.setdefault(name, []).append(dur[sid])

        out = {}
        for _, _, name in TRACED:
            out[name + ".calls"] = calls.get(name, 0)
            out[name + ".s"] = total.get(name, 0) / 1e9
            out[name + ".self_s"] = self_ns.get(name, 0) / 1e9

        gs = sorted(per_call.get("xxz.ground_state", []))
        out["xxz.ground_state.p50_ms"] = median(gs) / 1e6 if gs else 0.0
        out["xxz.ground_state.tail_ms"] = (
            gs[-TAIL_MIN_BEYOND - 1] / 1e6 if len(gs) >= TAIL_MIN_SAMPLES else 0.0)

        solves = [sid for sid, sp in enumerate(self.spans) if sp[0] == "lanczos"]
        counts = [matvecs.get(sid, 0) for sid in solves]
        out["lanczos.solves"] = len(solves)
        out["lanczos.matvecs"] = sum(counts)
        out["lanczos.reported_iterations"] = sum(self.iterations.values())
        out["lanczos.peak_alloc_mb"] = max(self.alloc_peak.values(), default=0) / 2**20
        if counts:
            limit = SLOW_SOLVE_FACTOR * median(counts)
            slow = [c for c in counts if c > limit]
            out["lanczos.slow_solves"] = len(slow)
            out["lanczos.matvec_yield"] = (
                1.0 - sum(slow) / sum(counts) if sum(counts) else 1.0)
        else:
            out["lanczos.slow_solves"] = 0
            out["lanczos.matvec_yield"] = 1.0
        out["fidelity.bisect_ep.probes"] = self.probes
        out["sweep.output_bytes"] = self.output_bytes
        return out
