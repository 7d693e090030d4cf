"""Parameter sweeps: grid evaluation, EP detection, structured output.

A sweep walks the Cartesian product of its axes (last axis is the scan
direction for fidelity records), evaluates every grid point in a work
queue shared by ``threads`` workers, and assembles results in canonical
grid order so output is independent of scheduling.  Per-point failures
(exceptional points are expected inside broken-phase scans) are recorded
in-band in the point's ``error`` field and never abort the sweep.
"""

from __future__ import annotations

import io
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._version import VERSION as _version
from .biortho import biorthogonal_eig, classify_pt
from .errors import ConfigError, PtfidelityError
from .fidelity import (
    DEFAULT_EPSILON,
    FIDELITY_TAGS,
    chi_finite_difference,
    fidelity_variant,
)
from .ssh import SshParams, chi_total, ground_state_pt_class, lower_band_fidelities
from .xxz import XxzParams, build_hamiltonian, build_m0_basis, ground_state

SCHEMA_VERSION = 1
DIVERGENCE_FLOOR = -1.0e4          # per-site flag threshold for EP lines
MODELS = ("ssh", "xxz", "dense-file")
_AXIS_NAMES = {
    "ssh": ("v1", "u", "v2"),
    "xxz": ("gamma", "jz"),
    "dense-file": ("lambda",),
}


@dataclass(frozen=True)
class Axis:
    name: str
    start: float
    stop: float
    count: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass
class SweepConfig:
    """Declarative description of one sweep.

    ``fixed`` holds model parameters that do not vary; ``axes`` are swept
    (the last axis is the fidelity scan direction); ``sizes`` lists system
    sizes (one sweep per size; three or more enable extrapolation).
    """

    model: str
    axes: list[Axis]
    fixed: dict[str, float] = field(default_factory=dict)
    sizes: list[int] = field(default_factory=list)
    epsilon: float = DEFAULT_EPSILON
    definition: str = "metricized"
    seed: int = 0
    threads: int = 1
    tol_real: float | None = None
    divergence_floor: float = DIVERGENCE_FLOOR
    out: str | None = None
    fmt: str = "csv"
    options: dict[str, str] = field(default_factory=dict)
    source_text: str = ""

    def validate(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if not self.axes:
            raise ConfigError("at least one sweep axis is required")
        for ax in self.axes:
            if ax.count < 2:
                raise ConfigError(f"axis {ax.name!r} needs count >= 2, got {ax.count}")
            if ax.name not in _AXIS_NAMES[self.model] and self.model != "dense-file":
                raise ConfigError(
                    f"axis {ax.name!r} not recognized for model {self.model!r}; "
                    f"expected one of {_AXIS_NAMES[self.model]}"
                )
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.definition not in FIDELITY_TAGS:
            raise ConfigError(
                f"unknown definition {self.definition!r}; expected one of {FIDELITY_TAGS}"
            )
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        if self.model == "xxz" and not self.sizes:
            raise ConfigError("xxz sweeps need at least one size (L)")
        if self.model == "ssh" and not self.sizes and "L" not in self.fixed:
            raise ConfigError("ssh sweeps need L (fixed or sizes)")
        if self.model == "dense-file":
            for key in ("h0", "v"):
                if key not in self.options:
                    raise ConfigError(
                        f"dense-file sweeps need option {key!r} "
                        "(path to a .npy matrix) in the [sweep] section"
                    )

    def to_text(self) -> str:
        """Flat key=value echo with section headers; parses back equal."""
        lines = ["[sweep]"]
        lines.append(f"model = {self.model}")
        lines.append(f"definition = {self.definition}")
        lines.append(f"epsilon = {self.epsilon!r}")
        lines.append(f"seed = {self.seed}")
        lines.append(f"threads = {self.threads}")
        lines.append(f"format = {self.fmt}")
        if self.out:
            lines.append(f"out = {self.out}")
        if self.tol_real is not None:
            lines.append(f"tol_real = {self.tol_real!r}")
        lines.append(f"divergence_floor = {self.divergence_floor!r}")
        for k, v in self.options.items():
            lines.append(f"{k} = {v}")
        if self.fixed:
            lines.append("")
            lines.append("[fixed]")
            for k, v in self.fixed.items():
                lines.append(f"{k} = {v!r}")
        for ax in self.axes:
            lines.append("")
            lines.append("[axis]")
            lines.append(f"name = {ax.name}")
            lines.append(f"start = {ax.start!r}")
            lines.append(f"stop = {ax.stop!r}")
            lines.append(f"count = {ax.count}")
        if self.sizes:
            lines.append("")
            lines.append("[sizes]")
            lines.append("L = " + " ".join(str(s) for s in self.sizes))
        return "\n".join(lines) + "\n"


def parse_config(text: str) -> SweepConfig:
    """Parse the flat key=value config format (section headers allowed to
    repeat, so multiple [axis] sections define multiple axes)."""
    section = None
    sweep: dict[str, str] = {}
    fixed: dict[str, float] = {}
    axes_raw: list[dict[str, str]] = []
    sizes: list[int] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section == "axis":
                axes_raw.append({})
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if section == "sweep":
            sweep[key] = value
        elif section == "fixed":
            try:
                fixed[key] = float(value)
            except ValueError as err:
                raise ConfigError(f"fixed parameter {key!r}: {err}") from None
        elif section == "axis":
            axes_raw[-1][key] = value
        elif section == "sizes":
            sizes = [int(tok) for tok in value.split()]
        else:
            raise ConfigError(f"line outside a known section: {line!r}")

    axes = []
    for spec in axes_raw:
        try:
            axes.append(Axis(
                name=spec["name"],
                start=float(spec["start"]),
                stop=float(spec["stop"]),
                count=int(spec["count"]),
            ))
        except KeyError as err:
            raise ConfigError(f"axis section missing {err}") from None

    known = {"model", "definition", "epsilon", "seed", "threads", "tol_real",
             "divergence_floor", "out", "format"}
    options = {k: v for k, v in sweep.items() if k not in known}
    cfg = SweepConfig(
        model=sweep.get("model", ""),
        axes=axes,
        fixed=fixed,
        sizes=sizes,
        epsilon=float(sweep.get("epsilon", DEFAULT_EPSILON)),
        definition=sweep.get("definition", "metricized"),
        seed=int(sweep.get("seed", 0)),
        threads=int(sweep.get("threads", 1)),
        tol_real=float(sweep["tol_real"]) if "tol_real" in sweep else None,
        divergence_floor=float(sweep.get("divergence_floor", DIVERGENCE_FLOOR)),
        out=sweep.get("out"),
        fmt=sweep.get("format", "csv"),
        options=options,
        source_text=text,
    )
    cfg.validate()
    return cfg


@dataclass
class PointResult:
    """One evaluated grid point (fidelity between scan value and value+eps)."""

    index: tuple[int, ...]
    axis_values: dict[str, float]
    L: int
    F: complex = 0j
    chi: complex = 0j
    re_chi_density: float = float("nan")
    pt_class_a: str = ""
    pt_class_b: str = ""
    ep_flag: str = ""
    error: str = ""


@dataclass
class SweepResult:
    config_text: str
    axis_names: list[str]
    points: list[PointResult]
    ep_candidates: list[dict]
    peak_table: list[dict]
    extrapolation: dict | None
    provenance: dict
    schema_version: int = SCHEMA_VERSION


def _point_seed(base: int, linear_index: int) -> int:
    return int(np.random.SeedSequence([base, linear_index]).generate_state(1)[0])


class _SshEvaluator:
    def __init__(self, cfg: SweepConfig, L: int):
        self.cfg = cfg
        self.L = L

    def _params(self, vals: dict[str, float]) -> SshParams:
        merged = {"v2": 0.0, "u": 0.0, **self.cfg.fixed, **vals}
        merged.pop("L", None)
        return SshParams(v1=merged["v1"], v2=merged.get("v2", 0.0),
                         u=merged.get("u", 0.0), w=merged.get("w", 1.0),
                         L=self.L)

    def __call__(self, point: PointResult) -> None:
        cfg = self.cfg
        scan_axis = cfg.axes[-1].name
        pa = self._params(point.axis_values)
        shifted = dict(point.axis_values)
        shifted[scan_axis] = shifted[scan_axis] + cfg.epsilon
        pb = self._params(shifted)

        point.pt_class_a = ground_state_pt_class(pa)
        point.pt_class_b = ground_state_pt_class(pb)
        point.F = complex(np.prod(lower_band_fidelities(pa, pb, cfg.definition)))
        if cfg.definition == "metricized" and scan_axis == "v1":
            point.chi = complex(chi_total(pa).value)
        else:
            point.chi = chi_finite_difference(point.F, cfg.epsilon)
        point.re_chi_density = point.chi.real / self.L


class _XxzEvaluator:
    def __init__(self, cfg: SweepConfig, L: int):
        self.cfg = cfg
        self.L = L
        self.basis = build_m0_basis(L)

    def _params(self, vals: dict[str, float]) -> XxzParams:
        merged = {**self.cfg.fixed, **vals}
        return XxzParams(jz=merged.get("jz", 0.0),
                         gamma=merged.get("gamma", 0.0), L=self.L)

    def __call__(self, point: PointResult) -> None:
        cfg = self.cfg
        scan_axis = cfg.axes[-1].name
        pa = self._params(point.axis_values)
        shifted = dict(point.axis_values)
        shifted[scan_axis] = shifted[scan_axis] + cfg.epsilon
        pb = self._params(shifted)

        base = _point_seed(cfg.seed, _linear_index(point.index))
        ma = build_hamiltonian(pa, self.basis)
        mb = build_hamiltonian(pb, self.basis)
        ga = ground_state(pa, basis=self.basis, matrix=ma, seed=base,
                          tol_real=cfg.tol_real)
        gb = ground_state(pb, basis=self.basis, matrix=mb, seed=base + 1,
                          tol_real=cfg.tol_real)
        F = fidelity_variant(cfg.definition, ga.left, ga.right, gb.left, gb.right)
        point.F = complex(F)
        point.chi = chi_finite_difference(F, cfg.epsilon)
        point.re_chi_density = point.chi.real / self.L
        point.pt_class_a = ga.pt_class
        point.pt_class_b = gb.pt_class


class _DenseFileEvaluator:
    def __init__(self, cfg: SweepConfig, L: int):
        self.cfg = cfg
        self.H0 = np.load(cfg.options["h0"])
        self.V = np.load(cfg.options["v"])
        self.L = self.H0.shape[0]

    def _ground(self, lam: float):
        es = biorthogonal_eig(self.H0 + lam * self.V)
        g = es.ground_index()
        cls = classify_pt(es)
        pt = "broken" if cls.is_broken(g) else "unbroken"
        return es.left_vectors[g], es.right_vectors[:, g], pt

    def __call__(self, point: PointResult) -> None:
        cfg = self.cfg
        lam = point.axis_values[cfg.axes[-1].name]
        la, ra, ca = self._ground(lam)
        lb, rb, cb = self._ground(lam + cfg.epsilon)
        F = fidelity_variant(cfg.definition, la, ra, lb, rb)
        point.F = complex(F)
        point.chi = chi_finite_difference(F, cfg.epsilon)
        point.re_chi_density = point.chi.real / self.L
        point.pt_class_a, point.pt_class_b = ca, cb


def _linear_index(index: tuple[int, ...]) -> int:
    # canonical positional encoding; axis counts stay far below the base
    lin = 0
    for i in index:
        lin = lin * 100000 + i
    return lin


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate a sweep configuration into a structured result.

    Points are computed in parallel over ``cfg.threads`` workers; output
    ordering, seeds, and therefore every emitted value are independent of
    the thread count.
    """
    cfg.validate()
    axis_names = [ax.name for ax in cfg.axes]
    axis_values = [ax.values() for ax in cfg.axes]
    shape = tuple(ax.count for ax in cfg.axes)
    sizes = cfg.sizes or [int(cfg.fixed.get("L", 0))]

    evaluators = {}
    for L in sizes:
        if cfg.model == "ssh":
            evaluators[L] = _SshEvaluator(cfg, L)
        elif cfg.model == "xxz":
            evaluators[L] = _XxzEvaluator(cfg, L)
        else:
            evaluators[L] = _DenseFileEvaluator(cfg, L)

    points: list[PointResult] = []
    point_eval = []
    for L in sizes:
        for index in np.ndindex(shape):
            vals = {name: float(axis_values[d][index[d]])
                    for d, name in enumerate(axis_names)}
            points.append(PointResult(index=tuple(index), axis_values=vals,
                                      L=evaluators[L].L))
            point_eval.append(evaluators[L])

    def work(item):
        i, point, evaluate = item
        try:
            evaluate(point)
        except Exception as err:  # keep the sweep alive; record in-band
            point.error = f"{type(err).__name__}: {err}"
        return i

    items = [(i, p, e) for i, (p, e) in enumerate(zip(points, point_eval))]
    if cfg.threads == 1:
        for item in items:
            work(item)
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            list(pool.map(work, items))

    for point in points:
        flags = []
        if not point.error:
            if point.pt_class_a and point.pt_class_a != point.pt_class_b:
                flags.append("straddle")
            if np.isfinite(point.re_chi_density) and \
                    point.re_chi_density < cfg.divergence_floor:
                flags.append("divergence")
        point.ep_flag = "+".join(flags)

    ep_candidates = [
        {
            "kind": "record",
            "axis_values": dict(p.axis_values), "L": p.L,
            "re_F": p.F.real, "im_F": p.F.imag,
            "pt_class_a": p.pt_class_a, "pt_class_b": p.pt_class_b,
        }
        for p in points if "straddle" in p.ep_flag
    ]
    # consecutive grid points along the scan axis whose classes differ
    # bracket an exceptional point even when no single record straddles
    scan_axis = axis_names[-1]
    by_slice: dict[tuple, list[PointResult]] = {}
    for p in points:
        key = (p.L,) + p.index[:-1]
        by_slice.setdefault(key, []).append(p)
    for group in by_slice.values():
        group.sort(key=lambda p: p.index[-1])
        for a, b in zip(group, group[1:]):
            if a.error or b.error or not a.pt_class_a or not b.pt_class_a:
                continue
            if a.pt_class_a != b.pt_class_a:
                ep_candidates.append({
                    "kind": "interval",
                    "axis": scan_axis,
                    "bracket": [a.axis_values[scan_axis], b.axis_values[scan_axis]],
                    "L": a.L,
                    "pt_class_a": a.pt_class_a, "pt_class_b": b.pt_class_a,
                })

    peak_table: list[dict] = []
    extrapolation = None
    if len(sizes) >= 3 and len(cfg.axes) == 1:
        from .xxz import peak_and_extrapolate
        data = {}
        for L in sizes:
            sub = [p for p in points if p.L == evaluators[L].L]
            x = np.array([p.axis_values[axis_names[0]] for p in sub])
            y = np.array([
                np.nan if (p.error or "straddle" in p.ep_flag) else p.re_chi_density
                for p in sub
            ])
            data[L] = (x, y)
        try:
            ext = peak_and_extrapolate(data)
            peak_table = [
                {"L": L, "position": ext.positions[L], "height": ext.heights[L]}
                for L in ext.sizes
            ]
            extrapolation = {
                "intercept": ext.intercept,
                "fit_degree": ext.fit_degree,
                "fit_residual": ext.fit_residual,
                "coefficients": list(map(float, ext.coefficients)),
                "loglog_slopes": list(map(float, ext.loglog_slopes)),
            }
        except (PtfidelityError, ValueError):
            extrapolation = None

    provenance = {
        "toolkit_version": _version,
        "seed": cfg.seed,
        "epsilon": cfg.epsilon,
        "definition": cfg.definition,
        "tol_real": cfg.tol_real,
        "divergence_floor": cfg.divergence_floor,
        "threads": cfg.threads,
    }
    return SweepResult(
        config_text=cfg.source_text or cfg.to_text(),
        axis_names=axis_names,
        points=points,
        ep_candidates=ep_candidates,
        peak_table=peak_table,
        extrapolation=extrapolation,
        provenance=provenance,
    )


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(result: SweepResult, stream: io.TextIOBase) -> None:
    """Fixed-column CSV; floats carry 17 significant digits."""
    model = "?"
    for line in result.config_text.splitlines():
        if line.strip().startswith("model"):
            model = line.split("=", 1)[1].strip()
            break
    header = (["model", "L"] + list(result.axis_names)
              + ["epsilon", "definition", "re_F", "im_F", "re_chi", "im_chi",
                 "re_chi_density", "pt_class_a", "pt_class_b", "ep_flag", "error"])
    stream.write(",".join(header) + "\n")
    epsilon = result.provenance["epsilon"]
    definition = result.provenance["definition"]
    for p in result.points:
        row = [model, str(p.L)]
        row += [_fmt(p.axis_values[name]) for name in result.axis_names]
        row += [_fmt(epsilon), definition,
                _fmt(p.F.real), _fmt(p.F.imag),
                _fmt(p.chi.real), _fmt(p.chi.imag),
                _fmt(p.re_chi_density),
                p.pt_class_a, p.pt_class_b, p.ep_flag,
                p.error.replace(",", ";")]
        stream.write(",".join(row) + "\n")


def _complex_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def result_to_dict(result: SweepResult) -> dict:
    return {
        "schema_version": result.schema_version,
        "config_text": result.config_text,
        "axis_names": list(result.axis_names),
        "provenance": dict(result.provenance),
        "points": [
            {
                "index": list(p.index),
                "axis_values": dict(p.axis_values),
                "L": p.L,
                "F": _complex_dict(p.F),
                "chi": _complex_dict(p.chi),
                "re_chi_density": (p.re_chi_density
                                   if np.isfinite(p.re_chi_density) else None),
                "pt_class_a": p.pt_class_a,
                "pt_class_b": p.pt_class_b,
                "ep_flag": p.ep_flag,
                "error": p.error,
            }
            for p in result.points
        ],
        "ep_candidates": result.ep_candidates,
        "peak_table": result.peak_table,
        "extrapolation": result.extrapolation,
    }


def result_from_dict(data: dict) -> SweepResult:
    points = [
        PointResult(
            index=tuple(d["index"]),
            axis_values={k: float(v) for k, v in d["axis_values"].items()},
            L=int(d["L"]),
            F=complex(d["F"]["re"], d["F"]["im"]),
            chi=complex(d["chi"]["re"], d["chi"]["im"]),
            re_chi_density=(float("nan") if d["re_chi_density"] is None
                            else d["re_chi_density"]),
            pt_class_a=d["pt_class_a"],
            pt_class_b=d["pt_class_b"],
            ep_flag=d["ep_flag"],
            error=d["error"],
        )
        for d in data["points"]
    ]
    return SweepResult(
        config_text=data["config_text"],
        axis_names=list(data["axis_names"]),
        points=points,
        ep_candidates=data["ep_candidates"],
        peak_table=data["peak_table"],
        extrapolation=data["extrapolation"],
        provenance=data["provenance"],
        schema_version=data["schema_version"],
    )


def write_json(result: SweepResult, stream: io.TextIOBase) -> None:
    json.dump(result_to_dict(result), stream, indent=1, allow_nan=True)
    stream.write("\n")


def read_json(stream) -> SweepResult:
    return result_from_dict(json.load(stream))


def emit(result: SweepResult, fmt: str, path: str) -> None:
    """Write a sweep result to ``path`` as CSV or JSON."""
    with open(path, "w", encoding="utf-8") as f:
        if fmt == "csv":
            write_csv(result, f)
        elif fmt == "json":
            write_json(result, f)
        else:
            raise ConfigError(f"unknown output format {fmt!r}")
