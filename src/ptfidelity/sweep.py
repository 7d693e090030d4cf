"""Parameter sweeps: grid evaluation, EP detection, structured output.

A sweep walks the Cartesian product of its axes (last axis is the scan
direction for fidelity records).  A scan line is every point with the same
size and the same index on every axis but the last; it is the unit of
sweep work.  ``threads`` workers share a queue of lines, the model's line
function (``_ssh_line``, ``_xxz_line`` or ``_dense_line``) evaluates each
whole line, and results are assembled in canonical grid order.  An XXZ
line is walked by ``xxz._scan_line``, the one walk of every XXZ scan line
and of ``fidelity_scan``: each point starts from the previous point's ground
state and is seeded from the seed and its own grid index, never from the
thread count or schedule.  An SSH line is evaluated stacked, every point
and momentum at once, in blocks of at most ``LINE_BLOCK_CELLS`` cells; its
values equal those of the one-point functions of ``ssh``.  Per-point
failures (exceptional points are expected inside broken-phase scans) are
recorded in-band in the point's ``error`` field and never abort the sweep.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from math import comb, isfinite

import numpy as np
import scipy

from ._version import VERSION as _version
from .biortho import classify_pt, dense_ground_pair
from .errors import ConfigError, PtfidelityError, error_text
from .fidelity import (
    DEFAULT_EPSILON,
    FIDELITY_TAGS,
    chi_finite_difference,
    fidelity_variant,
)
from .ssh import SshParams, _Bands, _many_body, _row_errors
from .xxz import (
    LANCZOS_BASIS_CAP,
    XxzParams,
    _peak_value,
    _scan_line,
    peak_and_extrapolate,
)

SCHEMA_VERSION = 1
DIVERGENCE_FLOOR = -1.0e4          # per-site flag threshold for EP lines
LINE_BLOCK_CELLS = 2**16           # point x momentum cells per stacked SSH block
MODELS = ("ssh", "xxz", "dense-file")
_AXIS_NAMES = {
    "ssh": ("v1", "u", "v2"),
    "xxz": ("jz", "gamma"),
    "dense-file": ("lambda",),
}
# [sweep] keys a model never reads: a config file that sets one is refused,
# and ``to_text`` leaves them out.  ``ssh`` configs may still set ``seed``,
# which changes nothing there (existing ssh configs carry it).
_UNUSED_KEYS = {"ssh": ("tol_real",), "dense-file": ("seed",)}


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
            if not (isfinite(ax.start) and isfinite(ax.stop)):
                raise ConfigError(f"axis {ax.name!r} needs a finite start and stop")
        if not (isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        read = {"ssh": ("v1", "u", "v2", "w", "L"), "xxz": ("jz", "gamma"),
                "dense-file": ("L",)}[self.model]
        for name, value in self.fixed.items():
            if name not in read:        # it would change nothing
                raise ConfigError(f"{self.model} sweeps do not read [fixed] "
                                  f"{name!r}; expected one of {read}")
            if not isfinite(value):
                raise ConfigError(f"[fixed] {name} must be finite, got {value!r}")
        if self.tol_real is not None and not self.tol_real >= 0:    # NaN too
            raise ConfigError(f"tol_real must be nonnegative, got {self.tol_real!r}")
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
        for L in self.sizes if self.model == "xxz" else ():
            if L % 2 or L < 4 or comb(L, L // 2) > LANCZOS_BASIS_CAP:
                raise ConfigError(
                    f"xxz size L={L} must be even and at least 4, with an M=0 "
                    f"sector of at most {LANCZOS_BASIS_CAP} states")
        if self.model == "ssh" and not self.sizes and "L" not in self.fixed:
            raise ConfigError("ssh sweeps need L (fixed or sizes)")
        if self.model == "ssh" and "v1" not in self.fixed and \
                all(ax.name != "v1" for ax in self.axes):
            raise ConfigError("ssh sweeps need v1 (fixed or an axis)")
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
        unused = _UNUSED_KEYS.get(self.model, ())
        if "seed" not in unused:
            lines.append(f"seed = {self.seed}")
        lines.append(f"threads = {self.threads}")
        lines.append(f"format = {self.fmt}")
        if self.out:
            lines.append(f"out = {self.out}")
        if self.tol_real is not None and "tol_real" not in unused:
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


def _convert(kind, key: str, value: str):
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{key} = {value!r} is not a valid {kind.__name__}") from None


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
            fixed[key] = _convert(float, key, value)
        elif section == "axis":
            axes_raw[-1][key] = value
        elif section == "sizes":
            sizes = [_convert(int, key, tok) for tok in value.split()]
        else:
            raise ConfigError(f"line outside a known section: {line!r}")

    axes = []
    for spec in axes_raw:
        try:
            axes.append(Axis(
                name=spec["name"],
                start=_convert(float, "start", spec["start"]),
                stop=_convert(float, "stop", spec["stop"]),
                count=_convert(int, "count", spec["count"]),
            ))
        except KeyError as err:
            raise ConfigError(f"axis section missing {err}") from None

    model = sweep.get("model", "")
    for key in _UNUSED_KEYS.get(model, ()):
        if key in sweep:
            raise ConfigError(f"{model} sweeps do not use {key!r}; remove it")
    # numeric [sweep] keys share their SweepConfig field names and defaults
    typed = {"epsilon": float, "seed": int, "threads": int, "tol_real": float,
             "divergence_floor": float}
    known = {"model", "definition", "out", "format", *typed}
    options = {k: v for k, v in sweep.items() if k not in known}
    cfg = SweepConfig(
        model=model,
        axes=axes,
        fixed=fixed,
        sizes=sizes,
        definition=sweep.get("definition", "metricized"),
        out=sweep.get("out"),
        fmt=sweep.get("format", "csv"),
        options=options,
        source_text=text,
        **{k: _convert(kind, k, sweep[k]) for k, kind in typed.items() if k in sweep},
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
    matvecs: int = 0        # Lanczos operator applications at both endpoints


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
    model: str = ""


def _shifted(cfg: SweepConfig, point: PointResult) -> dict[str, float]:
    """The point's axis values, shifted by ``epsilon`` along the scan axis."""
    shifted = dict(point.axis_values)
    shifted[cfg.axes[-1].name] += cfg.epsilon
    return shifted


def _record(cfg: SweepConfig, point: PointResult, F, chi=None) -> None:
    """Store the fidelity and the susceptibility (finite-difference
    unless ``chi`` is given) of an evaluated point."""
    point.F = complex(F)
    point.chi = (chi_finite_difference(point.F, cfg.epsilon)
                 if chi is None else complex(chi))
    point.re_chi_density = point.chi.real / point.L


def _ssh_line(cfg: SweepConfig, line: list[PointResult]) -> None:
    """A whole scan line as stacked evaluations over (points x momenta):
    one ``_Bands`` at the points and one at their shifted endpoints, in
    blocks of at most ``LINE_BLOCK_CELLS`` cells.  Per point it gives what
    the one-point functions give: parameters that ``SshParams`` refuses and
    exceptional momenta fail only that point, the classes are set before
    the exceptional-momentum check, and a metricized v1 scan takes its
    susceptibility from ``chi_total``'s closed form on the same stack."""
    L = line[0].L

    def params(vals: dict[str, float]) -> SshParams:
        merged = {**cfg.fixed, **vals}
        return SshParams(v1=merged["v1"], v2=merged.get("v2", 0.0),
                         u=merged.get("u", 0.0), w=merged.get("w", 1.0), L=L)

    rows = []
    for point in line:
        try:
            rows.append((point, params(point.axis_values),
                         params(_shifted(cfg, point))))
        except Exception as err:  # e.g. a negative u: this point only
            point.error = error_text(err)
    size = max(1, LINE_BLOCK_CELLS // max(L, 1))    # L < 2 leaves no rows
    for i in range(0, len(rows), size):
        points, params_a, params_b = zip(*rows[i:i + size])
        ba, bb = _Bands(list(params_a)), _Bands(list(params_b))
        for point, ca, cb in zip(points, ba.pt_class(), bb.pt_class()):
            point.pt_class_a, point.pt_class_b = ca, cb
        for point, err in zip(points, _row_errors(ba, bb)):
            point.error = "" if err is None else error_text(err)
        regular = [j for j, point in enumerate(points) if not point.error]
        if not regular:
            continue
        if len(regular) < len(points):
            ba, bb = (_Bands([params[j] for j in regular])
                      for params in (params_a, params_b))
        F = _many_body(ba, bb, cfg.definition).value
        chi = [None] * len(regular)
        if cfg.definition == "metricized" and cfg.axes[-1].name == "v1":
            chi = ba.chi().sum(axis=-1)
        for k, j in enumerate(regular):
            _record(cfg, points[j], F[k], chi[k])


def _xxz_line(cfg: SweepConfig, line: list[PointResult]) -> None:
    """A whole scan line through ``xxz._scan_line``; an error row has no class."""
    scan = cfg.axes[-1].name

    def params(lam: float) -> XxzParams:
        v = {"jz": 0.0, "gamma": 0.0, **cfg.fixed, **line[0].axis_values, scan: lam}
        return XxzParams(jz=v["jz"], gamma=v["gamma"], L=line[0].L)

    first = np.ravel_multi_index(line[0].index, [ax.count for ax in cfg.axes])
    pairs = _scan_line(params, [p.axis_values[scan] for p in line], cfg.epsilon,
                       cfg.seed, first, cfg.definition, tol_real=cfg.tol_real)
    for point, pair in zip(line, pairs):
        if isinstance(pair, Exception):
            point.error = error_text(pair)
            continue
        ga, gb, F = pair
        point.pt_class_a, point.pt_class_b = ga.pt_class, gb.pt_class
        point.matvecs = ga.matvecs + gb.matvecs
        _record(cfg, point, F)


def _dense_line(cfg: SweepConfig, H0: np.ndarray, V: np.ndarray,
                line: list[PointResult]) -> None:
    """Ground states of ``H0 + lambda V`` for matrices loaded from ``.npy``.

    Each endpoint takes its ground pair from ``dense_ground_pair``, so only
    that pair must be non-defective (a Jordan block elsewhere in the
    spectrum is fine), and its PT class from ``classify_pt`` on the whole
    spectrum, which also checks the input's conjugate pairing.  An endpoint
    matrix that is exactly PT symmetric under basis reversal and
    conjugation (centrohermitian) is solved in real arithmetic.  A point
    gets its two classes only once both endpoints are solved.
    """
    scan = cfg.axes[-1].name

    def ground(lam: float):
        w, g, right, left, _ = dense_ground_pair(H0 + lam * V)
        pt = "broken" if classify_pt(w, cfg.tol_real).is_broken(g) else "unbroken"
        return left, right, pt

    for point in line:
        try:
            la, ra, ca = ground(point.axis_values[scan])
            lb, rb, cb = ground(_shifted(cfg, point)[scan])
            point.pt_class_a, point.pt_class_b = ca, cb
            _record(cfg, point, fidelity_variant(cfg.definition, la, ra, lb, rb))
        except Exception as err:  # keep the sweep alive; record in-band
            point.error = error_text(err)


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate a sweep configuration into a structured result.

    Scan lines are computed in parallel over ``cfg.threads`` workers, at
    most one per line and serially without a second, each line by its
    model's line function (``_ssh_line``, ``_xxz_line`` or ``_dense_line``).
    Output ordering, seeds, and therefore every emitted value are
    independent of the thread count.
    """
    began = time.perf_counter()
    cfg.validate()
    axis_names = [ax.name for ax in cfg.axes]
    axis_values = [ax.values() for ax in cfg.axes]
    shape = tuple(ax.count for ax in cfg.axes)
    sizes = cfg.sizes or [int(cfg.fixed.get("L", 0))]

    walk = partial(_ssh_line if cfg.model == "ssh" else _xxz_line, cfg)
    dims = {L: L for L in sizes}        # the L of each size's points
    if cfg.model == "dense-file":       # a size only labels the matrix's points
        H0, V = np.load(cfg.options["h0"]), np.load(cfg.options["v"])
        dims = dict.fromkeys(sizes, H0.shape[0])
        walk = partial(_dense_line, cfg, H0, V)

    # np.ndindex runs the last axis fastest, so a scan line is a run of
    # consecutive points
    lines: list[list[PointResult]] = []
    for L in sizes:
        for index in np.ndindex(shape):
            vals = {name: float(axis_values[d][index[d]])
                    for d, name in enumerate(axis_names)}
            if index[-1] == 0:
                lines.append([])
            lines[-1].append(PointResult(index=tuple(index), axis_values=vals,
                                         L=dims[L]))
    points = [point for line in lines for point in line]

    workers = min(cfg.threads, len(lines))
    if workers <= 1:
        for line in lines:
            walk(line)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(walk, lines))

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
    for line in lines:
        for a, b in zip(line, line[1:]):
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
        data = {}
        for L in sizes:
            sub = [p for p in points if p.L == dims[L]]
            x = np.array([p.axis_values[axis_names[0]] for p in sub])
            y = np.array([_peak_value(p.re_chi_density, p.F, p.error,
                                      "straddle" in p.ep_flag) for p in sub])
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

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    provenance = {
        "toolkit_version": _version,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_count": os.cpu_count(),
        "seed": cfg.seed,
        "epsilon": cfg.epsilon,
        "definition": cfg.definition,
        "tol_real": cfg.tol_real,
        "divergence_floor": cfg.divergence_floor,
        "threads": cfg.threads,
        "wall_s": time.perf_counter() - began,
    }
    return SweepResult(
        config_text=cfg.source_text or cfg.to_text(),
        axis_names=axis_names,
        points=points,
        ep_candidates=ep_candidates,
        peak_table=peak_table,
        extrapolation=extrapolation,
        provenance=provenance,
        model=cfg.model,
    )


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(result: SweepResult, stream: io.TextIOBase) -> None:
    """Fixed-column CSV; floats carry 17 significant digits, and fields that
    hold a comma or a quote are quoted."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["model", "L"] + list(result.axis_names)
                    + ["epsilon", "definition", "re_F", "im_F", "re_chi",
                       "im_chi", "re_chi_density", "pt_class_a", "pt_class_b",
                       "ep_flag", "error"])
    epsilon = result.provenance["epsilon"]
    definition = result.provenance["definition"]
    for p in result.points:
        row = [result.model, str(p.L)]
        row += [_fmt(p.axis_values[name]) for name in result.axis_names]
        row += [_fmt(epsilon), definition,
                _fmt(p.F.real), _fmt(p.F.imag),
                _fmt(p.chi.real), _fmt(p.chi.imag),
                _fmt(p.re_chi_density),
                p.pt_class_a, p.pt_class_b, p.ep_flag, p.error]
        writer.writerow(row)


def _complex_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def result_to_dict(result: SweepResult) -> dict:
    return {
        "schema_version": result.schema_version,
        "model": result.model,
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
                "matvecs": p.matvecs,
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
            matvecs=int(d.get("matvecs", 0)),
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
        model=data.get("model", ""),
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
