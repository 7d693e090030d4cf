"""Command-line driver: sweeps, band tables, spectra and EP location.

Exit codes: 0 on success, 2 for configuration errors (including
invalid parameter values such as a negative ``--u`` or ``--gamma``), 3 for
runtime failures (partial output is written when available).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from ._version import VERSION
from .errors import ConfigError, OddLError, PtfidelityError, error_text
from .fidelity import FIDELITY_TAGS, _check_one_half_options, bisect_ep, one_half_ep_test
from .ssh import (
    SshParams,
    _Bands,
    _many_body,
    band_point,
    chi_k_metricized,
    complex_berry_phase,
    open_boundary_spectrum,
)
from .sweep import (
    _AXIS_NAMES,
    Axis,
    SweepConfig,
    _convert,
    _fmt,
    emit,
    parse_config,
    run_sweep,
)
from .xxz import XxzParams, _check_tol_real, _with, full_sector_spectrum, ground_state


def _add_common(parser: argparse.ArgumentParser) -> None:
    """Sweep options; every subcommand declares ``--out`` itself."""
    parser.add_argument("--epsilon", type=float, default=1e-3,
                        help="fidelity step (default 1e-3)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for grid evaluation")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="fmt", help="output format")
    parser.add_argument("--definition", choices=FIDELITY_TAGS,
                        default="metricized", help="fidelity definition")


def _add_solver(parser: argparse.ArgumentParser, seed_help: str) -> None:
    """Options of the XXZ ground-state solves."""
    parser.add_argument("--seed", type=int, default=0, help=seed_help)
    parser.add_argument("--tol-real", type=float, default=None,
                        help="imaginary-part threshold for PT classification")


def _axis_arg(values, name) -> Axis | float:
    key = f"--{name}"
    if len(values) == 1:
        return _convert(float, key, values[0])
    if len(values) == 3:
        return Axis(name=name, start=_convert(float, key, values[0]),
                    stop=_convert(float, key, values[1]),
                    count=_convert(int, f"{key} count", values[2]))
    raise ConfigError(f"{key} takes one value or start stop count, got {values}")


def _params(fn, *args, **values):
    """``fn(*args, **values)``, with an invalid value reported as a config error."""
    try:
        return fn(*args, **values)
    except (ValueError, OddLError) as err:
        raise ConfigError(str(err)) from None


def _build_sweep_config(args) -> SweepConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            return parse_config(f.read())
    axes: list[Axis] = []
    fixed: dict[str, float] = {}
    model = args.model
    for name in _AXIS_NAMES[model]:
        raw = getattr(args, name)
        if raw is None:
            continue
        parsed = _axis_arg(raw, name)
        if isinstance(parsed, Axis):
            axes.append(parsed)
        else:
            fixed[name] = parsed
    sizes = list(args.L)
    if model == "ssh" and len(sizes) == 1:
        fixed["L"] = sizes[0]
        sizes = []
    solver = {k: getattr(args, k) for k in ("seed", "tol_real") if hasattr(args, k)}
    return SweepConfig(
        model=model, axes=axes, fixed=fixed, sizes=sizes,
        epsilon=args.epsilon, definition=args.definition,
        threads=args.threads, out=args.out, fmt=args.fmt, **solver,
    )


def _write(path, text: str) -> None:
    """Write ``text`` to ``path``, or to standard output without one."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _write_rows(path, header, rows) -> None:
    _write(path, "".join(",".join(row) + "\n" for row in [header, *rows]))


def _write_json(path, report: dict) -> None:
    _write(path, json.dumps(report, indent=1) + "\n")


def cmd_scan(args) -> int:
    cfg = _build_sweep_config(args)
    emit(run_sweep(cfg), cfg.fmt, cfg.out or args.out or f"{args.model}_scan.{cfg.fmt}")
    return 0


def cmd_ssh_bands(args) -> int:
    p = _params(SshParams, v1=args.v1, v2=args.v2, u=args.u, L=args.L)
    rows = []
    for m, k in enumerate(p.momenta()):
        bp = band_point(k, p)
        chi = "nan" if bp.branch == "ep" else _fmt(chi_k_metricized(k, p))
        rows.append([str(m), _fmt(k), _fmt(bp.delta),
                     _fmt(bp.energy_plus.real), _fmt(bp.energy_plus.imag),
                     _fmt(bp.energy_minus.real), _fmt(bp.energy_minus.imag),
                     chi, bp.branch])
    _write_rows(args.out, ["m", "k", "delta", "re_eps_plus", "im_eps_plus",
                           "re_eps_minus", "im_eps_minus", "chi_k", "branch"],
                rows)
    return 0


def _grid(values, name):
    parsed = _axis_arg(values, name)
    return parsed.values() if isinstance(parsed, Axis) else [parsed]


def cmd_ssh_berry(args) -> int:
    us = _grid(args.u, "u")
    rows = []
    for v1 in _grid(args.v1, "v1"):
        for u in us:
            p = _params(SshParams, v1=float(v1), v2=args.v2, u=float(u), L=args.L)
            try:
                bp = complex_berry_phase(p, band=args.band, method=args.method,
                                         n_k=args.nk)
                change = "" if bp.grid_change is None else _fmt(bp.grid_change)
                rows.append([_fmt(v1), _fmt(u),
                             _fmt(bp.value.real), _fmt(bp.value.imag),
                             bp.method, str(bp.n_k), "", change])
            except ValueError as err:       # an invalid --nk, say
                raise ConfigError(str(err)) from None
            except PtfidelityError as err:
                rows.append([_fmt(v1), _fmt(u), "nan", "nan",
                             args.method, str(args.nk),
                             f"{type(err).__name__}", ""])
    # grid_change: the Richardson |gamma(2N) - gamma(N)| of the numeric loop
    _write_rows(args.out, ["v1", "u", "re_gamma", "im_gamma", "method",
                           "n_k", "error", "grid_change"], rows)
    return 0


def cmd_ssh_edges(args) -> int:
    p = _params(SshParams, v1=args.v1, v2=args.v2, u=args.u, L=args.L)
    result = _params(open_boundary_spectrum, p)
    report = {
        "params": {"v1": p.v1, "v2": p.v2, "u": p.u, "w": p.w, "L": p.L},
        "n_boundary_modes": len(result.boundary_modes),
        "boundary_modes": [
            {
                "index": m.index,
                "re_E": m.eigenvalue.real, "im_E": m.eigenvalue.imag,
                "edge_weight": m.edge_weight,
                "up_weight": m.up_weight, "down_weight": m.down_weight,
                "side": m.side,
            }
            for m in result.boundary_modes
        ],
        "eigenvalues": [[w.real, w.imag] for w in result.eigenvalues],
    }
    _write_json(args.out, report)
    return 0


def cmd_xxz_spectrum(args) -> int:
    w = full_sector_spectrum(_params(XxzParams, jz=args.jz, gamma=args.gamma, L=args.L))
    _write_rows(args.out, ["re_E", "im_E"],
                [[_fmt(x.real), _fmt(x.imag)] for x in w])
    return 0


def cmd_ep_locate(args) -> int:
    lo, hi = args.bracket
    schedule = args.epsilon_schedule or [1e-2, 1e-3, 1e-4]
    # refused before any solve, not after the bisection.  The options of one
    # model, with their defaults: the other refuses them, as it would ignore
    # them, so they default to None in the parser
    own = {"ssh": {"u": 0.0, "v2": 0.0},
           "xxz": {"jz": 0.0, "gamma": 0.0, "direction": "gamma", "tol_real": None}}
    other = "xxz" if args.model == "ssh" else "ssh"
    given = [f"--{n.replace('_', '-')}" for n in own[other] if getattr(args, n) is not None]
    if given:
        raise ConfigError(f"{', '.join(given)} not taken with --model {args.model}")
    defaults = {**own[args.model], "L": 101 if args.model == "ssh" else 10}
    for name, default in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    # solver counters, summed over the distinct solves; 0 for SSH
    counters = ("matvecs", "iterations", "extractions")
    _params(_check_one_half_options, schedule, args.a, args.b)
    _params(_check_tol_real, args.tol_real)
    if args.model == "ssh":
        base = _params(SshParams, v1=lo, v2=args.v2, u=args.u, L=args.L)

        # a finite-size SSH exceptional point is a parameter value where a
        # grid momentum crosses its EP, i.e. the count of imaginary-energy
        # momenta jumps (the unbroken->broken transition is count 0 -> 2).
        # A point's state is its stacked evaluation and its class that count;
        # every probe weighs 1, so the locator bisects
        def point(v1):
            bands = _Bands(replace(base, v1=v1))
            n = int(np.sum(bands.delta < 0))
            return bands, None, str(n), n != n_lo, 1.0, dict.fromkeys(counters, 0)

        n_lo = int(np.sum(_Bands(base).delta < 0))

        def fid_fn(sa, sb):
            return _many_body(sa.left, sb.left).value
    else:
        values = {"jz": args.jz, "gamma": args.gamma, "L": args.L}
        base = _params(XxzParams, **values)
        for x in (lo, hi):      # every probe lies between the bracket ends
            _params(XxzParams, **{**values, args.direction: x})

        # each solve after the first starts from the right vector of the
        # nearest point already solved (the earliest on a tie), so --seed
        # seeds the cold first start and the random part that ground_state
        # adds to every warm one.  The weight |r^T r|**2 of the unit right
        # vector is linear in the distance to a second-order EP on both sides
        def point(x):
            near = min(solved, key=lambda y: abs(y - x), default=None)
            g = ground_state(_with(base, args.direction, x), seed=args.seed,
                             v0=None if near is None else solved[near][1],
                             tol_real=args.tol_real)
            return (g.left, g.right, g.pt_class, g.is_broken, g.condition**2,
                    {name: getattr(g, name) for name in counters})

        fid_fn = None

    # one solve per point, in solve order and for this run only: the
    # one-half test reuses the bracket-end states, and XXZ warm starts read
    # them, so a run depends on nothing but its arguments
    solved = {}
    probes = []

    def state(x):
        if x not in solved:
            solved[x] = point(x)
        return solved[x]

    def probe(x):
        _, _, pt_class, broken, weight, _ = state(x)
        probes.append([x, pt_class, weight])
        return broken, weight

    def state_fn(x):
        return state(x)[:3]

    blo, bhi = _params(bisect_ep, probe, lo, hi, tol=args.tol)
    result = one_half_ep_test(state_fn, blo, bhi, epsilon_schedule=schedule,
                              a=args.a, b=args.b, fidelity_fn=fid_fn)
    crossing = []
    if args.model == "ssh":     # per-momentum one-half report at the crossing momenta
        ba, bb = (_Bands(replace(base, v1=v))
                  for v in (blo - schedule[-1], bhi + schedule[-1]))
        crosses = (ba.delta > 0) != (bb.delta > 0)
        f_k = _many_body(ba, bb).per_k
        crossing = [{"m": int(m), "k": float(ba.ks[m]),
                     "re_f_k": f_k[m].real, "im_f_k": f_k[m].imag}
                    for m in np.flatnonzero(crosses)]

    report = {
        "model": args.model,
        "bracket": [blo, bhi],
        "lambda_ep": 0.5 * (blo + bhi),
        "is_second_order": result.is_second_order,
        "n_crossings": result.n_crossings,
        "re_f_trace": [[eps, F.real, F.imag] for eps, F in result.re_f_trace],
        "crossing_momenta": crossing,
        "probes": probes,
        "solves": len(solved),
        **{name: sum(st[5][name] for st in solved.values()) for name in counters},
    }
    _write_json(args.out, report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptfidelity",
        description="Biorthogonal fidelity toolkit for PT-symmetric lattice models",
    )
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, **defaults):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--out", default=None, help="output file path")
        cmd.set_defaults(func=func, **defaults)
        return cmd

    for model, help_text, L in (("ssh", "ladder sweep over (v1, u, v2)", 101),
                                ("xxz", "spin-chain sweep over (gamma, jz)", 10)):
        scan = command(f"{model}-scan", cmd_scan, help_text, model=model)
        _add_common(scan)
        if model == "xxz":      # SSH states and classes are closed form
            _add_solver(scan, "base Lanczos seed")
        scan.add_argument("--config", default=None, help="sweep config file")
        for name in _AXIS_NAMES[model]:
            scan.add_argument(f"--{name}", nargs="+", default=None)
        scan.add_argument("-L", type=int, nargs="+", default=[L])

    bands = command("ssh-bands", cmd_ssh_bands, "per-momentum energies and chi_k")
    bands.add_argument("--v1", type=float, required=True)
    bands.add_argument("--v2", type=float, default=0.0)
    bands.add_argument("--u", type=float, default=0.0)
    bands.add_argument("-L", type=int, default=101)

    berry = command("ssh-berry", cmd_ssh_berry, "complex Berry phase")
    berry.add_argument("--v1", nargs="+", required=True)
    berry.add_argument("--u", nargs="+", required=True)
    berry.add_argument("--v2", type=float, default=0.0)
    berry.add_argument("--band", type=int, choices=(-1, 1), default=-1)
    berry.add_argument("--method", choices=("numeric", "analytic"),
                       default="numeric")
    berry.add_argument("--nk", type=int, default=4096)
    berry.add_argument("-L", type=int, default=101)

    edges = command("ssh-edges", cmd_ssh_edges, "open-boundary spectrum and modes")
    edges.add_argument("--v1", type=float, required=True)
    edges.add_argument("--v2", type=float, default=0.0)
    edges.add_argument("--u", type=float, default=0.0)
    edges.add_argument("-L", type=int, default=40)

    spec = command("xxz-spectrum", cmd_xxz_spectrum, "full sector spectrum")
    spec.add_argument("--jz", type=float, required=True)
    spec.add_argument("--gamma", type=float, default=0.0)
    spec.add_argument("-L", type=int, default=10)

    ep = command("ep-locate", cmd_ep_locate,
                 "locate a PT transition (ITP bracket search) and run the "
                 "one-half test")
    _add_solver(ep, "Lanczos seed of the first, cold XXZ solve and of the "
                    "random part of every warm start after it (SSH ignores it)")
    ep.add_argument("--model", choices=("ssh", "xxz"), required=True)
    ep.add_argument("--bracket", type=float, nargs=2, required=True)
    ep.add_argument("--direction", choices=("gamma", "jz"), default=None,
                    help="XXZ scan parameter (default gamma; SSH always scans v1)")
    ep.add_argument("--tol", type=float, default=1e-6,
                    help="width of the located bracket, hi - lo <= tol "
                         "(not a number of halvings; default 1e-6)")
    ep.add_argument("--a", type=float, default=0.5)
    ep.add_argument("--b", type=float, default=0.5)
    ep.add_argument("--epsilon-schedule", type=float, nargs="+", default=None)
    ep.add_argument("--v2", type=float, default=None, help="SSH only (default 0)")
    ep.add_argument("--u", type=float, default=None, help="SSH only (default 0)")
    ep.add_argument("--jz", type=float, default=None, help="XXZ only (default 0)")
    ep.add_argument("--gamma", type=float, default=None, help="XXZ only (default 0)")
    ep.add_argument("-L", type=int, default=None,
                    help="chain size (default 101 for SSH, 10 for XXZ)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except PtfidelityError as err:
        print(f"runtime error: {error_text(err)}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
