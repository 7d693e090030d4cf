"""Command-line driver: sweeps, band tables, EP location, benchmarks.

Exit codes: 0 on success, 2 for configuration errors, 3 for runtime
failures (partial output is written when available).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from ._version import VERSION
from .errors import ConfigError, PtfidelityError
from .fidelity import FIDELITY_TAGS, bisect_ep, one_half_ep_test
from .ssh import (
    SshParams,
    band_discriminant,
    band_point,
    chi_k_metricized,
    complex_berry_phase,
    lower_band_fidelities,
    many_body_fidelity,
    open_boundary_spectrum,
)
from .sweep import (
    Axis,
    SweepConfig,
    emit,
    parse_config,
    run_sweep,
)
from .xxz import XxzParams, full_sector_spectrum, ground_state, is_broken_at


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, default=1e-3,
                        help="fidelity step (default 1e-3)")
    parser.add_argument("--tol-real", type=float, default=None,
                        help="imaginary-part threshold for PT classification")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for grid evaluation")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="fmt", help="output format")
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--seed", type=int, default=0,
                        help="base random seed (Lanczos restarts)")
    parser.add_argument("--definition", choices=FIDELITY_TAGS,
                        default="metricized", help="fidelity definition")


def _axis_arg(values, name) -> Axis | float:
    if len(values) == 1:
        return float(values[0])
    if len(values) == 3:
        return Axis(name=name, start=float(values[0]), stop=float(values[1]),
                    count=int(float(values[2])))
    raise ConfigError(f"--{name} takes one value or start stop count, got {values}")


def _build_sweep_config(args, model: str) -> SweepConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            return parse_config(f.read())
    axes: list[Axis] = []
    fixed: dict[str, float] = {}
    names = ("v1", "u", "v2") if model == "ssh" else ("jz", "gamma")
    for name in names:
        raw = getattr(args, name, None)
        if raw is None:
            continue
        parsed = _axis_arg(raw, name)
        if isinstance(parsed, Axis):
            axes.append(parsed)
        else:
            fixed[name] = parsed
    sizes = list(args.L) if isinstance(args.L, list) else [args.L]
    if model == "ssh" and len(sizes) == 1:
        fixed["L"] = sizes[0]
        sizes = []
    cfg = SweepConfig(
        model=model, axes=axes, fixed=fixed, sizes=sizes,
        epsilon=args.epsilon, definition=args.definition,
        seed=args.seed, threads=args.threads, tol_real=args.tol_real,
        out=args.out, fmt=args.fmt,
    )
    cfg.validate()
    return cfg


def _write_rows(path, header, rows) -> None:
    out = sys.stdout if path is None else open(path, "w", encoding="utf-8")
    try:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(row) + "\n")
    finally:
        if path is not None:
            out.close()


def cmd_ssh_scan(args) -> int:
    cfg = _build_sweep_config(args, "ssh")
    result = run_sweep(cfg)
    emit(result, cfg.fmt, cfg.out or args.out or "ssh_scan." + cfg.fmt)
    return 0


def cmd_xxz_scan(args) -> int:
    cfg = _build_sweep_config(args, "xxz")
    result = run_sweep(cfg)
    emit(result, cfg.fmt, cfg.out or args.out or "xxz_scan." + cfg.fmt)
    return 0


def cmd_ssh_bands(args) -> int:
    p = SshParams(v1=args.v1, v2=args.v2, u=args.u, L=args.L)
    rows = []
    for m, k in enumerate(p.momenta()):
        bp = band_point(k, p)
        try:
            chi = _fmt(chi_k_metricized(k, p))
        except PtfidelityError:
            chi = "nan"
        rows.append([str(m), _fmt(k), _fmt(bp.delta),
                     _fmt(bp.energy_plus.real), _fmt(bp.energy_plus.imag),
                     _fmt(bp.energy_minus.real), _fmt(bp.energy_minus.imag),
                     chi, bp.branch])
    _write_rows(args.out, ["m", "k", "delta", "re_eps_plus", "im_eps_plus",
                           "re_eps_minus", "im_eps_minus", "chi_k", "branch"],
                rows)
    return 0


def cmd_ssh_berry(args) -> int:
    v1s = np.linspace(*map(float, args.v1[:2]), int(float(args.v1[2]))) \
        if len(args.v1) == 3 else [float(args.v1[0])]
    us = np.linspace(*map(float, args.u[:2]), int(float(args.u[2]))) \
        if len(args.u) == 3 else [float(args.u[0])]
    rows = []
    for v1 in v1s:
        for u in us:
            p = SshParams(v1=float(v1), v2=args.v2, u=float(u), L=args.L)
            try:
                bp = complex_berry_phase(p, band=args.band, method=args.method,
                                         n_k=args.nk)
                rows.append([_fmt(v1), _fmt(u),
                             _fmt(bp.value.real), _fmt(bp.value.imag),
                             bp.method, str(bp.n_k), ""])
            except PtfidelityError as err:
                rows.append([_fmt(v1), _fmt(u), "nan", "nan",
                             args.method, str(args.nk),
                             f"{type(err).__name__}"])
    _write_rows(args.out, ["v1", "u", "re_gamma", "im_gamma", "method",
                           "n_k", "error"], rows)
    return 0


def cmd_ssh_edges(args) -> int:
    p = SshParams(v1=args.v1, v2=args.v2, u=args.u, L=args.L)
    result = open_boundary_spectrum(p)
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
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_xxz_spectrum(args) -> int:
    p = XxzParams(jz=args.jz, gamma=args.gamma, L=args.L)
    w = full_sector_spectrum(p)
    _write_rows(args.out, ["re_E", "im_E"],
                [[_fmt(x.real), _fmt(x.imag)] for x in w])
    return 0


def cmd_ep_locate(args) -> int:
    lo, hi = args.bracket
    schedule = args.epsilon_schedule or [1e-2, 1e-3, 1e-4]
    if args.model == "ssh":
        # a finite-size SSH exceptional point is a parameter value where a
        # grid momentum crosses its EP, i.e. the count of imaginary-energy
        # momenta jumps (the unbroken->broken transition is count 0 -> 2)
        def n_broken(v1):
            p = SshParams(v1=v1, v2=args.v2, u=args.u, L=args.L)
            return int(np.sum(band_discriminant(p.momenta(), p) < 0))

        n_lo = n_broken(lo)
        blo, bhi = bisect_ep(lambda v1: n_broken(v1) != n_lo, lo, hi,
                             tol=args.tol)

        def state_fn(v1):
            return v1, None, str(n_broken(v1))

        def fid_fn(sa, sb):
            p = SshParams(v1=sa.left, v2=args.v2, u=args.u, L=args.L)
            return many_body_fidelity(p, sa.left, sb.left).value

        result = one_half_ep_test(state_fn, blo, bhi,
                                  epsilon_schedule=schedule,
                                  a=args.a, b=args.b, fidelity_fn=fid_fn)
        # per-momentum one-half report at the crossing momenta
        pa = SshParams(v1=blo - schedule[-1], v2=args.v2, u=args.u, L=args.L)
        pb = SshParams(v1=bhi + schedule[-1], v2=args.v2, u=args.u, L=args.L)
        ks = pa.momenta()
        crosses = (band_discriminant(ks, pa) > 0) != (band_discriminant(ks, pb) > 0)
        f_k = lower_band_fidelities(pa, pb)
        crossing = [{"m": int(m), "k": float(ks[m]),
                     "re_f_k": f_k[m].real, "im_f_k": f_k[m].imag}
                    for m in np.flatnonzero(crosses)]
    else:
        base = XxzParams(jz=args.jz, gamma=args.gamma, L=args.L)

        def is_broken(x):
            return is_broken_at(base, args.direction, x, seed=args.seed,
                                tol_real=args.tol_real)

        blo, bhi = bisect_ep(is_broken, lo, hi, tol=args.tol)

        def state_fn(x):
            params = XxzParams(
                jz=x if args.direction == "jz" else base.jz,
                gamma=x if args.direction == "gamma" else base.gamma,
                L=base.L)
            g = ground_state(params, seed=args.seed, tol_real=args.tol_real)
            return g.left, g.right, g.pt_class

        result = one_half_ep_test(state_fn, blo, bhi,
                                  epsilon_schedule=schedule,
                                  a=args.a, b=args.b)
        crossing = []

    report = {
        "model": args.model,
        "bracket": [blo, bhi],
        "lambda_ep": 0.5 * (blo + bhi),
        "is_second_order": result.is_second_order,
        "n_crossings": result.n_crossings,
        "re_f_trace": [[eps, F.real, F.imag] for eps, F in result.re_f_trace],
        "crossing_momenta": crossing,
    }
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_bench(args) -> int:
    from .biortho import biorthogonal_eig
    from .lanczos import complex_symmetric_lanczos
    from .ssh import chi_total
    from .xxz import build_hamiltonian, build_m0_basis

    rng = np.random.default_rng(args.seed)
    rows = []

    def timeit(module, op, fn):
        t0 = time.perf_counter()
        fn()
        rows.append([module, op, f"{time.perf_counter() - t0:.4f}"])

    A = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    timeit("biortho-core", "biorthogonal_eig dim=64", lambda: biorthogonal_eig(A))

    timeit("ssh-model", "chi_total L=101 x 100 points",
           lambda: [chi_total(SshParams(v1=v, v2=0.0, u=0.1, L=101))
                    for v in np.linspace(0.5, 0.89, 100)])
    timeit("ssh-model", "complex_berry_phase N=4096",
           lambda: complex_berry_phase(SshParams(v1=0.5, u=0.2), band=-1))

    basis = build_m0_basis(12)
    H = build_hamiltonian(XxzParams(jz=0.5, gamma=0.1, L=12), basis)
    timeit("xxz-model", "build_hamiltonian L=12",
           lambda: build_hamiltonian(XxzParams(jz=0.5, gamma=0.1, L=12), basis))
    timeit("biortho-core", "lanczos L=12 sector",
           lambda: complex_symmetric_lanczos(H, basis.size, rng=np.random.default_rng(0)))

    _write_rows(args.out, ["module", "operation", "seconds"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptfidelity",
        description="Biorthogonal fidelity toolkit for PT-symmetric lattice models",
    )
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    ssh_scan = sub.add_parser("ssh-scan", help="ladder sweep over (v1, u, v2)")
    _add_common(ssh_scan)
    ssh_scan.add_argument("--config", default=None, help="sweep config file")
    ssh_scan.add_argument("--v1", nargs="+", default=None)
    ssh_scan.add_argument("--u", nargs="+", default=None)
    ssh_scan.add_argument("--v2", nargs="+", default=None)
    ssh_scan.add_argument("-L", type=int, nargs="+", default=[101])
    ssh_scan.set_defaults(func=cmd_ssh_scan)

    xxz_scan = sub.add_parser("xxz-scan", help="spin-chain sweep over (gamma, jz)")
    _add_common(xxz_scan)
    xxz_scan.add_argument("--config", default=None, help="sweep config file")
    xxz_scan.add_argument("--jz", nargs="+", default=None)
    xxz_scan.add_argument("--gamma", nargs="+", default=None)
    xxz_scan.add_argument("-L", type=int, nargs="+", default=[10])
    xxz_scan.set_defaults(func=cmd_xxz_scan)

    bands = sub.add_parser("ssh-bands", help="per-momentum energies and chi_k")
    _add_common(bands)
    bands.add_argument("--v1", type=float, required=True)
    bands.add_argument("--v2", type=float, default=0.0)
    bands.add_argument("--u", type=float, default=0.0)
    bands.add_argument("-L", type=int, default=101)
    bands.set_defaults(func=cmd_ssh_bands)

    berry = sub.add_parser("ssh-berry", help="complex Berry phase")
    _add_common(berry)
    berry.add_argument("--v1", nargs="+", required=True)
    berry.add_argument("--u", nargs="+", required=True)
    berry.add_argument("--v2", type=float, default=0.0)
    berry.add_argument("--band", type=int, choices=(-1, 1), default=-1)
    berry.add_argument("--method", choices=("numeric", "analytic"),
                       default="numeric")
    berry.add_argument("--nk", type=int, default=4096)
    berry.add_argument("-L", type=int, default=101)
    berry.set_defaults(func=cmd_ssh_berry)

    edges = sub.add_parser("ssh-edges", help="open-boundary spectrum and modes")
    _add_common(edges)
    edges.add_argument("--v1", type=float, required=True)
    edges.add_argument("--v2", type=float, default=0.0)
    edges.add_argument("--u", type=float, default=0.0)
    edges.add_argument("-L", type=int, default=40)
    edges.set_defaults(func=cmd_ssh_edges)

    spec = sub.add_parser("xxz-spectrum", help="full sector spectrum")
    _add_common(spec)
    spec.add_argument("--jz", type=float, required=True)
    spec.add_argument("--gamma", type=float, default=0.0)
    spec.add_argument("-L", type=int, default=10)
    spec.set_defaults(func=cmd_xxz_spectrum)

    ep = sub.add_parser("ep-locate", help="bisect a PT transition and run the one-half test")
    _add_common(ep)
    ep.add_argument("--model", choices=("ssh", "xxz"), required=True)
    ep.add_argument("--bracket", type=float, nargs=2, required=True)
    ep.add_argument("--direction", choices=("v1", "gamma", "jz"), default=None)
    ep.add_argument("--tol", type=float, default=1e-6)
    ep.add_argument("--a", type=float, default=0.5)
    ep.add_argument("--b", type=float, default=0.5)
    ep.add_argument("--epsilon-schedule", type=float, nargs="+", default=None)
    ep.add_argument("--v2", type=float, default=0.0)
    ep.add_argument("--u", type=float, default=0.0)
    ep.add_argument("--jz", type=float, default=0.0)
    ep.add_argument("--gamma", type=float, default=0.0)
    ep.add_argument("-L", type=int, default=101)
    ep.set_defaults(func=cmd_ep_locate)

    bench = sub.add_parser("bench", help="per-module timing report")
    _add_common(bench)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        if getattr(args, "model", None) == "xxz" and \
                getattr(args, "direction", None) is None:
            args.direction = "gamma"
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except PtfidelityError as err:
        print(f"runtime error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
