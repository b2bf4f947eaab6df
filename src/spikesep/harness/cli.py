"""Command-line interface.

Subcommands: density, mc, scan, figure, verify.  Exit status 0 on success,
1 on failed verification, 2 on configuration errors.  Worker-thread count
comes from the SPIKESEP_WORKERS environment variable; everything else is
passed by flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..kernels import ShiftedChiral, ShiftedGUE, SpikedLUE
from .config import ExperimentConfig, GridSpec
from .emit import emit_csv, emit_svg
from .experiments import run_density_experiment, run_onset_scan
from .figures import FIGURE_PRESETS, run_figure
from .verify import run_verify

CONFIG_ERROR = 2
VERIFY_FAILED = 1


def _parse_grid(text: str) -> GridSpec:
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must look like min:max:count, got {text!r}") from exc
    try:
        return GridSpec(lo, hi, count)
    except ValueError as exc:  # argparse prints only an ArgumentTypeError's reason
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_model(args) -> object:
    if args.model == "shifted-gue":
        if args.n is None:
            raise ValueError("shifted-gue needs --n")
        return ShiftedGUE(args.n, args.r, args.c)
    if args.model == "spiked-lue":
        if args.m is None or args.btilde is None:
            raise ValueError("spiked-lue needs --m and --btilde")
        return SpikedLUE(args.m, args.alpha, args.r, args.btilde)
    if args.model == "shifted-chiral":
        if args.m is None:
            raise ValueError("shifted-chiral needs --m")
        return ShiftedChiral(args.m, args.alpha, args.r, args.c)
    raise ValueError(f"unknown model {args.model!r}")


def _add_model_flags(p):
    p.add_argument("--model", required=True,
                   choices=["shifted-gue", "spiked-lue", "shifted-chiral"])
    p.add_argument("--n", type=int, default=None, help="matrix size (shifted-gue)")
    p.add_argument("--m", type=int, default=None, help="matrix size (lue/chiral)")
    p.add_argument("--alpha", type=float, default=0.0, help="Laguerre parameter (n - m)")
    p.add_argument("--r", type=int, default=1, help="spike rank")
    p.add_argument("--c", type=float, default=0.0, help="shift strength")
    p.add_argument("--btilde", type=float, default=None, help="inverse-covariance spike")
    p.add_argument("--grid", type=_parse_grid, required=True, help="min:max:count")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--svg", default=None, help="optional SVG path")


def _cmd_density(args) -> int:
    model = _build_model(args)
    config = ExperimentConfig(kind="density", model=model, grid=args.grid)
    exact, _, report = run_density_experiment(config)
    emit_csv([exact], report, args.out)
    if args.svg:
        emit_svg([exact], args.svg)
    print(json.dumps(report.as_dict(), sort_keys=True))
    return 0


def _cmd_mc(args) -> int:
    model = _build_model(args)
    config = ExperimentConfig(
        kind="mc", model=model, grid=args.grid, trials=args.trials,
        bins=args.bins, master_seed=args.seed, beta=args.beta,
    )
    exact, empirical, report = run_density_experiment(config)
    curves = [c for c in (empirical,) if c is not None]
    emit_csv(curves, report, args.out)
    if exact is not None:
        emit_csv([exact], report, str(args.out) + ".exact.csv")
    if args.svg:
        emit_svg(([exact] if exact is not None else []) + curves, args.svg)
    print(json.dumps(report.as_dict(), sort_keys=True))
    return 0


def _cmd_scan(args) -> int:
    model = _build_model(args)
    spikes = tuple(float(s) for s in args.spikes.split(","))
    config = ExperimentConfig(kind="scan", model=model, grid=args.grid, spikes=spikes)
    reports = run_onset_scan(config)
    payload = {f"{s:g}": r.as_dict() for s, r in reports.items()}
    print(json.dumps(payload, sort_keys=True))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
    return 0


def _cmd_figure(args) -> int:
    for preset in args.name:
        result = run_figure(preset, args.outdir, master_seed=args.seed)
        for f in result["files"]:
            print(f)
        for name, report in result["reports"].items():
            print(name, json.dumps(report.as_dict(), sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    report = run_verify(args.suite)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["passed"] else VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikesep",
        description="Eigenvalue separation in spiked random matrix ensembles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="exact beta=2 eigenvalue density on a grid")
    _add_model_flags(p)
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("mc", help="Monte Carlo density with exact overlay at beta=2")
    _add_model_flags(p)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1729)
    p.add_argument("--beta", type=int, default=2, choices=[1, 2])
    p.add_argument("--bins", type=int, default=101)
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("scan", help="separation-onset scan over spike values")
    _add_model_flags(p)
    p.add_argument("--spikes", required=True, help="comma-separated spike values")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("figure", help="render figure presets (CSV + SVG)")
    p.add_argument("name", nargs="+", choices=sorted(FIGURE_PRESETS))
    p.add_argument("--outdir", required=True)
    p.add_argument("--seed", type=int, default=1729)
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("verify", help="run the oracle cross-check suite")
    p.add_argument("--suite", default="all")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
