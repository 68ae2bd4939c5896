"""Command-line interface.

Subcommands: ``dominate``, ``prop41``, ``prop42``, ``decay``, ``weights``,
``vv``, ``indices``.  Outputs are CSV rows plus a JSON summary in the
output directory; identical config and seed give byte-identical files.

Exit codes: 0 on completion, 2 on precondition errors (bad flags, ranges,
config, unreadable config file or unwritable output path), 3 on threshold
failure inside the selection algorithm.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from .harness import (
    ExperimentConfig,
    prop41_combos,
    prop42_combos,
    run_decay,
    run_domination,
    run_prop41,
    run_prop42,
    run_vector_valued,
    run_weights,
)
from .indices import ExponentRecord, weight_indices
from .sparse import ThresholdFailure

_RUNNERS = {
    "dominate": run_domination,
    "prop41": run_prop41,
    "prop42": run_prop42,
    "decay": run_decay,
    "weights": run_weights,
    "vv": run_vector_valued,
}

# per-command grid defaults: the localized estimates need a larger domain
_GRID_DEFAULTS = {
    "dominate": (16.0, 512),
    "prop41": (64.0, 512),
    "prop42": (64.0, 512),
    "decay": (16.0, 512),
    "weights": (4.0, 128),
    "vv": (16.0, 256),
}
_TRIAL_DEFAULTS = {"dominate": 50, "prop41": 3, "prop42": 5,
                   "decay": 1, "weights": 1, "vv": 1}


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="line-oriented 'key = value' config file")
    sub.add_argument("--grid-n", type=int, help="samples per axis (power of two)")
    sub.add_argument("--grid-l", type=float, help="domain side length")
    sub.add_argument("--delta", type=float, help="smoothness exponent")
    sub.add_argument("--p0", help="inner exponent, exact rational like 6/5")
    sub.add_argument("--q0", help="dual-side exponent, exact rational")
    sub.add_argument("--p", help="Lebesgue exponent for weighted/vv runs")
    sub.add_argument("--q", help="inner exponent for vv runs")
    sub.add_argument("--trials", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--workers", type=int)
    sub.add_argument("--out", help="output directory (default: config output_dir)")


def _build_config(cmd: str, args: argparse.Namespace) -> ExperimentConfig:
    """Per-command defaults, then the config file's keys, then the flags."""
    gl, gn = _GRID_DEFAULTS[cmd]
    cfg = ExperimentConfig(grid_l=gl, grid_n=gn, trials=_TRIAL_DEFAULTS[cmd])
    if args.config:
        cfg = cfg.with_file(args.config)
    updates = {key: getattr(args, key) for key in
               ("grid_n", "grid_l", "delta", "trials", "seed", "workers")
               if getattr(args, key) is not None}
    updates.update({key: Fraction(getattr(args, key)) for key in ("p0", "q0", "p", "q")
                    if getattr(args, key) is not None})
    if args.out is not None:
        updates["output_dir"] = args.out
    return replace(cfg, **updates)


def _run_indices(args) -> int:
    defaults = ExperimentConfig()
    record = ExponentRecord.compute(
        n=args.dim,
        p0=Fraction(args.p0 or defaults.p0),
        q0=Fraction(args.q0 or defaults.q0),
        p=Fraction(args.p or defaults.p),
        q=Fraction(args.q) if args.q else None,
        delta=Fraction(args.delta_exact) if args.delta_exact else None,
        provider=args.provider,
    )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)  # fail before printing
    rows = record.rows()
    width = max(len(k) for k, _ in rows)
    for key, val in rows:
        print(f"{key:<{width}}  {val}")
    print()
    print(",".join(k for k, _ in rows))
    print(",".join(v for _, v in rows))
    if args.out:
        text = (",".join(k for k, _ in rows) + "\n"
                + ",".join(v for _, v in rows) + "\n")
        (out / "indices.csv").write_text(text, encoding="utf-8", newline="\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="brlab",
        description="Numerical laboratory for Bochner-Riesz sparse domination",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for cmd in _RUNNERS:
        sub = subs.add_parser(cmd)
        _add_common(sub)
    idx = subs.add_parser("indices", help="print the exponent record table")
    idx.add_argument("--dim", type=int, default=2)
    idx.add_argument("--p0")
    idx.add_argument("--q0")
    idx.add_argument("--p")
    idx.add_argument("--q")
    idx.add_argument("--delta-exact", help="exact rational delta, e.g. 1/5")
    idx.add_argument("--provider", default="dim2_solved",
                     choices=("dim2_solved", "assume_conjecture"))
    idx.add_argument("--out")

    args = parser.parse_args(argv)
    try:
        if args.command == "indices":
            return _run_indices(args)
        # a bad --out is named first; a bad config then fails before --out is made
        if args.out and Path(args.out).exists() and not Path(args.out).is_dir():
            raise FileExistsError(f"--out is not a directory: {args.out}")
        cfg = _build_config(args.command, args)
        # ranges and radius sets that only one command checks, also before --out is made
        if args.command == "dominate":
            if cfg.grid_dim == 1:
                raise ValueError("dominate needs grid_dim >= 2 (the maximal operators "
                                 "have no one-dimensional case), got 1")
            cfg.maximal_cfg().eps_px_list(cfg.spec())
        elif args.command == "weights":
            weight_indices(cfg.p, cfg.p0, "below2")
        elif args.command == "prop41":
            prop41_combos(cfg.spec())
        elif args.command == "prop42":
            prop42_combos(cfg.spec())
        Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)  # fail before the run
        report = _RUNNERS[args.command](cfg)
        csv_path, json_path = report.write(cfg.output_dir)
        print(f"{args.command}: {len(report.rows)} rows -> {csv_path}")
        for key, val in sorted(report.summary.items()):
            print(f"  {key} = {val}")
        return 0
    except ThresholdFailure as exc:
        print(f"threshold failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, ZeroDivisionError, OSError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
