"""Command-line interface: run, report, suite, list-models."""

from __future__ import annotations

import argparse
import sys

from .errors import InnovlabError, UsageError
from .harness import MODEL_COLUMN, load_config, report, run_experiment, suite
from .models import list_models


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="innovlab",
                                description="innovation-filtration laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--paths", type=int, default=None)
    run_p.add_argument("--grid", type=int, default=None)
    run_p.add_argument("--outdir", default=None)

    rep_p = sub.add_parser("report", help="summarize records in a directory")
    rep_p.add_argument("--in", dest="in_dir", required=True)

    suite_p = sub.add_parser("suite", help="run a named suite")
    suite_p.add_argument("name")
    suite_p.add_argument("--outdir", default=None)
    suite_p.add_argument("--seed", type=int, default=20260808)

    sub.add_parser("list-models", help="list the built-in drift models")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            overrides = {}
            if args.seed is not None:
                overrides["seed"] = args.seed
            if args.paths is not None:
                overrides["paths"] = args.paths
            if args.grid is not None:
                overrides["grid_n"] = args.grid
            if args.outdir is not None:
                overrides["outdir"] = args.outdir
            cfg = load_config(args.config, **overrides)
            rec = run_experiment(cfg)
            for row in rec.levels:
                print(f"{row['model']:{MODEL_COLUMN}s} n={row['n']:>4} H={row['H_hat']:.6f} "
                      f"E={row['E_hat']:.6f} gap={row['gap']:+.6f} {row['verdict']}")
            print(f"verdict: {rec.verdict}  ({rec.wall_clock:.1f}s)")
            return 0
        if args.command == "report":
            print(report(args.in_dir))
            return 0
        if args.command == "suite":
            return suite(args.name, args.outdir, args.seed)
        if args.command == "list-models":
            for d in list_models():
                params = ", ".join(f"{k}={v}" for k, v in d["parameters"].items()) or "-"
                print(f"{d['name']:{MODEL_COLUMN}s} kind={d['kind']:14s} aux={d['aux_dimension']} "
                      f"params: {params}")
            return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except InnovlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
