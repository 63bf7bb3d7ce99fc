"""Command-line interface.

Subcommands:
  generate  write a synthetic dataset file
  run       execute a campaign config for one or more seeds
  analyze   summarize entropy/drift columns from a run directory
  compare   print each run's seed-mean MKPE per iteration against a base run
  report    print the annotation cost table for a config

Exit codes: 0 success, 2 configuration/usage error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

from . import campaign as campaign_mod
from .analysis import cost_report
from .config import load_config
from .dataset import SyntheticSpec, generate_synthetic, save_dataset
from .errors import AnnosimError, InvariantViolation, ParseError
from .fileio import write_text
from .selection import STRATEGIES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _parse_seeds(text: str) -> tuple:
    try:
        seeds = tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise ParseError(f"--seed expects comma-separated integers: {exc}") from exc
    if not seeds:
        raise ParseError("--seed expects at least one integer")
    return seeds


def _cmd_generate(args) -> int:
    spec = load_config(args.config, SyntheticSpec) if args.config else SyntheticSpec()
    if args.seed is not None:
        seeds = _parse_seeds(args.seed)
        if len(seeds) != 1:
            raise ParseError("generate takes exactly one seed")
        spec = dataclasses.replace(spec, seed=seeds[0])
    dataset = generate_synthetic(spec)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    save_dataset(dataset, args.out)
    print(
        f"wrote {args.out}: {len(dataset.frames)} frames "
        f"({len(dataset.train_ids)} train / {len(dataset.heldout_ids)} heldout), "
        f"{len(dataset.cameras)} cameras, K={dataset.keypoint_count}"
    )
    return EXIT_OK


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.strategy:
        config = dataclasses.replace(config, strategy=args.strategy)
    if args.seed is not None:
        config = dataclasses.replace(config, seeds=_parse_seeds(args.seed))
    if not config.dataset:
        raise ParseError("config must set `dataset` to a dataset file path")
    results = campaign_mod.run(config, args.out)
    for result in results:
        final = result.rows[-1]
        print(
            f"seed {result.seed} [{result.strategy}]: "
            f"final MKPE {final.mkpe_mm:.3f} mm at {final.labeled_count} labeled"
        )
    print(f"reports written to {args.out}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    run_dir = args.out
    results = campaign_mod.read_reports(run_dir)
    entropy = campaign_mod.seed_aggregate(results, "entropy")
    drift = campaign_mod.seed_aggregate(results, "pseudo_drift_mean_mm")

    lines = ["iteration,entropy_mean,pseudo_drift_mean_mm"]
    print(f"{'iter':>4}  {'entropy':>8}  {'drift mm':>9}   ({len(results)} seeds)")
    for (it, _, ent_mean, _), (_, _, drift_mean, _) in zip(entropy, drift):
        drift_cell = "" if drift_mean is None else repr(drift_mean)
        lines.append(f"{it},{ent_mean!r},{drift_cell}")
        print(f"{it:>4}  {ent_mean:>8.4f}  {float(drift_cell or 'nan'):>9.4f}")
    out_path = os.path.join(run_dir, "analysis.csv")
    write_text(out_path, "\n".join(lines) + "\n")
    print(f"wrote {out_path}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    base = None
    table = [("run", "iteration", "labeled_count", "mkpe_mean_mm", "vs_base_mm")]
    for run_dir in [args.base, *args.runs]:
        results = campaign_mod.read_reports(run_dir)
        seeds = sorted(r.seed for r in results)
        means = campaign_mod.seed_aggregate(results)
        if base is None:
            base_dir, base_seeds, base = run_dir, seeds, means
        if seeds != base_seeds:
            raise InvariantViolation(
                f"{run_dir} has seeds {seeds}, base {base_dir} has {base_seeds}"
            )
        if [m[1] for m in means] != [b[1] for b in base]:
            raise InvariantViolation(
                f"{run_dir} and base {base_dir} differ in labeled counts per iteration"
            )
        for (it, count, mean, _), (_, _, base_mean, _) in zip(means, base):
            table.append((run_dir, it, count, repr(mean), repr(mean - base_mean)))
    csv.writer(sys.stdout, lineterminator="\n").writerows(table)
    return EXIT_OK


def _cmd_report(args) -> int:
    config = load_config(args.config)
    print("iteration,labeled_count,al_hours,conventional_hours")
    for i in range(config.iterations + 1):
        labeled = config.init_labeled + i * config.batch_per_iter
        rep = cost_report(i, labeled, config.cost)
        print(f"{i},{labeled},{rep.al_hours:.4f},{rep.conventional_hours:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annosim",
        description="Simulated active-learning annotation campaigns for multi-view 3D pose estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset")
    p_gen.add_argument("--config", help="YAML file of generator overrides")
    p_gen.add_argument("--seed", help="generator seed")
    p_gen.add_argument("--out", required=True, help="dataset file to write")

    p_run = sub.add_parser("run", help="run a campaign")
    p_run.add_argument("--config", required=True, help="campaign config YAML")
    p_run.add_argument("--seed", help="comma-separated seeds (overrides config)")
    p_run.add_argument("--out", required=True, help="run directory")
    p_run.add_argument(
        "--strategy", choices=STRATEGIES, help="selection strategy (overrides config)"
    )

    p_an = sub.add_parser("analyze", help="summarize a run directory")
    p_an.add_argument("--out", required=True, help="run directory to analyze")

    p_cmp = sub.add_parser(
        "compare", help="print seed-mean MKPE per iteration of runs against a base run"
    )
    p_cmp.add_argument("base", help="run directory of the base arm")
    p_cmp.add_argument("runs", nargs="+", metavar="run", help="run directories to compare")

    p_rep = sub.add_parser("report", help="print the cost-model table")
    p_rep.add_argument("--config", required=True, help="campaign config YAML")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through.
        return int(exc.code or 0)
    handlers = {
        "generate": _cmd_generate,
        "run": _cmd_run,
        "analyze": _cmd_analyze,
        "compare": _cmd_compare,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (
        ParseError,
        InvariantViolation,
        FileNotFoundError,
        FileExistsError,
        NotADirectoryError,
        IsADirectoryError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AnnosimError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # keep the contract: diagnostics + exit 3
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
