"""Command-line interface.

Subcommands: ``run`` (one config), ``sweep`` (directory of configs),
``metrics`` (recompute from a trace CSV), ``compare`` (metrics files).
Each run's entry in ``results.json`` records its ticks, wall time, ticks/s,
damped task-inertia inverses and largest constraint gap.
Exit codes: 0 success; 2 a missing or malformed config, model, metrics or
trace CSV file, or ``--settle`` past its end; 3 divergence.
"""

from __future__ import annotations

import argparse
import glob
import json
import logging
import os
import sys

from .errors import ConfigError
from .harness import (
    EXIT_CONFIG,
    EXIT_OK,
    SETTLE_TIME,
    MetricsRecord,
    compare_runs,
    compute_metrics,
    parse_config,
    render_comparison,
    run_matrix,
)
from .schema import naming_file, read_json


def _cmd_run(args) -> int:
    return run_matrix([parse_config(args.config)], args.out)


def _cmd_sweep(args) -> int:
    paths = sorted(glob.glob(os.path.join(args.configs, "*.json")))
    if not paths:
        raise ConfigError(f"no *.json configs found in {args.configs}")
    configs = [parse_config(p) for p in paths]
    return run_matrix(configs, args.out, jobs=args.jobs)


def _cmd_metrics(args) -> int:
    from .sim import read_trace_csv

    trace = read_trace_csv(args.trace)
    rec = compute_metrics(trace, settle_time=args.settle)
    print(json.dumps(rec.to_dict(), indent=2))
    return EXIT_OK


def _cmd_compare(args) -> int:
    entries = []
    for path in args.metrics:
        data = read_json(path)
        with naming_file(path, "metrics"):
            record = MetricsRecord.from_dict(data)
        entries.append((os.path.basename(os.path.dirname(path)) or path, record))
    table = compare_runs(entries)
    print(render_comparison(table))
    return EXIT_OK


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rcmsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one run config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="execute every *.json config in a directory")
    p_sweep.add_argument("--configs", required=True)
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--jobs", type=positive_int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_metrics = sub.add_parser("metrics", help="recompute metrics from a trace CSV")
    p_metrics.add_argument("--trace", required=True)
    p_metrics.add_argument("--settle", type=float, default=SETTLE_TIME)
    p_metrics.set_defaults(func=_cmd_metrics)

    p_cmp = sub.add_parser("compare", help="tabulate metrics files against the first")
    p_cmp.add_argument("--metrics", nargs="+", required=True)
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
