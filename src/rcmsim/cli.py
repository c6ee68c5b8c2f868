"""Command-line interface.

Subcommands: ``run`` (one config), ``sweep`` (directory of configs),
``metrics`` (recompute from a trace CSV), ``compare`` (metrics files),
``bench`` (frame-pass and episode throughput).
Exit codes: 0 success, 2 config error, 3 divergence.
"""

from __future__ import annotations

import argparse
import glob
import json
import logging
import os
import sys
import time

import numpy as np

from .errors import ConfigError
from .harness import (
    EXIT_CONFIG,
    EXIT_OK,
    MetricsRecord,
    compare_runs,
    compute_metrics,
    parse_config,
    render_comparison,
    run_matrix,
)


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    out = args.out if args.out is not None else (cfg.output or "out")
    return run_matrix([cfg], out, jobs=args.jobs)


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
        with open(path, "r", encoding="utf-8") as fh:
            record = MetricsRecord.from_dict(json.load(fh))
        entries.append((os.path.basename(os.path.dirname(path)) or path, record))
    table = compare_runs(entries)
    print(render_comparison(table))
    return EXIT_OK


def _bench_payload(ticks: int) -> dict:
    """Time the frame pass as the tick runs it, and a short closed-loop episode."""
    from .controllers import GainSet, build_snapshot
    from .rcm import RcmMode, TrocarState
    from .robot import DEFAULT_HOME, JointState, kinematics, load_default_model
    from .sim import ControlSetup, Scenario, SimConfig, run_episode

    model = load_default_model()
    q = DEFAULT_HOME.copy()
    qd = 0.1 * np.ones(model.n)
    state = JointState(q, qd)
    kin0 = kinematics(model, q)
    trocar = TrocarState.static(0.5 * (kin0.pose_r.p + kin0.pose_t.p))

    def timeit(fn, repeat):
        fn()  # warm-up
        start = time.perf_counter()
        for _ in range(repeat):
            fn()
        return (time.perf_counter() - start) / repeat * 1e6  # microseconds

    def with_rates():
        kin = kinematics(model, q, qd)
        return kin.Jdot_t

    def with_dynamics():
        kin = kinematics(model, q, qd)
        return kin.Jdot_t, kin.M, kin.h

    # Cumulative stages of one pass: frames and Jacobians, then their rates,
    # then M and h; the snapshot adds the constraint terms and M^-1.
    pass_times = {
        "frames": timeit(lambda: kinematics(model, q, qd), 2000),
        "with_rates": timeit(with_rates, 2000),
        "with_dynamics": timeit(with_dynamics, 2000),
        "snapshot": timeit(lambda: build_snapshot(model, state, trocar, RcmMode.TWO_D), 2000),
    }

    control = ControlSetup(gains=GainSet.from_proportional(n_joints=model.n))
    scenario = Scenario(alpha=0.5)
    duration = ticks * 1e-3
    sim = SimConfig(dt=1e-3, duration=duration)
    run_episode(model, control, scenario, sim)  # warm-up
    start = time.perf_counter()
    trace = run_episode(model, control, scenario, sim)
    elapsed = time.perf_counter() - start
    return {
        "pass_us": pass_times,
        "episode_ticks": trace.filled,
        "episode_seconds": elapsed,
        "ticks_per_second": trace.filled / elapsed,
    }


def _cmd_bench(args) -> int:
    payload = _bench_payload(args.ticks)
    if args.json:
        print(json.dumps(payload))
        return EXIT_OK
    stages = payload["pass_us"]
    print(f"{'frames us':>10} {'+rates us':>10} {'+M,h us':>10} {'snapshot us':>12} "
          f"{'episode ticks/s':>16}")
    print(f"{stages['frames']:>10.1f} {stages['with_rates']:>10.1f} "
          f"{stages['with_dynamics']:>10.1f} {stages['snapshot']:>12.1f} "
          f"{payload['ticks_per_second']:>16.0f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rcmsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one run config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None,
                       help="output directory (default: config 'output' or ./out)")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="execute every *.json config in a directory")
    p_sweep.add_argument("--configs", required=True)
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_metrics = sub.add_parser("metrics", help="recompute metrics from a trace CSV")
    p_metrics.add_argument("--trace", required=True)
    p_metrics.add_argument("--settle", type=float, default=1.0)
    p_metrics.set_defaults(func=_cmd_metrics)

    p_cmp = sub.add_parser("compare", help="tabulate metrics files against the first")
    p_cmp.add_argument("--metrics", nargs="+", required=True)
    p_cmp.set_defaults(func=_cmd_compare)

    p_bench = sub.add_parser("bench", help="frame-pass and episode throughput benchmark")
    p_bench.add_argument("--ticks", type=int, default=2000)
    p_bench.add_argument("--json", action="store_true", help="print one JSON record")
    p_bench.set_defaults(func=_cmd_bench)
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
