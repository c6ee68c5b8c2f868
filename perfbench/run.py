"""rcmsim benchmark: closed-loop tick throughput and run time per workload.

    python3 perfbench/run.py --workload spiral_depths --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics (setup_s, ticks_per_s, run_s, peak_rss_mb); with
``--trace 1`` it holds the per-layer metrics of a traced run instead. The
lines before it give a digest of every output and, untraced, the plain
throughput before the host-speed correction. See README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# One process and one BLAS thread: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODEL = SRC / "rcmsim" / "data" / "default_7dof.json"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("spiral_depths", "baseline_controllers", "interaction_sweep")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_workloads():
    """Import the benchmark's workloads with the checkout's rcmsim."""
    if not (SRC / "rcmsim" / "__init__.py").is_file():
        print(f"error: no rcmsim sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def make_workload(workloads, args, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[args.workload](str(MODEL), str(out_dir), args.seed)


def setup_probe(args) -> int:
    """Child process: import, load the model, warm up; print the seconds
    and the host's slowdown right after."""
    workloads = load_workloads()
    out_dir = OUT / f"probe-{os.getpid()}"
    try:
        make_workload(workloads, args, out_dir).warm_up()
        seconds = time.perf_counter() - _T0
        import hostspeed

        print(repr(seconds), repr(hostspeed.slowdown()))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


def measure_setup(args) -> float:
    """Median set-up time over fresh processes, at the reference host
    speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({res.returncode}): {res.stderr.strip()}")
        seconds, slowdown = map(float, res.stdout.split())
        samples.append(seconds / slowdown)
    return statistics.median(samples)


def mean_of(rows: list, key, scale: float = 1.0) -> float:
    return statistics.fmean(key(r) * scale for r in rows)


@dataclass
class Timed:
    """One timed round: its outputs, whether spans were recorded, its
    episodes (``tracing.Episode``) and its damped inverses."""

    result: object
    traced: bool
    episodes: list
    damped: int


def at_reference_speed(rounds: list) -> tuple[float, float]:
    """(ticks/s, run time) with every time divided by the host's slowdown
    around it (``hostspeed``). ticks/s is one round's ticks over the sum of
    each episode's median time; the run time is the median over the
    round's runs of each run's median time. A run's time leaves out the
    slowdown probes made inside it."""
    first = rounds[0].episodes
    episode_s = [
        statistics.median(r.episodes[i].seconds / r.episodes[i].slowdown for r in rounds)
        for i in range(len(first))
    ]
    n_runs = len(rounds[0].result.run_s)
    per_run = len(first) // n_runs
    runs = []
    for k in range(n_runs):
        eps = range(k * per_run, (k + 1) * per_run)
        runs.append(statistics.median(
            (r.result.run_s[k] - sum(r.episodes[i].probe_s for i in eps))
            / statistics.fmean(r.episodes[i].slowdown for i in eps)
            for r in rounds
        ))
    return sum(e.ticks for e in first) / sum(episode_s), statistics.median(runs)


def as_measured(rounds: list) -> tuple[float, float]:
    """(ticks/s over all rounds, median slowdown) without any correction."""
    eps = [e for r in rounds for e in r.episodes]
    return (
        sum(e.ticks for e in eps) / sum(e.seconds for e in eps),
        statistics.median(e.slowdown for e in eps),
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    workloads = load_workloads()
    import hostspeed
    import tracing
    from oracle import CheckFailed

    setup_s = None if args.trace else measure_setup(args)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    damped = tracing.DampedInverseCounter()
    damped.attach()
    timer = tracing.EpisodeTimer(hostspeed.slowdown)
    tracer = tracing.Tracer() if args.trace else None
    timed: list[Timed] = []
    error = None
    try:
        workload = make_workload(workloads, args, run_dir)
        workload.warm_up()
        hostspeed.slowdown()

        # Whole rounds until the next one would overrun --seconds; with
        # tracing, untraced and traced rounds alternate so that both see the
        # same host conditions.
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(timed) % 2 == 1
            # the timer goes on top, so that its host-speed probes stay
            # outside the spans
            patches = tracing.Patches()
            if traced:
                tracer.install(patches)
            timer.install(patches)
            round_start, damped_before = time.perf_counter(), damped.count
            try:
                result = workload.run_round()
            finally:
                patches.restore()
            round_s = time.perf_counter() - round_start
            timed.append(Timed(result, traced, timer.take(), damped.count - damped_before))
            if len(timed) >= 1 + args.trace and time.perf_counter() - start + round_s > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # Check the outputs; every timed round must have produced exactly
        # the same ones.
        checked = workload.verify()
        for t in timed:
            if t.result.digests != checked.digests:
                diff = sorted(k for k in checked.digests if t.result.digests.get(k) != checked.digests[k])
                raise CheckFailed(f"outputs differ between rounds: {diff}")
    except CheckFailed as exc:
        error = str(exc)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = sum(t.result.attempted for t in timed)
    failed = sum(t.result.failed for t in timed)
    if error is not None:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}))
        return 1
    attempted += checked.attempted
    failed += checked.failed
    for name, value in checked.digests.items():
        print(f"digest {args.workload} seed={args.seed} {name} {value}")

    if args.trace:
        plain_tps, _ = at_reference_speed([t for t in timed if not t.traced])
        spans = [t for t in timed if t.traced]
        traced_tps, _ = at_reference_speed(spans)
        _, traced_slowdown = as_measured(spans)
        values = tracing.layer_metrics(tracer, sum(e.ticks for t in spans for e in t.episodes), traced_slowdown)
        values["projection.damped_inverses"] = spans[0].damped
        figures = list(checked.metrics.values())
        values.update({
            "controllers.rcm_residual_um": mean_of(figures, lambda m: m["residual_norm_mean"], 1e6),
            "controllers.tip_mae_um": mean_of(figures, lambda m: float(np.linalg.norm(m["tip_mae"])), 1e6),
            "controllers.mean_abs_torque_nm": mean_of(figures, lambda m: m["mean_abs_torque"]),
            "controllers.peak_torque_nm": mean_of(figures, lambda m: m["peak_torque"]),
            "controllers.torque_rate_rms": mean_of(figures, lambda m: m["smoothness"]),
            "trace.overhead_pct": (plain_tps / traced_tps - 1.0) * 100.0,
        })
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.csv"))
        if tracer.missing:
            print(f"untraced (gone from the program): {', '.join(tracer.missing)}", file=sys.stderr)
    else:
        raw_tps, slowdown = as_measured(timed)
        print(f"as measured: {raw_tps:.1f} ticks/s over {len(timed)} rounds, host slowdown {slowdown:.3f}")
        ticks_per_s, run_s = at_reference_speed(timed)
        values = {"setup_s": setup_s, "ticks_per_s": ticks_per_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb}
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
