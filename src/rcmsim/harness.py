"""Run configuration, metrics and the scenario-matrix runner.

Configs are plain JSON (strict: unknown keys are rejected with the dotted
field path). The ``scenario`` section is a ``sim.Scenario`` plus three
control switches and the ``sim`` section a ``SimConfig``; ``build`` hands
both to ``run_episode`` as loaded, so the duration, alpha, joint-vector and
gain-default rules and their messages are the library's. Metrics are pure
functions of the trace, so recomputing them from an exported CSV reproduces
the metrics file exactly.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import controllers as ctl
from .errors import ConfigError, SimulationDiverged
from .rcm import ALPHA
from .robot import RobotModel, default_model_path, load_model
from .schema import NON_NEGATIVE, Rule, Schema, fail, naming_file, read_json, setting
from .sim import (
    ControlSetup,
    Scenario,
    SimConfig,
    check_joint_vectors,
    run_duration,
    run_episode,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

# Start of the settled window the metrics average over [s], unless a run
# config or ``rcmsim metrics --settle`` says otherwise.
SETTLE_TIME = 1.0


# --- configuration ---------------------------------------------------------


# Null-space stiffness of the compliance experiment [N m/rad]: a config's
# ``gains.kp_null`` when ``scenario.nullspace`` is true and it gives none.
COMPLIANCE_KP_NULL = 5.0


@dataclass
class GainsConfig(Schema):
    """One number per gain, as ``controllers.GainSet`` holds them.

    The defaults are the library's (``controllers.KP_TASK`` and the rest), so
    a config with ``scenario.nullspace`` false runs the gains of a default
    ``ControlSetup``. ``kp_null`` is set only with ``scenario.nullspace``
    (null there: ``COMPLIANCE_KP_NULL``); without it the arm has no
    null-space stiffness. Null derivative gains take
    ``GainSet.from_proportional``'s defaults: 2 sqrt(kp), and for
    ``kd_null`` with no null-space stiffness ``controllers.NULL_DAMPING``.
    """

    kp_task: float = setting(ctl.KP_TASK, NON_NEGATIVE)
    kd_task: float | None = setting(None, NON_NEGATIVE)
    kp_rcm: float = setting(ctl.KP_RCM, NON_NEGATIVE)
    kd_rcm: float | None = setting(None, NON_NEGATIVE)
    kp_null: float | None = setting(None, NON_NEGATIVE)
    kd_null: float | None = setting(None, NON_NEGATIVE)
    observer_gain: float = setting(ctl.OBSERVER_GAIN, NON_NEGATIVE)


@dataclass
class ScenarioConfig(Scenario):
    """A run config's scenario: the episode's ``Scenario`` with ``alpha``
    required, plus the control switches the JSON keeps in this section.
    ``build`` passes it to ``run_episode`` as it is."""

    alpha: float = setting(rule=ALPHA)
    observer: bool = False
    compensation: str = setting(ctl.COMP_FULL, ctl.COMPENSATION)
    nullspace: bool = False


@functools.cache
def _load_model(model_path: str | None) -> RobotModel:
    """The model at ``model_path``, loaded once for ``check`` and every ``build``."""
    return load_model(model_path or default_model_path())


@dataclass
class RunConfig(Schema):
    """Serializable description of one closed-loop run."""

    controller: str = setting(rule=ctl.VARIANT)
    scenario: ScenarioConfig
    label: str = setting("", Rule(
        lambda v: v not in (".", "..") and "/" not in v and "\\" not in v,
        "must be a plain directory name: no '/' or '\\', not '.' or '..'",
    ))
    model: str | None = setting(
        None, Rule(os.path.exists, "file not found: {value}"), kind="a path string"
    )
    gains: GainsConfig = field(default_factory=GainsConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    settle_time: float = setting(SETTLE_TIME, NON_NEGATIVE)

    def check(self, path: str):
        sc = self.scenario
        if self.settle_time >= run_duration(self.sim, sc.spiral):
            fail("settle_time", "must be smaller than the run duration")
        try:
            n = _load_model(self.model).n
        except ConfigError as exc:
            fail("model", str(exc))
        if self.gains.kp_null is not None and not sc.nullspace:
            fail("gains.kp_null", "must be null when scenario.nullspace is false")
        check_joint_vectors(n, sc)

    def build(self):
        """Materialize (model, control setup, scenario, sim config); the
        scenario and the sim config are the loaded sections themselves."""
        model = _load_model(self.model)
        sc, g = self.scenario, self.gains
        kp_null = (COMPLIANCE_KP_NULL if g.kp_null is None else g.kp_null) if sc.nullspace else 0.0
        gains = ctl.GainSet.from_proportional(**(vars(g) | {"kp_null": kp_null}))
        control = ControlSetup(
            variant=self.controller, gains=gains, observer=sc.observer, compensation=sc.compensation
        )
        return model, control, sc, self.sim


def config_from_dict(data: dict, label_hint: str = "") -> RunConfig:
    """Strict parse with defaults; raises ConfigError naming the bad field."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = RunConfig.from_dict(data)
    cfg.label = cfg.label or label_hint or cfg.controller
    cfg.validate()
    return cfg


def parse_config(path: str) -> RunConfig:
    """The run config in the JSON file at ``path``, labelled after the file;
    a field error names the file."""
    data = read_json(path)
    with naming_file(path, "config"):
        return config_from_dict(data, label_hint=os.path.splitext(os.path.basename(path))[0])


# --- metrics ----------------------------------------------------------------


@dataclass(frozen=True)
class MetricsRecord(Schema):
    """Table-style summary of one run (settle-time transient excluded).

    Two mean-absolute-torque conventions are emitted because the averaging
    axis is ambiguous in common reporting: ``mean_abs_torque`` averages over
    joints and time; ``mean_abs_torque_per_joint`` is the per-joint time
    average. ``peak_torque`` is max over joints and time of |tau_i|;
    ``peak_total_torque`` is the alternative max over time of sum_i |tau_i|.
    """

    tip_mae: list[float]
    residual_mae: list[float]
    residual_norm_mean: float
    mean_abs_torque: float
    mean_abs_torque_per_joint: list[float]
    peak_torque: float
    peak_total_torque: float
    total_torque_consumption: float
    smoothness: float
    settle_time: float


def compute_metrics(trace, settle_time: float = SETTLE_TIME) -> MetricsRecord:
    """Tracking, residual and torque statistics over t >= settle_time."""
    m = trace.filled
    if m == 0:
        raise ConfigError("empty trace")
    t = trace.t[:m]
    if not NON_NEGATIVE.ok(settle_time):  # the run config's rule; NaN fails it too
        fail("settle_time", NON_NEGATIVE.message)
    if settle_time >= t[-1]:
        fail("settle_time", "must be smaller than the trace duration")
    sel = t >= settle_time
    tip_err = np.abs(trace.tip[:m][sel] - trace.ref[:m][sel])
    res = trace.res2d[:m][sel]
    tau = trace.tau[:m][sel]
    dt = float(t[1] - t[0]) if m > 1 else 1.0
    dtau = np.diff(tau, axis=0) / dt
    return MetricsRecord(
        tip_mae=tip_err.mean(axis=0).tolist(),
        residual_mae=np.abs(res).mean(axis=0).tolist(),
        residual_norm_mean=float(np.linalg.norm(res, axis=1).mean()),
        mean_abs_torque=float(np.abs(tau).mean()),
        mean_abs_torque_per_joint=np.abs(tau).mean(axis=0).tolist(),
        peak_torque=float(np.abs(tau).max()),
        peak_total_torque=float(np.abs(tau).sum(axis=1).max()),
        total_torque_consumption=float(np.abs(tau).sum(axis=1).mean()),
        smoothness=float(np.sqrt(np.mean(dtau * dtau))) if dtau.size else 0.0,
        settle_time=settle_time,
    )


_RATIO_FIELDS = (
    "peak_torque",
    "peak_total_torque",
    "mean_abs_torque",
    "total_torque_consumption",
    "residual_norm_mean",
    "smoothness",
)


def compare_runs(entries: list[tuple[str, MetricsRecord]]) -> dict:
    """Aligned comparison with ratios relative to the first entry.

    Returns a dict with ``rows`` (one per run: label, metrics, ratio fields
    named ``<metric>_ratio``) ready for JSON or text rendering. A ratio over
    a zero baseline metric is None (JSON null).
    """
    if len(entries) < 1:
        raise ValueError("compare_runs needs at least one labelled metrics record")
    base = entries[0][1]
    rows = []
    for label, rec in entries:
        row = {"label": label, **rec.to_dict()}
        row["tip_mae_norm"] = float(np.linalg.norm(rec.tip_mae))
        for name in _RATIO_FIELDS:
            denom = getattr(base, name)
            row[f"{name}_ratio"] = float(getattr(rec, name) / denom) if denom else None
        rows.append(row)
    return {"baseline": entries[0][0], "rows": rows}


def render_comparison(table: dict) -> str:
    """Fixed-width text table of the comparison dict; a missing ratio reads -."""
    cols = [
        ("label", "%s"),
        ("tip_mae_norm", "%.6g"),
        ("residual_norm_mean", "%.6g"),
        ("mean_abs_torque", "%.6g"),
        ("peak_torque", "%.6g"),
        ("peak_total_torque", "%.6g"),
        ("smoothness", "%.6g"),
        ("peak_torque_ratio", "%.4f"),
        ("mean_abs_torque_ratio", "%.4f"),
    ]
    header = [name for name, _ in cols]
    body = [["-" if row[name] is None else fmt % row[name] for name, fmt in cols]
            for row in table["rows"]]
    widths = [max(len(h), *(len(r[i]) for r in body)) for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for r in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


# --- matrix runner ----------------------------------------------------------


def _run_record(trace, wall_s: float) -> dict:
    """What a run cost and how close it came to failing: its recorded ticks,
    wall time, throughput, damped task-inertia inverses and largest
    constraint gap |Jc qddot - commanded|."""
    m = trace.filled
    return {
        "ticks": m,
        "wall_s": wall_s,
        "ticks_per_s": m / wall_s,
        "damped_inverses": int(trace.damped[:m].sum()),
        "max_constraint_gap": float(trace.constraint_gap[:m].max(initial=0.0)),
    }


def _execute(cfg: RunConfig, out_dir: str) -> dict:
    """Run one config, write artifacts, return a result summary dict."""
    model, control, scenario, sim = cfg.build()
    run_dir = os.path.join(out_dir, cfg.label)
    os.makedirs(run_dir, exist_ok=True)
    result = {"label": cfg.label, "status": "ok", "run_dir": run_dir}
    start = time.perf_counter()
    try:
        trace = run_episode(model, control, scenario, sim)
    except SimulationDiverged as exc:
        result |= _run_record(exc.trace, time.perf_counter() - start)
        result["status"] = "diverged"
        result["detail"] = str(exc)
        result["tick"] = exc.tick
        if exc.trace.filled > 0:
            exc.trace.to_csv(os.path.join(run_dir, "trace.csv"))
        return result
    result |= _run_record(trace, time.perf_counter() - start)
    trace.to_csv(os.path.join(run_dir, "trace.csv"))
    metrics = compute_metrics(trace, cfg.settle_time)
    with open(os.path.join(run_dir, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(metrics.to_dict(), fh, indent=2)
        fh.write("\n")
    result["metrics"] = metrics.to_dict()
    return result


def run_matrix(configs: list[RunConfig], out_dir: str, jobs: int = 1) -> int:
    """Execute all runs, write per-run artifacts plus a combined comparison.

    Divergence in one run does not abort the siblings; the exit status is 3
    if any run diverged, else 0. Aggregation order follows config order.
    """
    labels = [c.label for c in configs]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ConfigError(f"duplicate run label {label!r} in the config set")
    os.makedirs(out_dir, exist_ok=True)
    # a fork-started pool starts all its workers at the first submit
    workers = min(jobs, len(configs))
    if workers > 1:
        # imported here: multiprocessing costs every other run its import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_execute, configs, [out_dir] * len(configs)))
    else:
        results = [_execute(cfg, out_dir) for cfg in configs]

    entries = []
    for cfg, res in zip(configs, results):
        if res["status"] == "ok":
            entries.append((cfg.label, MetricsRecord.from_dict(res["metrics"])))
        else:
            logger.error("run %s diverged: %s", cfg.label, res.get("detail", ""))
    if entries:
        table = compare_runs(entries)
        with open(os.path.join(out_dir, "comparison.json"), "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=2)
            fh.write("\n")
        with open(os.path.join(out_dir, "comparison.txt"), "w", encoding="utf-8") as fh:
            fh.write(render_comparison(table) + "\n")
    with open(os.path.join(out_dir, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    return EXIT_DIVERGED if any(r["status"] != "ok" for r in results) else EXIT_OK
