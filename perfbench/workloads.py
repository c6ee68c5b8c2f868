"""The benchmark's workloads: inputs made from the seed, one round of
operations, and the checks on every output of a round.

A round is always the same list of operations, so every run attempts whole
rounds. ``run_round`` is what gets timed; ``verify`` checks the outputs of a
round against ``oracle`` once timing is over and returns their digests.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import oracle
from oracle import CheckFailed
from rcmsim import cli, harness, sim
from rcmsim.errors import RcmSimError
from rcmsim.robot import load_model
from rcmsim.scenarios import SpiralParams

HOME = np.array([0.0, -np.pi / 4, 0.0, -3 * np.pi / 4, 0.0, np.pi / 2, np.pi / 4])
# The paper's spiral: 20 mm radius, 15 mm pitch, three turns in 20 s on a
# trapezoidal profile. Episodes run a prefix of it, so a round stays a few
# seconds long while every tick does the work of the full episode's ticks.
SPIRAL = oracle.Spiral()
EPISODE_S = 2.0
SWEEP_EPISODE_S = 1.5
SETTLE_S = 1.0
WARM_UP_S = 0.1
# Seeded start state: each joint uniform within this of the home pose [rad].
START_JITTER = 0.02
# Program errors that fail one operation (the others go on).
OP_ERRORS = (RcmSimError, np.linalg.LinAlgError)


@dataclass
class Round:
    """Outputs of one round: a digest and the metrics of every operation,
    the user-visible run times, and the operation counts."""

    digests: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    run_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def spiral_params() -> SpiralParams:
    return SpiralParams(
        radius=SPIRAL.radius,
        pitch=SPIRAL.pitch,
        duration=SPIRAL.duration,
        turns=SPIRAL.turns,
        accel_fraction=SPIRAL.accel_fraction,
    )


def start_state(rng: np.random.Generator) -> np.ndarray:
    return HOME + rng.uniform(-START_JITTER, START_JITTER, HOME.size)


@dataclass(frozen=True)
class Case:
    """One in-process episode: controller, insertion depth, start state."""

    name: str
    controller: str
    alpha: float
    q_init: np.ndarray


class InProcess:
    """Episodes run through ``sim.run_episode`` and ``harness.compute_metrics``
    in this process; nothing is written to disk."""

    def __init__(self, model_path: str, cases: list[Case]):
        self.model = load_model(model_path)
        self.chain = oracle.Chain.from_json(model_path)
        self.cases = cases

    def warm_up(self):
        for controller in dict.fromkeys(c.controller for c in self.cases):
            sim.run_episode(
                self.model, sim.ControlSetup(variant=controller),
                sim.Scenario(alpha=0.5, spiral=spiral_params()), sim.SimConfig(duration=WARM_UP_S),
            )

    def run_round(self, check: bool = False) -> Round:
        out = Round()
        for case in self.cases:
            out.attempted += 1
            start = time.perf_counter()
            try:
                trace = sim.run_episode(
                    self.model,
                    sim.ControlSetup(variant=case.controller),
                    sim.Scenario(alpha=case.alpha, spiral=spiral_params(), q_init=case.q_init.copy()),
                    sim.SimConfig(duration=EPISODE_S),
                )
                metrics = harness.compute_metrics(trace, SETTLE_S).to_dict()
            except OP_ERRORS as exc:
                out.failed += 1
                out.digests[case.name] = f"failed: {exc}"
                continue
            out.run_s.append(time.perf_counter() - start)
            m = trace.filled
            out.digests[case.name] = oracle.digest(
                trace.t[:m], trace.q[:m], trace.qd[:m], trace.qdd[:m], trace.tau[:m],
                trace.tau_ext[:m], trace.tau_ext_hat[:m], trace.tip[:m], trace.ref[:m],
                trace.p_r[:m], trace.p_c[:m], trace.res2d[:m], trace.res3d[:m],
                trace.p_rcm[:m], trace.constraint_gap[:m],
            )
            out.metrics[case.name] = metrics
            if check:
                self.check(case, trace, metrics)
        return out

    def verify(self) -> Round:
        """Run the round once more, checking every output as it comes (the
        traces live only in memory)."""
        return self.run_round(check=True)

    def check(self, case: Case, trace, metrics: dict):
        ex = oracle.Expect(case.name, case.controller, SPIRAL, oracle.Trocar(case.alpha))
        if trace.filled != int(round(EPISODE_S / ex.dt)) + 1:
            raise CheckFailed(f"{case.name}: {trace.filled} ticks recorded")
        poses = oracle.check_geometry(self.chain, ex, trace)
        oracle.check_semi_implicit(ex, trace, with_qdd=True)
        oracle.check_dynamics(self.chain, ex, trace)
        if case.controller in ("p_approach", "uk"):
            oracle.check_constraint_gap(ex, trace)
        if case.controller in ("p_approach", "z_approach"):
            oracle.check_tracking(ex, trace, poses)
        oracle.check_figures(case.name, metrics, oracle.metric_figures(trace, SETTLE_S))


def spiral_depths(model_path: str, out_dir: str, seed: int) -> InProcess:
    """p_approach at the three insertion depths (criterion 5's episode)."""
    rng = np.random.default_rng(seed)
    return InProcess(model_path, [
        Case(f"p_approach_alpha{alpha}", "p_approach", alpha, start_state(rng))
        for alpha in (0.25, 0.5, 0.75)
    ])


def baseline_controllers(model_path: str, out_dir: str, seed: int) -> InProcess:
    """The two baseline controllers at alpha = 0.5."""
    rng = np.random.default_rng(seed)
    return InProcess(model_path, [
        Case(f"{controller}_alpha0.5", controller, 0.5, start_state(rng))
        for controller in ("z_approach", "uk")
    ])


# Observer gain of the run configs (their default) [1/s].
OBSERVER_GAIN = 50.0
JOINT_STEP = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
LINK2_PUSH = [0.0, 10.0, 0.0]


def sweep_configs(rng: np.random.Generator, seed: int) -> tuple[dict, dict]:
    """The interaction scenarios as JSON run configs, with the benchmark's
    own description of each (``oracle.Expect``) for the checks."""
    configs, expect = {}, {}

    def add(name, scenario, sim_section=None, trocar=oracle.Trocar(0.5), step=None):
        configs[name] = {
            "controller": "p_approach",
            "settle_time": SETTLE_S,
            "scenario": {"alpha": trocar.alpha, "q_init": start_state(rng).tolist(), **scenario},
            "sim": {"duration": SWEEP_EPISODE_S, **(sim_section or {})},
        }
        semi = (sim_section or {}).get("integrator", "semi_implicit") == "semi_implicit"
        expect[name] = oracle.Expect(
            name, "p_approach", SPIRAL, trocar, semi_implicit=semi, settle=SETTLE_S,
            torque_step=step, observer_gain=OBSERVER_GAIN,
        )

    # Push on link 2 while the tool tracks; the observer rejects only what
    # would move the tip or the pivot, so the arm yields in its null space.
    t_push = round(0.5 + 1e-3 * int(rng.integers(0, 100)), 3)
    add("push_link2", {
        "observer": True, "compensation": "preserve_null", "nullspace": True,
        "disturbances": [{"t0": t_push, "t1": t_push + 0.8, "link2_force": LINK2_PUSH}],
    })
    # Constant joint-torque step with full compensation. Until the observer
    # converges (20 ms) the step acts on the tip, whose loop rings at about
    # 1 Hz with little damping under the pivot constraint; the step starts
    # early so that the ringing has decayed below criterion 5's tip bound
    # over the settled window.
    t_step = round(0.1 + 1e-3 * int(rng.integers(0, 100)), 3)
    add("torque_step", {
        "observer": True, "compensation": "full",
        "disturbances": [{"t0": t_step, "t1": 10.0, "joint_torque": JOINT_STEP}],
    }, step=(t_step, 10.0, JOINT_STEP))
    moving = oracle.Trocar(0.5, amplitude=0.04, frequency=0.2)
    add("moving_trocar", {
        "trocar": {"mode": "sinusoidal", "amplitude": moving.amplitude, "frequency": moving.frequency},
    }, trocar=moving)
    add("soft_port_rk4", {}, {"integrator": "rk4", "env": {"mode": "soft"}})
    add("sensor_noise", {}, {"sensor_noise_std": 1e-5, "noise_seed": seed})
    return configs, expect


class Sweep:
    """JSON run configs through the ``rcmsim sweep`` path (one job): parse,
    run, write trace.csv, metrics.json and the comparison, then read every
    trace back and recompute its metrics, as ``rcmsim metrics`` does."""

    def __init__(self, model_path: str, out_dir: str, seed: int):
        self.model = load_model(model_path)
        self.chain = oracle.Chain.from_json(model_path)
        self.config_dir = os.path.join(out_dir, "configs")
        self.out_dir = os.path.join(out_dir, "runs")
        os.makedirs(self.config_dir, exist_ok=True)
        self.configs, self.expect = sweep_configs(np.random.default_rng(seed), seed)
        for name, cfg in self.configs.items():
            with open(os.path.join(self.config_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=2)

    def warm_up(self):
        sim.run_episode(
            self.model, sim.ControlSetup(observer=True),
            sim.Scenario(alpha=0.5, spiral=spiral_params()), sim.SimConfig(duration=WARM_UP_S),
        )

    def run_round(self) -> Round:
        out = Round(attempted=len(self.configs))
        start = time.perf_counter()
        code = cli.main(["sweep", "--configs", self.config_dir, "--out", self.out_dir, "--jobs", "1"])
        out.run_s.append(time.perf_counter() - start)
        self._read_back(out, check=False)
        if code != 0 and out.failed == 0:
            raise CheckFailed(f"rcmsim sweep exited with {code} although every run reports ok")
        return out

    def verify(self) -> Round:
        """Check the files the last round left on disk."""
        out = Round()
        self._read_back(out, check=True)
        return out

    def _read_back(self, out: Round, check: bool):
        with open(os.path.join(self.out_dir, "results.json"), "r", encoding="utf-8") as fh:
            status = {r["label"]: r["status"] for r in json.load(fh)}
        for name in self.configs:
            if status.get(name) != "ok":
                out.failed += 1
                out.digests[name] = f"failed: {status.get(name)}"
                continue
            run_dir = os.path.join(self.out_dir, name)
            table = sim.read_trace_csv(os.path.join(run_dir, "trace.csv"))
            recomputed = harness.compute_metrics(table, SETTLE_S).to_dict()
            with open(os.path.join(run_dir, "metrics.json"), "rb") as fh:
                saved_bytes = fh.read()
            with open(os.path.join(run_dir, "trace.csv"), "rb") as fh:
                out.digests[name] = oracle.digest(fh.read(), saved_bytes)
            saved = json.loads(saved_bytes)
            out.metrics[name] = saved
            if check:
                self.check(name, table, saved, recomputed)
        with open(os.path.join(self.out_dir, "comparison.json"), "rb") as fh:
            comparison = fh.read()
        out.digests["comparison"] = oracle.digest(comparison)
        if check and len(out.metrics) == len(self.configs):
            self.check_comparison(json.loads(comparison), out.metrics)

    def check(self, name: str, table, saved: dict, recomputed: dict):
        ex = self.expect[name]
        if table.filled != int(round(SWEEP_EPISODE_S / ex.dt)) + 1:
            raise CheckFailed(f"{name}: {table.filled} ticks in trace.csv")
        poses = oracle.check_geometry(self.chain, ex, table)
        if ex.semi_implicit:
            oracle.check_semi_implicit(ex, table, with_qdd=False)
        oracle.check_tracking(ex, table, poses)
        if ex.torque_step is not None:
            oracle.check_observer(ex, table)
        oracle.check_saved_metrics(name, saved, recomputed)
        oracle.check_figures(name, saved, oracle.metric_figures(table, ex.settle))

    def check_comparison(self, table: dict, metrics: dict):
        rows = {row["label"]: row for row in table["rows"]}
        if sorted(rows) != sorted(metrics):
            raise CheckFailed(f"comparison rows {sorted(rows)} != runs {sorted(metrics)}")
        for label, saved in metrics.items():
            for key, value in saved.items():
                if rows[label][key] != value:
                    raise CheckFailed(f"comparison row {label}: {key} differs from its metrics.json")


WORKLOADS = {
    "spiral_depths": spiral_depths,
    "baseline_controllers": baseline_controllers,
    "interaction_sweep": Sweep,
}
