"""Fixed-step closed-loop simulation with trace recording.

The plant integrates the free rigid-body dynamics; the pivot constraint is
enforced by the controller torque (matching a torque-controlled arm), with an
optional visco-elastic port model adding a lateral restoring force at the
trocar. Control rate equals the simulation rate; by default the controller
sees the exact simulated state (seeded sensor noise available as an option).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import controllers as ctl
from .controllers import ControlSetup
from .errors import SimulationDiverged
from .rcm import RcmMode, TrocarState, constraint_from_kin, place_trocar, residual
from .robot import DEFAULT_HOME, JointState, KinFrames, RobotModel
from .robot import kinematics as kinematics_of
from .scenarios import (
    TROCAR_STATIC,
    DisturbanceSchedule,
    SpiralParams,
    TaskReference,
    TrocarSchedule,
    disturbance_eval,
    spiral_reference,
    trocar_schedule_eval,
)
from .schema import NON_NEGATIVE, POSITIVE, Rule, Schema, fail, join, length, setting

SEMI_IMPLICIT = "semi_implicit"
RK4 = "rk4"

ENV_OFF = "off"
ENV_SOFT = "soft"


@dataclass
class EnvModel(Schema):
    """Linear visco-elastic lateral force at the trocar (r-frame plane).

    Stand-in for a penetrable soft port: f = -K x - D xdot on the 2D pivot
    residual, mapped to joint torques through the 2D constraint Jacobian
    transpose. Defaults give 0.2 mm steady penetration under 1 N lateral load.
    """

    mode: str = setting(
        ENV_OFF, Rule(lambda v: v in (ENV_OFF, ENV_SOFT), "must be 'off' or 'soft'")
    )
    stiffness: float = 5000.0
    damping: float = 50.0

    def check(self, path: str):
        if self.stiffness < 0 or self.damping < 0:
            fail(path, "gains must be non-negative")


def environment_force(x2d: np.ndarray, xdot2d: np.ndarray, env: EnvModel) -> np.ndarray:
    """Lateral port force on the tool at the trocar, r-frame plane [N].

    ``env`` is validated once by the caller (``run_episode`` validates it
    with the sim config), not on every tick.
    """
    if env.mode == ENV_OFF:
        return np.zeros(2)
    return -env.stiffness * np.asarray(x2d) - env.damping * np.asarray(xdot2d)


def port_torque(kin: KinFrames, qdot: np.ndarray, trocar: TrocarState, env: EnvModel) -> np.ndarray:
    """Joint torque of the port force: ``environment_force`` on the 2D pivot
    residual at the frame pass ``kin``, through the residual Jacobian."""
    cs = constraint_from_kin(kin, qdot, trocar, RcmMode.TWO_D)
    return cs.J.T @ environment_force(cs.x, cs.xdot, env)


@dataclass
class SimConfig(Schema):
    """Integration settings plus optional feedback imperfection.

    ``sensor_noise_std`` adds seeded zero-mean Gaussian noise to the joint
    positions the controller sees (the plant and the trace keep the true
    state). Default off; runs stay bit-reproducible because the stream is
    seeded per episode.
    """

    dt: float = setting(1e-3, POSITIVE)
    duration: float = 20.0
    integrator: str = setting(
        SEMI_IMPLICIT, Rule(lambda v: v in (SEMI_IMPLICIT, RK4), "must be 'semi_implicit' or 'rk4'")
    )
    env: EnvModel = field(default_factory=EnvModel)
    sensor_noise_std: float = setting(0.0, NON_NEGATIVE)
    noise_seed: int = setting(0, NON_NEGATIVE)

    def check(self, path: str):
        if self.duration is not None and self.duration < self.dt:
            fail(join(path, "duration"), "must cover at least one step")


ALPHA = Rule(lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")


@dataclass
class Scenario(Schema):
    """Episode description: trajectory, trocar, disturbances, start state."""

    alpha: float = setting(0.5, ALPHA)
    spiral: SpiralParams = field(default_factory=SpiralParams)
    trocar: TrocarSchedule = field(default_factory=TrocarSchedule)
    disturbances: DisturbanceSchedule = field(default_factory=DisturbanceSchedule)
    q_init: np.ndarray | None = None


def check_joint_vectors(n: int, q_init, q_path: str, events: list, events_path: str):
    """``q_init`` and every joint-torque disturbance hold one finite entry
    per joint."""
    rule = length(n)
    vectors = [(q_path, q_init)] + [
        (f"{events_path}[{i}].joint_torque", event.joint_torque) for i, event in enumerate(events)
    ]
    for path, vector in vectors:
        if vector is None:
            continue
        if not rule.ok(vector):
            fail(path, rule.message)
        if not np.isfinite(vector).all():
            fail(path, "must be finite")


def check_trocar_support(path: str, variant: str, trocar: TrocarSchedule):
    """The extended-Jacobian controller handles a static trocar only."""
    if variant == ctl.Z_APPROACH and trocar.mode != TROCAR_STATIC:
        fail(join(path, "trocar.mode"),
             "the extended-Jacobian controller supports static trocars only")


def check_mode_support(path: str, variant: str, mode: RcmMode | None):
    """The extended-Jacobian controller needs the 2D residual: with the 3D
    one its constrained tip inertia is singular."""
    if variant == ctl.Z_APPROACH and mode is RcmMode.THREE_D:
        fail(path, "the extended-Jacobian controller supports the 2D residual only")


def _trace_columns(n: int) -> list[tuple[str, list[str]]]:
    """The trace CSV layout: (trace attribute, its column names) in file order."""

    def xyz(prefix, axes="xyz"):
        return [f"{prefix}_{a}" for a in axes]

    def joints(prefix):
        return [f"{prefix}{i + 1}" for i in range(n)]

    return [
        ("t", ["t"]),
        ("q", joints("q")),
        ("qd", joints("qd")),
        ("tau", joints("tau")),
        ("tip", xyz("tip")),
        ("ref", xyz("ref")),
        ("p_r", xyz("pr")),
        ("p_c", xyz("pc")),
        ("res2d", xyz("res2d", "xy")),
        ("res3d", xyz("res3d")),
        ("p_rcm", xyz("prcm")),
        ("tau_ext", joints("tauext")),
        ("tau_ext_hat", joints("tauexthat")),
    ]


class SimTrace:
    """Pre-allocated, uniformly sampled record of one episode.

    Record count is floor(duration/dt) + 1; timestamps are i*dt exactly.
    ``filled`` marks how many records are valid (less than capacity only when
    an episode diverges and a partial trace is returned).
    """

    def __init__(self, n_joints: int, records: int, dt: float):
        self.n = n_joints
        self.capacity = records
        self.dt = dt
        self.filled = 0
        self.t = np.zeros(records)
        self.q = np.zeros((records, n_joints))
        self.qd = np.zeros((records, n_joints))
        self.tau = np.zeros((records, n_joints))
        self.tau_ext = np.zeros((records, n_joints))
        self.tau_ext_hat = np.zeros((records, n_joints))
        self.tip = np.zeros((records, 3))
        self.ref = np.zeros((records, 3))
        self.p_r = np.zeros((records, 3))
        self.p_c = np.zeros((records, 3))
        self.res2d = np.zeros((records, 2))
        self.res3d = np.zeros((records, 3))
        self.p_rcm = np.zeros((records, 3))
        # Diagnostics kept in memory only (not part of the CSV contract):
        # damped counts the tick's damped task-inertia inverses.
        self.qdd = np.zeros((records, n_joints))
        self.constraint_gap = np.zeros(records)
        self.damped = np.zeros(records, dtype=np.int8)

    def header(self) -> list[str]:
        return [name for _, names in _trace_columns(self.n) for name in names]

    def table(self) -> np.ndarray:
        m = self.filled
        return np.concatenate(
            [getattr(self, attr)[:m].reshape(m, -1) for attr, _ in _trace_columns(self.n)], axis=1
        )

    def to_csv(self, path: str):
        """One row per tick; floats printed with 17 significant digits so the
        file round-trips bit-exactly."""
        np.savetxt(
            path,
            self.table(),
            fmt="%.17g",
            delimiter=",",
            header=",".join(self.header()),
            comments="",
        )


class TraceTable:
    """Column view over a trace CSV; quacks like SimTrace for metrics."""

    def __init__(self, header: list[str], data: np.ndarray):
        idx = {name: i for i, name in enumerate(header)}
        self.n = sum(1 for name in header if name.startswith("q") and name[1:].isdigit())
        self.filled = data.shape[0]
        for attr, names in _trace_columns(self.n):
            setattr(self, attr, data[:, [idx[c] for c in names]])
        self.t = self.t[:, 0]


def read_trace_csv(path: str) -> TraceTable:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return TraceTable(header, data)


def step(
    model: RobotModel,
    state: JointState,
    tau: np.ndarray,
    tau_ext: np.ndarray,
    dt: float,
    integrator: str = SEMI_IMPLICIT,
    env: EnvModel | None = None,
    trocar: TrocarState | None = None,
    qdd: np.ndarray | None = None,
) -> JointState:
    """Advance the plant one control period under zero-order-hold torque.

    ``tau_ext`` holds the scripted external torque for the step; the port
    force (env soft mode) is state dependent and recomputed per RK4 stage.
    ``qdd`` is the acceleration at ``state`` under these inputs when the
    caller has it (the tick computes it from its own frame pass); otherwise
    one frame pass gives it. Each later RK4 stage builds one frame pass, which
    gives M, h and the port force. The caller checks the new state.
    """
    if not POSITIVE.ok(dt):
        fail("dt", POSITIVE.message)
    port = env is not None and env.mode != ENV_OFF and trocar is not None

    def accel(q, qd):
        kin = kinematics_of(model, q, qd)
        load = tau + tau_ext - kin.h
        if port:
            load = load + port_torque(kin, qd, trocar, env)
        return np.linalg.solve(kin.M, load)

    if qdd is None:
        qdd = accel(state.q, state.qdot)
    if integrator == SEMI_IMPLICIT:
        qd_new = state.qdot + dt * qdd
        return JointState(state.q + dt * qd_new, qd_new)
    if integrator != RK4:
        raise ValueError(f"unknown integrator {integrator!r}")
    k1q, k1v = state.qdot, qdd
    k2q = state.qdot + 0.5 * dt * k1v
    k2v = accel(state.q + 0.5 * dt * k1q, k2q)
    k3q = state.qdot + 0.5 * dt * k2v
    k3v = accel(state.q + 0.5 * dt * k2q, k3q)
    k4q = state.qdot + dt * k3v
    k4v = accel(state.q + dt * k3q, k4q)
    return JointState(
        state.q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q),
        state.qdot + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v),
    )


@np.errstate(over="ignore", invalid="ignore")
def run_episode(
    model: RobotModel,
    control: ControlSetup,
    scenario: Scenario,
    sim: SimConfig,
) -> SimTrace:
    """Closed-loop episode at control rate = simulation rate.

    Raises SimulationDiverged (carrying the partial trace and the tick index)
    if the state or the controller output becomes non-finite. A diverging run
    overflows before that; numpy stays quiet, and the tick reports it.
    """
    sim.validate("sim")
    scenario.validate("scenario")
    check_joint_vectors(model.n, scenario.q_init, "scenario.q_init",
                        scenario.disturbances.events, "scenario.disturbances.events")
    check_trocar_support("scenario", control.variant, scenario.trocar)
    check_mode_support("control.rcm_mode", control.variant, control.rcm_mode)
    q0 = DEFAULT_HOME.copy() if scenario.q_init is None else np.asarray(scenario.q_init, dtype=float)
    state = JointState(q0.copy(), np.zeros(model.n))

    kin0 = kinematics_of(model, q0)
    p_c0 = place_trocar(kin0.pose_r.p, kin0.pose_t.p, scenario.alpha)
    spiral = replace(scenario.spiral, start=kin0.pose_t.p.copy())
    trocar_sched = replace(scenario.trocar, p0=p_c0)

    mode = control.rcm_mode
    dt = sim.dt
    records = int(np.floor(sim.duration / dt)) + 1
    trace = SimTrace(model.n, records, dt)

    obs = (
        ctl.ObserverState.initial(model, state, control.gains.observer_gain)
        if control.observer
        else None
    )
    carry: ctl.ZCarry | None = None
    noise = (
        np.random.default_rng(sim.noise_seed) if sim.sensor_noise_std > 0 else None
    )
    # 3D residual set-point: lateral components zero (trocar starts on the
    # axis); the axial component holds its initial value so the regulation
    # does not command the reference frame onto the port.
    x_c_ref = residual(kin0.pose_r, p_c0, mode) if mode is RcmMode.THREE_D else None

    trace.t[:] = np.arange(records) * dt
    refs = spiral_reference(trace.t, spiral)
    trocars = trocar_schedule_eval(trace.t, trocar_sched)
    trace.ref[:] = refs.x
    trace.p_c[:] = trocars.p

    tau_prev = None
    for k in range(records):
        t = k * dt
        trocar = TrocarState(trocars.p[k], trocars.pdot[k], trocars.pddot[k])
        ref = TaskReference(refs.x[k], refs.xdot[k], refs.xddot[k])
        if noise is None:
            meas = state
        else:
            meas = JointState(
                state.q + sim.sensor_noise_std * noise.standard_normal(model.n),
                state.qdot,
            )
        snap = ctl.build_snapshot(model, meas, trocar, mode)
        # Observer update for the period that just ended, at the true state
        # (the snapshot's frame pass when the controller sees that state).
        kin_true = snap.kin if noise is None else kinematics_of(model, state.q, state.qdot)
        if obs is not None and tau_prev is not None:
            obs = ctl.observer_step(obs, model, state, tau_prev, dt, kin=kin_true)
        tau_hat = obs.tau_ext_hat if obs is not None else None

        out, carry = ctl.control_torque(control, snap, ref, q0, tau_hat, x_c_ref, carry)
        if not np.isfinite(out.tau).all():
            trace.filled = k
            raise SimulationDiverged(k, t, "non-finite controller torque", trace)

        tau_dist = disturbance_eval(t, scenario.disturbances, model, kin_true)
        if sim.env.mode == ENV_SOFT:
            tau_ext = tau_dist + port_torque(kin_true, state.qdot, trocar, sim.env)
        else:
            tau_ext = tau_dist

        if noise is None:
            # the snapshot holds M^-1 and h at the true state
            qdd = snap.Minv.dot(out.tau + tau_ext - snap.h)
        else:
            qdd = np.linalg.solve(kin_true.M, out.tau + tau_ext - kin_true.h)
        gap = snap.constraint.J.dot(qdd) - out.constraint_accel_cmd

        # Record tick k (true plant state, not the measured one).
        pose_r, p_t = kin_true.pose_r, kin_true.pose_t.p
        trace.q[k] = state.q
        trace.qd[k] = state.qdot
        trace.tau[k] = out.tau
        trace.tau_ext[k] = tau_ext
        if obs is not None:
            trace.tau_ext_hat[k] = obs.tau_ext_hat
        trace.tip[k] = p_t
        trace.p_r[k] = pose_r.p
        res3 = pose_r.R.T.dot(pose_r.p - trocar.p)
        trace.res2d[k] = res3[:2]
        trace.res3d[k] = res3
        # rcm_point: the tool axis is z_r, and z_r . (p_r - p_c) is res3[2]
        trace.p_rcm[k] = pose_r.p - res3[2] * pose_r.R[:, 2]
        trace.qdd[k] = qdd
        trace.constraint_gap[k] = np.sqrt(gap.dot(gap))
        trace.damped[k] = out.damped
        trace.filled = k + 1

        if k == records - 1:
            break
        state = step(
            model, state, out.tau, tau_dist, dt, sim.integrator,
            env=sim.env, trocar=trocar, qdd=qdd,
        )
        if not (np.isfinite(state.q).all() and np.isfinite(state.qdot).all()):
            raise SimulationDiverged(k + 1, t + dt, "non-finite state after step", trace)
        tau_prev = out.tau

    return trace
