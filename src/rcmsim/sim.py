"""Fixed-step closed-loop simulation with trace recording.

The plant integrates the free rigid-body dynamics; the pivot constraint is
enforced by the controller torque (matching a torque-controlled arm), with an
optional visco-elastic port model adding a lateral restoring force at the
trocar. Control rate equals the simulation rate; by default the controller
sees the exact simulated state (seeded sensor noise available as an option).
``run_episode`` validates its inputs once (``sim.dt`` and the integrator
are checked there, not per tick), starts the spiral at the initial tip
point, places the trocar on the initial tool axis, starts the observer on
that same frame pass of the start state and runs for ``run_duration``. A
run config's ``scenario`` and ``sim`` sections are a ``Scenario`` and a
``SimConfig``, so a bad input has one path
(``scenario.disturbances[0].joint_torque``) from a config and from the library.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import controllers as ctl
from .controllers import ControlSetup
from .errors import ConfigError, SimulationDiverged
from .numerics import lu_solve
from .rcm import ALPHA, ConstraintState, TrocarState, constraint_from_kin, place_trocar
from . import robot
from .robot import DEFAULT_HOME, JointState, RobotModel
from .robot import kinematics as kinematics_of
from .scenarios import (
    DisturbanceSchedule,
    SpiralParams,
    TaskReference,
    TrocarSchedule,
    disturbance_arrays,
    disturbance_eval,
    spiral_reference,
    trocar_schedule_eval,
)
from .schema import NON_NEGATIVE, POSITIVE, Rule, Schema, fail, length, naming_file, setting

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
    stiffness: float = setting(5000.0, NON_NEGATIVE)
    damping: float = setting(50.0, NON_NEGATIVE)


def port_torque(cs: ConstraintState, env: EnvModel) -> np.ndarray:
    """Joint torque of the soft port's lateral force -K x - D xdot on the 2D
    pivot residual of the constraint state ``cs``, through its Jacobian. It
    reads the constraint's position rows only, so its rate terms are never
    formed. ``env`` is validated once by the caller (``run_episode``
    validates it with the sim config), not on every evaluation."""
    return cs.J.T.dot(-env.stiffness * cs.x - env.damping * cs.xdot)


def plant_accel(
    kin: robot.KinFrames,
    tau: np.ndarray,
    tau_ext: np.ndarray | None,
    env: EnvModel | None = None,
    trocar: TrocarState | None = None,
    Minv: np.ndarray | None = None,
    constraint: ConstraintState | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """(qddot, total external torque) of the plant at the frame pass ``kin``
    under the applied torque ``tau`` and the scripted external torque
    ``tau_ext`` (None when nothing acts), plus the soft port's torque when
    ``env`` is given, against ``trocar``. ``Minv`` and ``constraint`` are M^-1
    and the constraint state at ``kin`` when the caller holds them (the
    snapshot's at the true state); otherwise M is solved and the port builds its own."""
    if env is not None:
        if constraint is None:
            constraint = constraint_from_kin(kin, trocar)
        tau_port = port_torque(constraint, env)
        tau_ext = tau_port if tau_ext is None else tau_ext + tau_port
    load = (tau if tau_ext is None else tau + tau_ext) - kin.h
    return (lu_solve(kin.M, load) if Minv is None else Minv.dot(load)), tau_ext


@dataclass
class SimConfig(Schema):
    """Integration settings plus optional feedback imperfection.

    ``sensor_noise_std`` adds seeded zero-mean Gaussian noise to the joint
    positions the controller sees (the plant and the trace keep the true
    state). Default off; runs stay bit-reproducible because the stream is
    seeded per episode. ``duration`` None runs for the spiral's duration.
    """

    dt: float = setting(1e-3, POSITIVE)
    duration: float | None = None
    integrator: str = setting(
        SEMI_IMPLICIT, Rule(lambda v: v in (SEMI_IMPLICIT, RK4), "must be 'semi_implicit' or 'rk4'")
    )
    env: EnvModel = field(default_factory=EnvModel)
    sensor_noise_std: float = setting(0.0, NON_NEGATIVE)
    noise_seed: int = setting(0, NON_NEGATIVE)


def run_duration(sim: SimConfig, spiral: SpiralParams) -> float:
    """The episode's duration: ``sim.duration``, else (None) the spiral's.
    It must be finite and cover one step of ``sim.dt``; an error names the
    field it came from (``sim.duration`` or ``scenario.spiral.duration``)."""
    if sim.duration is None:
        duration, path = spiral.duration, "scenario.spiral.duration"
    else:
        duration, path = sim.duration, "sim.duration"
    if not math.isfinite(duration):
        fail(path, "must be finite")
    if duration < sim.dt:
        fail(path, "must cover at least one step")
    return duration


# Relative distance of duration/dt from an integer within which the duration
# counts as lying on the tick grid.
GRID_RTOL = 1e-9


def tick_count(duration: float, dt: float) -> int:
    """Steps of ``dt`` in ``duration`` (see ``SimTrace``)."""
    steps = duration / dt
    nearest = round(steps)
    return nearest if abs(steps - nearest) <= GRID_RTOL * steps else math.floor(steps)


def all_finite(x: np.ndarray) -> bool:
    """No NaN or infinity in the vector ``x``. x.x < inf certifies it in one
    product; else (non-finite entries, overflowing squares) the elementwise
    test decides. Call under errstate(over="ignore"), as ``run_episode`` does."""
    return x.dot(x) < math.inf or np.count_nonzero(np.isfinite(x)) == x.size


@dataclass
class Scenario(Schema):
    """Episode description: trajectory, trocar, disturbances, start state.

    A run config's ``scenario`` section is one (``harness.ScenarioConfig``).
    """

    alpha: float = setting(0.5, ALPHA)
    spiral: SpiralParams = field(default_factory=SpiralParams)
    trocar: TrocarSchedule = field(default_factory=TrocarSchedule)
    disturbances: DisturbanceSchedule = field(default_factory=list)
    q_init: list[float] | None = None


def check_joint_vectors(n: int, scenario: Scenario):
    """The scenario's ``q_init`` and every joint-torque disturbance hold one
    finite entry per joint, and an arm whose joint count is not
    ``DEFAULT_HOME``'s has a ``q_init``; an error names the vector by its
    path from the run config's root."""
    if scenario.q_init is None and n != DEFAULT_HOME.size:
        fail("scenario.q_init", f"required for an arm of {n} joints "
             f"(the default start pose has {DEFAULT_HOME.size})")
    rule = length(n)
    vectors = [("scenario.q_init", scenario.q_init)] + [
        (f"scenario.disturbances[{i}].joint_torque", event.joint_torque)
        for i, event in enumerate(scenario.disturbances)
    ]
    for path, vector in vectors:
        if vector is None:
            continue
        if not rule.ok(vector):
            fail(path, rule.message)
        if not np.isfinite(vector).all():
            fail(path, "must be finite")


def _trace_columns(n: int) -> tuple[list, list]:
    """The trace table's layout, as (attribute, column names) in table order:
    the CSV columns in file order, then the columns kept in memory only. A
    group of one column named like its attribute is a 1-D column."""

    def xyz(prefix, axes="xyz"):
        return [f"{prefix}_{a}" for a in axes]

    def joints(prefix):
        return [f"{prefix}{i + 1}" for i in range(n)]

    csv = [
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
    memory = [("qdd", joints("qdd")), ("constraint_gap", ["constraint_gap"]), ("z_r", xyz("zr"))]
    return csv, memory


def _csv_header(n: int) -> list[str]:
    return [name for _, names in _trace_columns(n)[0] for name in names]


class SimTrace:
    """Pre-allocated, uniformly sampled record of one episode.

    One record per tick, ``duration/dt`` steps and the start: the step count
    is duration/dt rounded down, or to the nearest integer when within
    ``GRID_RTOL`` (relative) of it, since a duration on the tick grid
    rarely divides exactly in floating point (0.7 / 0.001 = 699.99...).
    Timestamps are i*dt exactly.
    ``filled`` marks how many records are valid (less than capacity only when
    an episode diverges and a partial trace is returned).

    The records are one float ``table``, one row per tick: the CSV columns in
    file order, then the diagnostics kept in memory only (``qdd``,
    ``constraint_gap`` = |Jc qddot - commanded| and ``z_r``, the
    reference frame's z-axis). Every named attribute is a column view of it;
    ``damped``, the tick's damped task-inertia inverses, is its own int8
    array. Given a ``table`` (as ``read_trace_csv`` does), the trace is a
    view over its CSV columns and has no diagnostics.
    """

    def __init__(self, n: int, records: int, table: np.ndarray | None = None):
        self.n = n
        self.capacity = records
        self.filled = 0
        csv, memory = _trace_columns(n)
        groups = csv
        if table is None:
            groups = csv + memory
            table = np.zeros((records, sum(len(names) for _, names in groups)))
            self.damped = np.zeros(records, dtype=np.int8)
        self.table = table
        start = 0
        for attr, names in groups:
            stop = start + len(names)
            setattr(self, attr, table[:, start] if names == [attr] else table[:, start:stop])
            start = stop

    def to_csv(self, path: str):
        """One row per filled tick; floats printed with 17 significant digits
        so the file round-trips bit-exactly."""
        header = _csv_header(self.n)
        np.savetxt(
            path,
            self.table[: self.filled, : len(header)],
            fmt="%.17g",
            delimiter=",",
            header=",".join(header),
            comments="",
        )


def read_trace_csv(path: str) -> SimTrace:
    """A trace CSV that ``SimTrace.to_csv`` wrote, every row filled (none if
    header-only); raises ConfigError naming the file and, for a layout off
    the writer's, the first column that differs."""
    with naming_file(path, "trace CSV"), open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        header_only = not fh.read(1)  # loadtxt warns on a file with no rows
        n = sum(1 for name in header if name.startswith("q") and name[1:].isdigit())
        for i, (got, want) in enumerate(itertools.zip_longest(header, _csv_header(n))):
            if got != want:
                raise ConfigError(f"trace column {i + 1} is {got!r}, expected {want!r}")
        if header_only:
            data = np.empty((0, len(header)))
        else:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, encoding="utf-8")
        if data.shape[1] != len(header):
            raise ConfigError(f"rows of {data.shape[1]} values under {len(header)} columns")
    trace = SimTrace(n, len(data), table=data)
    trace.filled = len(data)
    return trace


def step(
    model: RobotModel,
    state: JointState,
    tau: np.ndarray,
    tau_ext: np.ndarray | None,
    dt: float,
    qdd: np.ndarray,
    integrator: str = SEMI_IMPLICIT,
    env: EnvModel | None = None,
    trocar: tuple[TrocarState, ...] | None = None,
) -> JointState:
    """Advance the plant one control period under zero-order-hold torque.

    ``qdd`` is ``plant_accel`` at ``state`` under these inputs (the tick
    computes it from its own frame pass). ``tau_ext`` holds the scripted
    external torque for the step (None when nothing acts); the soft port's
    force (``env`` given) is state dependent and recomputed at every later
    RK4 stage, against ``trocar``: the trocar at the step's evaluation
    times, (t, t + dt/2, t + dt). Each later RK4 stage builds one frame pass.
    ``dt`` and ``integrator`` (``SEMI_IMPLICIT``, else ``RK4``) are the
    validated ``SimConfig``'s; the caller checks the new state.
    """
    if integrator == SEMI_IMPLICIT:
        qd_new = state.qdot + dt * qdd
        return JointState(state.q + dt * qd_new, qd_new)

    def accel(q, qd, time_index):
        kin = robot.KinFrames(model.chain, q, qd)
        return plant_accel(kin, tau, tau_ext, env, trocar[time_index] if trocar else None)[0]

    k1q, k1v = state.qdot, qdd
    k2q = state.qdot + 0.5 * dt * k1v
    k2v = accel(state.q + 0.5 * dt * k1q, k2q, 1)
    k3q = state.qdot + 0.5 * dt * k2v
    k3v = accel(state.q + 0.5 * dt * k2q, k3q, 1)
    k4q = state.qdot + dt * k3v
    k4v = accel(state.q + dt * k3q, k4q, 2)
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
    duration = run_duration(sim, scenario.spiral)
    check_joint_vectors(model.n, scenario)
    q0 = DEFAULT_HOME.copy() if scenario.q_init is None else np.asarray(scenario.q_init, dtype=float)
    state = JointState(q0.copy(), np.zeros(model.n))

    kin0 = kinematics_of(model, q0)
    p_c0 = place_trocar(kin0.pose_r.p, kin0.p_t, scenario.alpha)

    dt = sim.dt
    records = tick_count(duration, dt) + 1
    trace = SimTrace(model.n, records)

    # kin0 is the start state's pass: at q0, with the start state's zero qdot
    obs = ctl.ObserverState.initial(kin0, control.gains.observer_gain) if control.observer else None
    noise = (
        np.random.default_rng(sim.noise_seed) if sim.sensor_noise_std > 0 else None
    )

    trace.t[:] = np.arange(records) * dt
    refs = spiral_reference(trace.t, scenario.spiral, kin0.p_t)
    trace.ref[:] = refs.x
    # The trocar on the grid the plant is evaluated on: the ticks, and for
    # the soft port under RK4 also the half steps between them.
    # (2k) (dt/2) == k dt exactly, so the tick entries are those of the tick
    # grid.
    port_env = sim.env if sim.env.mode == ENV_SOFT else None
    per_tick = 2 if port_env is not None and sim.integrator == RK4 else 1
    trocars = trocar_schedule_eval(
        np.arange(per_tick * (records - 1) + 1) * (dt / per_tick), scenario.trocar, p_c0
    )
    trace.p_c[:] = trocars.p[::per_tick]

    def trocar_at(i: int) -> TrocarState:
        return TrocarState(trocars.p[i], trocars.pdot[i], trocars.pddot[i])

    disturbances = disturbance_arrays(scenario.disturbances)

    try:
        for k in range(records):
            t = k * dt
            i = per_tick * k
            trocar = trocar_at(i)
            ref = TaskReference(refs.x[k], refs.xdot[k], refs.xddot[k])
            # The controller sees the measured state; the observer, the
            # disturbances, the plant and the records act at the true one.
            if noise is None:
                snap = ctl.build_snapshot(model, state, trocar)
                kin_true = snap.kin
            else:
                q_meas = state.q + sim.sensor_noise_std * noise.standard_normal(model.n)
                snap = ctl.build_snapshot(model, JointState(q_meas, state.qdot), trocar)
                kin_true = robot.KinFrames(model.chain, state.q, state.qdot)
            # observer update for the period that just ended
            if obs is not None and k > 0:
                obs = ctl.observer_step(obs, trace.tau[k - 1], dt, kin_true)
            tau_hat = obs.tau_ext_hat if obs is not None else None

            out = ctl.control_torque(control, snap, ref, q0, tau_hat)
            if not all_finite(out.tau):
                trace.filled = k
                raise SimulationDiverged(k, t, "non-finite controller torque", trace)

            # tau_dist and tau_ext stay None while nothing external acts on the arm
            tau_dist = None
            if disturbances:
                tau_dist = disturbance_eval(t, disturbances, model, kin_true)
            # when the snapshot saw the true state, its M^-1 and constraint hold there
            held = (snap.Minv, snap.constraint) if noise is None else (None, None)
            qdd, tau_ext = plant_accel(kin_true, out.tau, tau_dist, port_env, trocar, *held)
            gap = snap.constraint.J.dot(qdd) - out.constraint_accel_cmd

            # Record tick k (true plant state, not the measured one).
            pose_r = kin_true.pose_r
            trace.q[k] = state.q
            trace.qd[k] = state.qdot
            trace.tau[k] = out.tau
            if tau_ext is not None:
                trace.tau_ext[k] = tau_ext
            if obs is not None:
                trace.tau_ext_hat[k] = obs.tau_ext_hat
            trace.tip[k] = kin_true.p_t
            trace.p_r[k] = pose_r.p
            trace.res3d[k] = pose_r.R.T.dot(pose_r.p - trocar.p)
            trace.z_r[k] = pose_r.R[:, 2]
            trace.qdd[k] = qdd
            trace.constraint_gap[k] = math.sqrt(gap.dot(gap))
            trace.damped[k] = out.damped
            trace.filled = k + 1

            if k == records - 1:
                break
            stage_trocars = (trocar, trocar_at(i + 1), trocar_at(i + 2)) if per_tick == 2 else None
            state = step(model, state, out.tau, tau_dist, dt, qdd, sim.integrator,
                         port_env, stage_trocars)
            if not (all_finite(state.q) and all_finite(state.qdot)):
                raise SimulationDiverged(k + 1, t + dt, "non-finite state after step", trace)
    finally:
        # Columns the recorded ones determine, for the recorded ticks (also
        # of a diverged run): the 2D residual is the 3D one's lateral part,
        # and the pivot point is p_r less its axial offset along z_r.
        m = trace.filled
        trace.res2d[:m] = trace.res3d[:m, :2]
        trace.p_rcm[:m] = trace.p_r[:m] - trace.res3d[:m, 2:] * trace.z_r[:m]

    return trace
