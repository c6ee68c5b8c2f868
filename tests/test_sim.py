import os
from dataclasses import replace

import numpy as np
import pytest

from rcmsim.errors import SimulationDiverged
from rcmsim.robot import (
    DEFAULT_HOME,
    JointState,
    bias_terms,
    mass_matrix,
)
from rcmsim.controllers import GainSet
from rcmsim.sim import (
    ControlSetup,
    EnvModel,
    Scenario,
    SimConfig,
    environment_force,
    read_trace_csv,
    run_episode,
    step,
)
from conftest import PENDULUM_LENGTH, PENDULUM_MASS


def test_environment_force_examples():
    env = EnvModel(mode="soft")
    assert np.abs(environment_force(np.zeros(2), np.zeros(2), env)).max() == 0.0
    f = environment_force(np.array([0.001, 0.0]), np.zeros(2), env)
    assert np.allclose(f, [-5.0, 0.0])
    off = EnvModel(mode="off")
    assert np.abs(environment_force(np.array([1.0, 1.0]), np.ones(2), off)).max() == 0.0


def test_environment_steady_penetration_scale():
    # 1 N lateral load against the default stiffness -> 0.2 mm penetration.
    env = EnvModel(mode="soft")
    x = 1.0 / env.stiffness
    assert x == pytest.approx(0.2e-3)


def test_environment_energy_balance():
    # Work done by the port force along a prescribed path equals the spring
    # energy change plus the dissipated power integral (within 1%).
    env = EnvModel(mode="soft")
    dt = 1e-4
    ts = np.arange(0.0, 1.0, dt)
    xs = 0.002 * np.column_stack([np.sin(3 * ts), 1 - np.cos(2 * ts)])
    vs = np.gradient(xs, dt, axis=0)
    work = 0.0
    dissipated = 0.0
    for x, v in zip(xs, vs):
        f = environment_force(x, v, env)
        work += f @ v * dt
        dissipated += env.damping * (v @ v) * dt
    spring = 0.5 * env.stiffness * (xs[-1] @ xs[-1] - xs[0] @ xs[0])
    assert work == pytest.approx(-(spring + dissipated), rel=0.01)


def test_step_holds_state_with_no_forces(model):
    m0 = replace(model, gravity=np.zeros(3))
    state = JointState(DEFAULT_HOME.copy(), np.zeros(model.n))
    out = step(m0, state, np.zeros(model.n), np.zeros(model.n), 1e-3)
    assert np.array_equal(out.q, state.q)
    assert np.array_equal(out.qdot, state.qdot)


def _pendulum_energy(model, state):
    M = mass_matrix(model, state.q)
    kinetic = 0.5 * state.qdot @ M @ state.qdot
    potential = -PENDULUM_MASS * 9.81 * PENDULUM_LENGTH * np.cos(state.q[0])
    return kinetic + potential


@pytest.mark.parametrize(
    "integrator,tol", [("semi_implicit", 5e-3), ("rk4", 1e-6)]
)
def test_free_pendulum_energy_drift(pendulum_model, integrator, tol):
    state = JointState(np.array([np.pi / 3]), np.zeros(1))
    e0 = _pendulum_energy(pendulum_model, state)
    scale = PENDULUM_MASS * 9.81 * PENDULUM_LENGTH  # energy scale of the swing
    for _ in range(5000):
        state = step(pendulum_model, state, np.zeros(1), np.zeros(1), 1e-3, integrator)
    drift = abs(_pendulum_energy(pendulum_model, state) - e0) / scale
    assert drift < tol


def test_zero_gravity_arm_energy_drift(model):
    # Free 7-DOF arm, no gravity, no torque: kinetic energy drift < 0.5%
    # over 5 s at 1 ms (semi-implicit).
    m0 = replace(model, gravity=np.zeros(3))
    state = JointState(DEFAULT_HOME.copy(), 0.3 * np.ones(model.n))
    e0 = 0.5 * state.qdot @ mass_matrix(m0, state.q) @ state.qdot
    for _ in range(5000):
        state = step(m0, state, np.zeros(model.n), np.zeros(model.n), 1e-3)
    e1 = 0.5 * state.qdot @ mass_matrix(m0, state.q) @ state.qdot
    assert abs(e1 - e0) / e0 < 5e-3


def test_gravity_compensation_holds_pose(model):
    # Controller torque == gravity compensation: the arm must hold its pose
    # to 1e-6 rad over one second.
    state = JointState(DEFAULT_HOME.copy(), np.zeros(model.n))
    q0 = state.q.copy()
    for _ in range(1000):
        _, _, grav = bias_terms(model, state.q, state.qdot)
        state = step(model, state, grav, np.zeros(model.n), 1e-3)
    assert np.abs(state.q - q0).max() < 1e-6


def test_step_rejects_bad_dt(model):
    state = JointState(DEFAULT_HOME.copy(), np.zeros(model.n))
    with pytest.raises(ValueError):
        step(model, state, np.zeros(model.n), np.zeros(model.n), 0.0)


def test_record_count_and_time_grid(model):
    sim = SimConfig(dt=1e-3, duration=0.05)
    trace = run_episode(model, ControlSetup(), Scenario(alpha=0.5), sim)
    assert trace.capacity == 51
    assert trace.filled == 51
    assert np.array_equal(trace.t, np.arange(51) * 1e-3)


def test_trace_preallocated_buffers_stable(model):
    sim = SimConfig(dt=1e-3, duration=0.05)
    trace = run_episode(model, ControlSetup(), Scenario(alpha=0.5), sim)
    names = ("t", "q", "qd", "tau", "tau_ext", "tau_ext_hat", "tip", "ref", "p_r", "p_c",
             "res2d", "res3d", "p_rcm", "qdd", "constraint_gap")
    ids_before = [id(getattr(trace, name)) for name in names]
    cap = trace.capacity
    # exporting and computing metrics must not reallocate or grow anything
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        trace.to_csv(os.path.join(d, "t.csv"))
    assert [id(getattr(trace, name)) for name in names] == ids_before
    assert trace.capacity == cap


def test_episode_deterministic_bitwise(model, tmp_path):
    sim = SimConfig(dt=1e-3, duration=0.4)
    scenario = Scenario(alpha=0.5)
    a = run_episode(model, ControlSetup(), scenario, sim)
    b = run_episode(model, ControlSetup(), scenario, sim)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.tau, b.tau)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.to_csv(pa)
    b.to_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_trace_csv_round_trip(model, tmp_path):
    sim = SimConfig(dt=1e-3, duration=0.2)
    trace = run_episode(model, ControlSetup(), Scenario(alpha=0.5), sim)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    table = read_trace_csv(str(path))
    assert table.filled == trace.filled
    assert np.array_equal(table.q, trace.q)
    assert np.array_equal(table.tau, trace.tau)
    assert np.array_equal(table.res2d, trace.res2d)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    n = model.n
    assert header[0] == "t"
    assert header[1 : 1 + n] == [f"q{i+1}" for i in range(n)]
    assert "prcm_z" in header and f"tauexthat{n}" in header


def test_rk4_episode_runs(model):
    sim = SimConfig(dt=1e-3, duration=0.2, integrator="rk4")
    trace = run_episode(model, ControlSetup(), Scenario(alpha=0.5), sim)
    assert trace.filled == trace.capacity


def test_env_soft_episode_limits_residual(model):
    sim = SimConfig(dt=1e-3, duration=0.5, env=EnvModel(mode="soft"))
    trace = run_episode(model, ControlSetup(), Scenario(alpha=0.5), sim)
    assert np.abs(trace.res2d).max() < 1e-3  # port keeps penetration sub-mm


def test_divergence_carries_tick_and_partial_trace(model):
    bad = GainSet.from_proportional(kp_task=1e9, kd_task=0.0, n_joints=model.n)
    sim = SimConfig(dt=1e-3, duration=2.0)
    with pytest.raises(SimulationDiverged) as exc_info:
        run_episode(model, ControlSetup(gains=bad), Scenario(alpha=0.5), sim)
    exc = exc_info.value
    assert exc.tick >= 0
    assert "tick" in str(exc)
    assert exc.trace is not None
    assert 0 < exc.trace.filled < exc.trace.capacity


def test_sensor_noise_is_seeded_and_deterministic(model):
    sim = SimConfig(dt=1e-3, duration=0.2, sensor_noise_std=1e-5, noise_seed=3)
    a = run_episode(model, ControlSetup(), Scenario(alpha=0.5), sim)
    b = run_episode(model, ControlSetup(), Scenario(alpha=0.5), sim)
    assert np.array_equal(a.tau, b.tau)
    quiet = run_episode(model, ControlSetup(), Scenario(alpha=0.5), replace(sim, sensor_noise_std=0.0))
    assert not np.array_equal(a.tau, quiet.tau)
