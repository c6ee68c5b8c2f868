import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcmsim.robot import DEFAULT_HOME, kinematics
from rcmsim.scenarios import (
    DisturbanceEvent,
    SpiralParams,
    TrocarSchedule,
    disturbance_eval,
    spiral_reference,
    trapezoid_profile,
    trocar_schedule_eval,
)


def test_trapezoid_boundaries():
    T, a = 20.0, 0.2
    v = 1.0 / (T * (1.0 - a))
    A = v / (a * T)
    s, sd, sdd = trapezoid_profile(0.0, T, a)
    assert (s, sd, sdd) == (0.0, 0.0, pytest.approx(A))
    s, sd, sdd = trapezoid_profile(T, T, a)
    assert (s, sd) == (1.0, 0.0)
    assert sdd == pytest.approx(-A)


def test_trapezoid_plateau_velocity():
    T, a = 20.0, 0.2
    _, sd, sdd = trapezoid_profile(T / 2, T, a)
    assert sd == pytest.approx(1.0 / (T * (1.0 - a)), abs=1e-12)
    assert sdd == 0.0


def test_trapezoid_midpoint_symmetry():
    for a in (0.1, 0.2, 0.35):
        s, _, _ = trapezoid_profile(10.0, 20.0, a)
        assert s == pytest.approx(0.5, abs=1e-12)


def test_trapezoid_clamps_outside():
    assert trapezoid_profile(-1.0, 20.0, 0.2) == (0.0, 0.0, 0.0)
    assert trapezoid_profile(21.0, 20.0, 0.2) == (1.0, 0.0, 0.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.49), st.floats(0.5, 60.0))
def test_trapezoid_integrates_to_one(a, T):
    # closed-form area of the velocity trapezoid is exactly 1
    s, _, _ = trapezoid_profile(T, T, a)
    assert abs(s - 1.0) < 1e-12
    # and piecewise-numeric integration of sdot agrees
    ts = np.linspace(0.0, T, 2001)
    _, sd, _ = trapezoid_profile(ts, T, a)
    assert abs(np.trapezoid(sd, ts) - 1.0) < 1e-3


START = np.zeros(3)  # the spiral's start point


def test_spiral_start_and_end():
    p = SpiralParams()
    r0 = spiral_reference(0.0, p, START)
    assert np.abs(r0.x - START).max() == 0.0
    assert np.abs(r0.xdot).max() == 0.0
    rT = spiral_reference(p.duration, p, START)
    assert rT.x[2] == pytest.approx(p.turns * p.pitch, abs=1e-12)
    assert rT.x[2] == pytest.approx(0.045, abs=1e-12)  # 3 turns x 15 mm pitch
    assert np.abs(rT.xdot).max() == 0.0


def test_spiral_radius_invariant():
    p = SpiralParams()
    center_xy = START[:2] + np.array([-p.radius, 0.0])
    for t in np.linspace(0, p.duration, 101):
        x = spiral_reference(t, p, START).x
        assert np.linalg.norm(x[:2] - center_xy) == pytest.approx(p.radius, abs=1e-12)


def test_spiral_derivatives_match_finite_difference():
    p = SpiralParams()
    dt = 1e-5
    for t in (1.0, 5.0, 10.0, 17.5):
        xm = spiral_reference(t - dt, p, START)
        x0 = spiral_reference(t, p, START)
        xp = spiral_reference(t + dt, p, START)
        v_fd = (xp.x - xm.x) / (2 * dt)
        a_fd = (xp.x - 2 * x0.x + xm.x) / dt**2
        assert np.abs(x0.xdot - v_fd).max() < 1e-5
        assert np.abs(x0.xddot - a_fd).max() < 1e-3


def test_trocar_static():
    sched = TrocarSchedule(mode="static")
    p0 = np.array([0.1, 0.2, 0.3])
    for t in (0.0, 1.0, 7.3):
        ts = trocar_schedule_eval(t, sched, p0)
        assert np.array_equal(ts.p, p0)
        assert np.abs(ts.pdot).max() == 0.0


def test_trocar_sinusoidal_quarter_period():
    sched = TrocarSchedule(mode="sinusoidal")
    ts = trocar_schedule_eval(1.25, sched, np.zeros(3))  # 1/(4 f) at f = 0.2 Hz
    assert ts.p[2] == pytest.approx(0.04, abs=1e-12)
    assert abs(ts.pdot[2]) < 1e-12


def test_trocar_sinusoidal_peak_speed():
    sched = TrocarSchedule(mode="sinusoidal")
    speeds = [np.linalg.norm(trocar_schedule_eval(t, sched, np.zeros(3)).pdot)
              for t in np.linspace(0, 5, 2001)]
    assert max(speeds) == pytest.approx(0.04 * 2 * np.pi * 0.2, rel=1e-5)


def test_trocar_derivatives_match_finite_difference():
    sched = TrocarSchedule(mode="sinusoidal")
    dt = 1e-6
    for t in (0.3, 1.7, 4.4):
        m = trocar_schedule_eval(t - dt, sched, np.zeros(3))
        c = trocar_schedule_eval(t, sched, np.zeros(3))
        p = trocar_schedule_eval(t + dt, sched, np.zeros(3))
        assert np.abs(c.pdot - (p.p - m.p) / (2 * dt)).max() < 1e-6
        assert np.abs(c.pddot - (p.pdot - m.pdot) / (2 * dt)).max() < 1e-6


def test_disturbance_empty_schedule(model):
    tau = disturbance_eval(1.0, [], model, kinematics(model, DEFAULT_HOME))
    assert np.abs(tau).max() == 0.0


def test_disturbance_joint_torque_window(model):
    torque = np.zeros(model.n)
    torque[3] = 2.0
    sched = [DisturbanceEvent(t0=5.0, t1=10.0, joint_torque=torque)]
    kin = kinematics(model, DEFAULT_HOME)
    assert disturbance_eval(7.0, sched, model, kin)[3] == 2.0
    assert np.abs(disturbance_eval(4.9, sched, model, kin)).max() == 0.0
    assert np.abs(disturbance_eval(10.1, sched, model, kin)).max() == 0.0


def test_disturbance_flange_wrench_virtual_work(model, rng):
    wrench = rng.uniform(-5, 5, 6)
    sched = [DisturbanceEvent(t0=0.0, t1=1.0, flange_wrench=wrench)]
    q = DEFAULT_HOME
    qd = rng.uniform(-1, 1, model.n)
    kin = kinematics(model, q)
    tau = disturbance_eval(0.5, sched, model, kin)
    assert abs(qd @ tau - (kin.J_r @ qd) @ wrench) < 1e-9


def test_disturbance_link2_force_zero_columns(model):
    sched = [DisturbanceEvent(t0=0.0, t1=1.0, link2_force=np.array([0.0, 10.0, 0.0]))]
    tau = disturbance_eval(0.5, sched, model, kinematics(model, DEFAULT_HOME))
    assert np.abs(tau[2:]).max() == 0.0  # mapped through joints 1-2 only
    assert np.abs(tau[:2]).max() > 0.0


def test_disturbance_event_validation():
    with pytest.raises(ValueError):
        DisturbanceEvent(t0=2.0, t1=1.0, joint_torque=np.zeros(7)).validate()
    with pytest.raises(ValueError):
        DisturbanceEvent(t0=0.0, t1=1.0).validate()
    with pytest.raises(ValueError):
        DisturbanceEvent(
            t0=0.0, t1=1.0, joint_torque=np.zeros(7), link2_force=np.zeros(3)
        ).validate()
