import numpy as np
import pytest

from rcmsim.errors import InvalidAlpha
from rcmsim.rcm import TrocarState, constraint_from_kin, place_trocar
from rcmsim.robot import DEFAULT_HOME, Pose, kinematics
from rcmsim.sim import ControlSetup, Scenario, SimConfig, run_episode
from conftest import random_states, static_trocar
from oracles import InconsistentTool, rcm_point, residual_jacobian


def _rotz(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _mid_axis_trocar(model, q, frac=0.4):
    kin = kinematics(model, q)
    return kin, place_trocar(kin.pose_r.p, kin.pose_t.p, frac)


class _PoseOnly:
    """What the residual's construction reads of a frame pass: the reference
    pose, and a trocar-point Jacobian (zero, for one joint at rest)."""

    def __init__(self, pose_r):
        self.pose_r = pose_r

    def coincident_jacobian(self, p_c):
        return np.zeros((3, 1))


def _pose_residual(pose_r, p_c):
    return constraint_from_kin(_PoseOnly(pose_r), np.zeros(1), static_trocar(p_c)).x


def _residual(model, q, p_c):
    return constraint_from_kin(kinematics(model, q), np.zeros(model.n), static_trocar(p_c)).x


def test_place_trocar_limit_and_midpoint():
    p_r = np.array([0.1, 0.2, 0.3])
    p_t = np.array([0.1, 0.2, -0.29])
    assert np.array_equal(place_trocar(p_r, p_t, 1.0), p_t)
    assert np.allclose(place_trocar(p_r, p_t, 0.5), 0.5 * (p_r + p_t))


def test_place_trocar_depths(model):
    # The three sweep depths: insertion depth alpha * l_tool from the frame.
    kin = kinematics(model, DEFAULT_HOME)
    for alpha in (0.75, 0.5, 0.25):
        p_c = place_trocar(kin.pose_r.p, kin.pose_t.p, alpha)
        assert abs(np.linalg.norm(p_c - kin.pose_r.p) - alpha * model.l_tool) < 1e-12


def test_place_trocar_rejects_bad_alpha():
    p = np.zeros(3)
    for alpha in (0.0, -0.1, 1.2):
        with pytest.raises(InvalidAlpha):
            place_trocar(p, p, alpha)


def test_residual_zero_at_trocar():
    pose = Pose(p=np.array([0.4, 0.1, 0.2]), R=_rotz(0.7))
    assert np.abs(_pose_residual(pose, pose.p)).max() == 0.0


def test_residual_identity_rotation():
    # the lateral (x, y) coordinates of p_r - p_c
    pose = Pose(p=np.array([1.0, 2.0, 3.0]), R=np.eye(3))
    assert np.allclose(_pose_residual(pose, np.zeros(3)), [1.0, 2.0])


def test_residual_quarter_turn():
    pose = Pose(p=np.array([1.0, 2.0, 3.0]), R=_rotz(np.pi / 2))
    x = _pose_residual(pose, np.zeros(3))
    assert np.abs(x - np.array([2.0, -1.0])).max() < 1e-12


def test_residual_2d_is_first_two_rows_of_3d(model, rng):
    # The residual the controllers regulate is the lateral part of the
    # trace's 3D residual, tick by tick, and its Jacobian the lateral rows
    # of the 3D one's skew form.
    trace = run_episode(model, ControlSetup(), Scenario(alpha=0.5), SimConfig(duration=0.05))
    for k in range(trace.filled):
        x = _residual(model, trace.q[k], trace.p_c[k])
        assert np.abs(x - trace.res3d[k, :2]).max() < 1e-15
    qs, _ = random_states(rng, model.n, 25)
    for q in qs:
        kin = kinematics(model, q)
        p_c = kin.pose_r.p + rng.uniform(-0.2, 0.2, 3)
        J2 = constraint_from_kin(kin, np.zeros(model.n), static_trocar(p_c)).J
        J3 = residual_jacobian(kin.pose_r, kin.J_r, p_c, rows=3)
        assert np.abs(J2 - J3[:2]).max() < 1e-12


def test_residual_norm_decomposition(model, rng):
    # |residual| = distance from the trocar to the tool axis.
    kin, p_c_axis = _mid_axis_trocar(model, DEFAULT_HOME)
    offset = np.array([0.004, -0.006, 0.002])
    p_c = p_c_axis + offset
    x = _residual(model, DEFAULT_HOME, p_c)
    axis = kin.pose_r.R[:, 2]
    p_cr = kin.pose_r.p - p_c
    lateral = p_cr - (p_cr @ axis) * axis
    assert abs(np.linalg.norm(x) - np.linalg.norm(lateral)) < 1e-12


def test_residual_jacobian_reference_point_case(model):
    # Trocar at the reference point: J_c reduces to the rotated J_p rows.
    kin = kinematics(model, DEFAULT_HOME)
    static = static_trocar(kin.pose_r.p)
    J = constraint_from_kin(kin, np.zeros(model.n), static).J
    assert np.abs(J - kin.pose_r.R.T[:2] @ kin.J_r[:3]).max() < 1e-12


def test_residual_jacobian_finite_difference(model, rng):
    qs, _ = random_states(rng, model.n, 30)
    step = 1e-6
    worst = 0.0
    for q in qs:
        kin, p_c = _mid_axis_trocar(model, q)
        p_c = p_c + rng.uniform(-0.05, 0.05, 3)
        static = static_trocar(p_c)
        J = constraint_from_kin(kin, np.zeros(model.n), static).J
        for j in range(model.n):
            dq = np.zeros(model.n)
            dq[j] = step
            xp = _residual(model, q + dq, p_c)
            xm = _residual(model, q - dq, p_c)
            worst = max(worst, np.abs((xp - xm) / (2 * step) - J[:, j]).max())
    assert worst < 1e-6


def test_residual_rate_static_and_moving(model, rng):
    q = DEFAULT_HOME
    qd = rng.uniform(-0.5, 0.5, model.n)
    kin, p_c = _mid_axis_trocar(model, q)
    static = static_trocar(p_c)
    cs = constraint_from_kin(kinematics(model, q, qd), qd, static)
    J = cs.J
    assert np.allclose(cs.xdot, J @ qd)
    v = np.array([0.0, 0.0, 0.03])
    moving = TrocarState(p_c, v, np.zeros(3))
    expected = J @ np.zeros(model.n) - kin.pose_r.R.T[:2] @ v
    got = constraint_from_kin(kin, np.zeros(model.n), moving).xdot
    assert np.abs(got - expected).max() < 1e-12


def _analytic_motion(model, t, q0, amp, omega):
    q = q0 + amp * np.sin(omega * t)
    qd = amp * omega * np.cos(omega * t)
    qdd = -amp * omega * omega * np.sin(omega * t)
    return q, qd, qdd


def test_residual_rate_matches_trajectory_difference(model):
    # Total time derivative of the residual along a prescribed smooth motion.
    q0 = DEFAULT_HOME
    amp = np.linspace(0.05, 0.11, model.n)
    omega = 1.7
    kin0, p_c = _mid_axis_trocar(model, q0)
    trocar = static_trocar(p_c)
    dt = 1e-5
    for t in (0.3, 0.9):
        qs = [_analytic_motion(model, s, q0, amp, omega)[0] for s in (t - dt, t, t + dt)]
        xs = [_residual(model, q, p_c) for q in qs]
        q, qd, _ = _analytic_motion(model, t, q0, amp, omega)
        xdot = constraint_from_kin(kinematics(model, q, qd), qd, trocar).xdot
        fd = (xs[2] - xs[0]) / (2 * dt)
        assert np.abs(xdot - fd).max() < 1e-4


def test_residual_bias_zero_when_everything_static(model):
    kin, p_c = _mid_axis_trocar(model, DEFAULT_HOME)
    static = static_trocar(p_c)
    b = constraint_from_kin(kin, np.zeros(model.n), static).b
    assert np.abs(b).max() == 0.0


def test_residual_bias_frozen_robot_sinusoidal_trocar(model):
    # Robot frozen, trocar oscillating at 0.2 Hz, +-0.04 m: b = -B^T pddot_c,
    # with peak |pddot| = 0.04 (2 pi 0.2)^2.
    kin, p_c0 = _mid_axis_trocar(model, DEFAULT_HOME)
    w = 2 * np.pi * 0.2
    t = 1.25  # quarter period: peak acceleration
    acc = -0.04 * w * w * np.sin(w * t) * np.array([0.0, 0.0, 1.0])
    trocar = TrocarState(
        p_c0 + 0.04 * np.sin(w * t) * np.array([0, 0, 1.0]),
        0.04 * w * np.cos(w * t) * np.array([0, 0, 1.0]),
        acc,
    )
    b = constraint_from_kin(kin, np.zeros(model.n), trocar).b
    assert np.abs(b - (-kin.pose_r.R.T[:2] @ acc)).max() < 1e-12
    assert abs(np.linalg.norm(acc) - 0.04 * w * w) < 1e-12


@pytest.mark.parametrize("moving", [False, True])
def test_second_difference_oracle(model, moving):
    # xddot(t) must equal J qddot + b along any smooth motion, including a
    # moving trocar (rheonomic terms).
    q0 = DEFAULT_HOME
    amp = np.linspace(0.04, 0.1, model.n)
    omega = 1.3
    kin0, p_c0 = _mid_axis_trocar(model, q0)
    wt = 2 * np.pi * 0.2

    def trocar_at(t):
        if not moving:
            return static_trocar(p_c0)
        e = np.array([0.0, 0.0, 1.0])
        return TrocarState(
            p_c0 + 0.04 * np.sin(wt * t) * e,
            0.04 * wt * np.cos(wt * t) * e,
            -0.04 * wt * wt * np.sin(wt * t) * e,
        )

    dt = 1e-4
    for t in (0.25, 0.8):
        xs = []
        for s in (t - dt, t, t + dt):
            q, _, _ = _analytic_motion(model, s, q0, amp, omega)
            xs.append(_residual(model, q, trocar_at(s).p))
        xdd_fd = (xs[2] - 2 * xs[1] + xs[0]) / dt**2
        q, qd, qdd = _analytic_motion(model, t, q0, amp, omega)
        cs = constraint_from_kin(kinematics(model, q, qd), qd, trocar_at(t))
        assert np.abs(cs.J @ qdd + cs.b - xdd_fd).max() < 1e-3


def test_rcm_point_fixed_points(model):
    kin, p_c = _mid_axis_trocar(model, DEFAULT_HOME)
    p_r, p_t = kin.pose_r.p, kin.pose_t.p
    assert np.abs(rcm_point(p_r, p_t, p_c, model.l_tool) - p_c).max() < 1e-12
    assert np.abs(rcm_point(p_r, p_t, p_r, model.l_tool) - p_r).max() < 1e-12


def test_rcm_point_orthogonality_and_minimization(model, rng):
    kin, _ = _mid_axis_trocar(model, DEFAULT_HOME)
    p_r, p_t = kin.pose_r.p, kin.pose_t.p
    for _ in range(20):
        p_c = p_r + rng.uniform(0.1, 0.9) * (p_t - p_r) + rng.uniform(-0.05, 0.05, 3)
        p = rcm_point(p_r, p_t, p_c, model.l_tool)
        assert abs((p - p_c) @ (p_t - p_r)) < 1e-9
        # projection minimizes the distance over the tool segment
        dist = np.linalg.norm(p - p_c)
        for s in np.linspace(0, 1, 41):
            y = p_r + s * (p_t - p_r)
            assert dist <= np.linalg.norm(y - p_c) + 1e-12


def test_rcm_point_rejects_inconsistent_tool(model):
    p_r = np.zeros(3)
    p_t = np.array([0.0, 0.0, 0.5])
    with pytest.raises(InconsistentTool):
        rcm_point(p_r, p_t, p_r, model.l_tool)
