from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from rcmsim import controllers, numerics
from rcmsim.controllers import (
    COMP_FULL,
    COMP_OFF,
    COMP_PRESERVE_NULL,
    NULL_DAMPING,
    ControlSetup,
    GainSet,
    ObserverState,
    build_snapshot,
    compensation_torque,
    control_torque,
    nullspace_torque,
    observer_step,
    stacked_mobility,
)
from rcmsim.errors import ConfigError, RankDeficientConstraint, SingularExtendedJacobian
from rcmsim.harness import compute_metrics
from rcmsim.numerics import small_inv
from rcmsim.rcm import ConstraintState, TrocarState, place_trocar
from rcmsim.robot import DEFAULT_HOME, JointState, KinFrames, kinematics
from rcmsim.scenarios import TaskReference, TrocarSchedule
from rcmsim.sim import Scenario, SimConfig, run_episode
from conftest import static_trocar
from oracles import (
    any_row_factor,
    forward_dynamics,
    free_space_force,
    matrix_sqrt,
    null_basis,
    p_approach_reference,
    pinv,
    uk_sqrt_reference,
    unconstrained_pd_torque,
    without_constraint,
    z_approach_reference,
)


def _control(variant, snap, ref, gains, q_init=DEFAULT_HOME, **kw):
    return control_torque(ControlSetup(variant=variant, gains=gains), snap, ref, q_init, **kw)


def _hold_reference(model, q):
    tip = kinematics(model, q).p_t
    return TaskReference(x=tip.copy(), xdot=np.zeros(3), xddot=np.zeros(3))


def _scenario_state(model, rng=None, alpha=0.5, qd_scale=0.0):
    q = DEFAULT_HOME.copy()
    qd = np.zeros(model.n)
    if rng is not None:
        q = q + rng.uniform(-0.3, 0.3, model.n)
        qd = qd_scale * rng.uniform(-1.0, 1.0, model.n)
    kin = kinematics(model, q)
    p_c = place_trocar(kin.pose_r.p, kin.p_t, alpha)
    return JointState(q, qd), static_trocar(p_c)


def test_gain_rule_element_wise():
    g = GainSet.from_proportional(kp_task=900.0, kp_rcm=1500.0, kp_null=5.0)
    assert np.allclose(g.kd_task, 60.0)
    assert np.allclose(g.kd_rcm, 2.0 * np.sqrt(1500.0))
    assert np.allclose(g.kd_null, 2.0 * np.sqrt(5.0))


def test_null_damping_default():
    # no null-space stiffness: the arm's internal motion is damped by
    # NULL_DAMPING; with stiffness, kd_null follows the 2 sqrt(kp) rule
    assert GainSet.from_proportional().kd_null == NULL_DAMPING
    assert GainSet.from_proportional(kp_null=5.0).kd_null == 2 * np.sqrt(5.0)


def test_gain_rejects_negative():
    with pytest.raises(ValueError):
        GainSet.from_proportional(kp_task=-1.0)


def test_gain_set_checked_however_it_is_built():
    # dataclasses.replace and the constructor reach the same checks as
    # from_proportional, naming the field, instead of a broadcast error or a
    # diverged episode at tick 0.
    g = GainSet.from_proportional(kd_null=4.0)
    with pytest.raises(ConfigError, match="^kp_task: must be finite$"):
        replace(g, kp_task=np.nan)
    # one number per loop, for an arm of any joint count
    with pytest.raises(ConfigError, match="^kd_null: expected a number$"):
        replace(g, kd_null=np.ones(7))
    with pytest.raises(ConfigError, match="^observer_gain: expected a number$"):
        replace(g, observer_gain=True)
    with pytest.raises(ConfigError, match="^observer_gain: must be non-negative$"):
        replace(g, observer_gain=-1.0)


@pytest.mark.parametrize("name", ["kp_task", "kd_rcm", "kp_null"])
@pytest.mark.parametrize("value, message", [
    (float("nan"), "must be finite"),
    (float("inf"), "must be finite"),
    ([1.0, 2.0, 3.0, 4.0], "expected a number"),
    (np.full(7, 5.0), "expected a number"),
])
def test_gain_rejects_non_finite_and_wrong_length(name, value, message):
    # rejected where the gains are built, naming the field, not as a
    # diverged episode at tick 0
    with pytest.raises(ConfigError, match=f"^{name}: {message}$"):
        GainSet.from_proportional(**{name: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_observer_gain_must_be_finite(value):
    with pytest.raises(ConfigError, match="^observer_gain: must be finite$"):
        GainSet.from_proportional(observer_gain=value)


def test_gain_experiment_defaults():
    # default diagonal stiffnesses: 1000 N/m at the tip, 1500 N/m at the pivot
    g = GainSet.from_proportional()
    assert np.allclose(g.kp_task, 1000.0)
    assert np.allclose(g.kp_rcm, 1500.0)
    assert g.observer_gain == 50.0


def test_free_space_force_bias_only():
    lam = np.diag([2.0, 2.0, 2.0])
    h_f = np.array([0.1, -0.2, 0.3])
    ref = TaskReference(np.zeros(3), np.zeros(3), np.zeros(3))
    f = free_space_force(lam, h_f, ref, np.zeros(3), np.zeros(3), GainSet.from_proportional())
    assert np.array_equal(f, h_f)


def test_free_space_force_stiffness_contribution():
    ref = TaskReference(np.array([0.01, 0.0, 0.0]), np.zeros(3), np.zeros(3))
    f = free_space_force(np.eye(3), np.zeros(3), ref, np.zeros(3), np.zeros(3),
                         GainSet.from_proportional())
    assert np.allclose(f, [10.0, 0.0, 0.0])  # 1000 N/m * 1 cm


def test_nullspace_torque_examples():
    g = GainSet.from_proportional(kp_null=5.0)
    q0 = np.zeros(7)
    assert np.abs(nullspace_torque(q0, np.zeros(7), q0, g)).max() == 0.0
    q = q0.copy()
    q[1] += 0.1
    tau = nullspace_torque(q, np.zeros(7), q0, g)
    assert abs(tau[1] + 0.5) < 1e-12
    # restoring torque always opposes displacement component-wise
    dq = np.array([0.2, -0.3, 0.1, 0.0, -0.05, 0.4, -0.2])
    tau = nullspace_torque(q0 + dq, np.zeros(7), q0, g)
    nz = dq != 0
    assert np.all(np.sign(tau[nz]) == -np.sign(dq[nz]))


# --- projected controller ----------------------------------------------------


def test_p_approach_constraint_consistency_random_states(model, rng):
    # Feeding the commanded torque through the plant must realize the
    # commanded constraint-space acceleration exactly.
    g = GainSet.from_proportional()
    for _ in range(15):
        state, trocar = _scenario_state(model, rng, qd_scale=0.8)
        ref = _hold_reference(model, state.q)
        snap = build_snapshot(model, state, trocar)
        out = _control("p_approach", snap, ref, g)
        qdd = forward_dynamics(model, state.q, state.qdot, out.tau)
        assert np.abs(snap.constraint.J @ qdd - out.constraint_accel_cmd).max() < 1e-6


def test_p_approach_unconstrained_reduction(model, monkeypatch):
    # k = 0: the projected controller collapses to the standard
    # operational-space PD law bit for bit. The program's rank check and
    # cofactor inverse take its two constraint rows only; the empty
    # constraint's go through the oracle factor and numpy's inverse.
    monkeypatch.setattr(controllers, "check_row_rank", any_row_factor)
    monkeypatch.setattr(controllers, "small_inv", np.linalg.inv)
    state, trocar = _scenario_state(model)
    state.qdot = np.linspace(-0.2, 0.2, model.n)
    ref = _hold_reference(model, state.q)
    g = GainSet.from_proportional()
    snap = without_constraint(build_snapshot(model, state, trocar))
    out = _control("p_approach", snap, ref, g)
    tau_pd = unconstrained_pd_torque(snap, ref, g, DEFAULT_HOME)
    assert np.abs(out.tau - tau_pd).max() < 1e-10


def test_p_approach_equilibrium_accelerations(model):
    # At rest on the constraint with the tip on its reference, the commanded
    # torque produces zero tip and zero pivot acceleration. The bias is
    # compensated within the task and constraint spaces only; the null-space
    # gravity component is the null input's job, so full joint equilibrium
    # additionally needs the null-space term.
    state, trocar = _scenario_state(model)
    ref = _hold_reference(model, state.q)
    snap = build_snapshot(model, state, trocar)
    out = _control("p_approach", snap, ref, GainSet.from_proportional())
    qdd = forward_dynamics(model, state.q, state.qdot, out.tau)
    assert np.abs(snap.kin.Jp_t @ qdd).max() < 1e-8
    assert np.abs(snap.constraint.J @ qdd).max() < 1e-8


def test_p_approach_moving_trocar_feedforward(model):
    # With a moving trocar the commanded constraint acceleration includes the
    # rheonomic bias so the residual error dynamics stay homogeneous.
    state, _ = _scenario_state(model)
    kin = kinematics(model, state.q)
    p_c = place_trocar(kin.pose_r.p, kin.p_t, 0.5)
    acc = np.array([0.0, 0.0, -0.063])
    trocar = TrocarState(p_c, np.zeros(3), acc)
    ref = _hold_reference(model, state.q)
    snap = build_snapshot(model, state, trocar)
    out = _control("p_approach", snap, ref, GainSet.from_proportional())
    qdd = forward_dynamics(model, state.q, state.qdot, out.tau)
    xdd = snap.constraint.J @ qdd + snap.constraint.b
    # residual and rate are zero here, so the realized residual acceleration
    # must vanish despite the accelerating trocar
    assert np.abs(xdd).max() < 1e-9


# --- extended-Jacobian controller --------------------------------------------


def test_z_approach_gravity_consistent_equilibrium(model):
    state, trocar = _scenario_state(model)
    ref = _hold_reference(model, state.q)
    snap = build_snapshot(model, state, trocar)
    out = _control("z_approach", snap, ref, GainSet.from_proportional())
    grav = kinematics(model, state.q).h
    assert np.abs(out.tau - grav).max() < 1e-8


def test_z_approach_episode_realizes_its_constraint_command(model):
    # The reported command is the Jc qddot the torque realizes, bias
    # included, over the paper's 20 s episode.
    trace = run_episode(
        model, ControlSetup(variant="z_approach"), Scenario(alpha=0.5), SimConfig(duration=20.0)
    )
    assert trace.filled == 20001
    assert trace.constraint_gap.max() <= 1e-9


@pytest.mark.parametrize("seed", [0, 1])
def test_z_approach_stacked_bound_never_skips_a_singular_check(model, seed):
    # A constraint residual in small units (Jc scaled by 4e-12 to 4e-8)
    # spreads the stacked Jacobian's condition number over about 1e8 to 1e12.
    # The closed-form bound may clear a tick only where the SVD would not
    # raise: the controller raises exactly when sigma_min <= 1e-10 sigma_max
    # of J_E = [Jc; Z^#], formed here from a rotated SVD basis.
    rng = np.random.default_rng(seed)
    conds = []
    for _ in range(100):
        state, trocar = _scenario_state(model, rng, qd_scale=0.5)
        snap = build_snapshot(model, state, trocar)
        s = 4.0 * 10.0 ** rng.uniform(-12.0, -8.0)
        c = snap.constraint
        cs = ConstraintState(s * c.x, s * c.J, s * c.xdot, lambda s=s, c=c: (s * c.J_dot, s * c.b))
        snap = snap._replace(constraint=cs)
        Z = null_basis(cs.J) @ np.linalg.qr(rng.standard_normal((5, 5)))[0]
        Minv_JcT = snap.Minv.dot(cs.J.T)
        Z_sharp = Z.T - Z.T.dot(Minv_JcT).dot(small_inv(cs.J.dot(Minv_JcT)).dot(cs.J))
        sv = np.linalg.svd(np.concatenate([cs.J, Z_sharp]), compute_uv=False)
        conds.append(sv[0] / sv[-1])
        singular = sv[-1] <= controllers.STACKED_COND_TOL * sv[0]
        with pytest.raises(SingularExtendedJacobian) if singular else nullcontext():
            _control("z_approach", snap, _hold_reference(model, state.q),
                     GainSet.from_proportional())
    assert min(conds) < 1e9 and max(conds) > 1e11


@pytest.mark.parametrize("variant", ["p_approach", "z_approach", "uk"])
def test_dependent_constraint_rows_raise_before_inversion(model, monkeypatch, variant):
    # Two parallel residual rows: the core's rank check names the failure
    # before the singular constraint mobility is inverted, whichever variant
    # runs.
    state, trocar = _scenario_state(model)
    snap = build_snapshot(model, state, trocar)
    cs = snap.constraint
    J = np.stack([cs.J[0], 2.0 * cs.J[0]])
    snap = snap._replace(constraint=ConstraintState(cs.x, J, cs.xdot, lambda: (cs.J_dot, cs.b)))

    def forbidden(_):
        raise AssertionError("constraint mobility inverted")

    monkeypatch.setattr(controllers, "small_inv", forbidden)
    with pytest.raises(RankDeficientConstraint):
        _control(variant, snap, _hold_reference(model, state.q), GainSet.from_proportional())


# --- inertia-square-root controller ------------------------------------------


def test_uk_constraint_satisfaction_random_states(model, rng):
    g = GainSet.from_proportional()
    for _ in range(15):
        state, trocar = _scenario_state(model, rng, qd_scale=0.6)
        ref = _hold_reference(model, state.q)
        snap = build_snapshot(model, state, trocar)
        out = _control("uk", snap, ref, g)
        qdd = forward_dynamics(model, state.q, state.qdot, out.tau)
        assert np.abs(snap.constraint.J @ qdd - out.constraint_accel_cmd).max() < 1e-6


def test_uk_zero_feedback_reduction(model):
    # Perfect constraint satisfaction: the ideal term reduces to the pure
    # free-motion correction and the non-ideal term vanishes.
    state, trocar = _scenario_state(model)
    ref = _hold_reference(model, state.q)
    g = GainSet.from_proportional()
    snap = build_snapshot(model, state, trocar)
    cs = snap.constraint  # at rest on the constraint: residual zero, not rounding
    on_constraint = ConstraintState(np.zeros(2), cs.J, cs.xdot, lambda: (cs.J_dot, cs.b))
    snap = snap._replace(constraint=on_constraint)
    out = _control("uk", snap, ref, g)
    M, h = snap.kin.M, snap.kin.h
    S = matrix_sqrt(M)
    Pi = snap.constraint.J @ np.linalg.solve(S, np.eye(model.n))
    Q = out.tau - h - (
        S @ (pinv(Pi) @ (np.zeros(2) - snap.constraint.J @ np.linalg.solve(M, out.tau - h)))
    )
    # reconstruct: tau = Q + Qic + 0 + h with Qic = -S Pi^+ Jc M^-1 Q
    Qic_expected = -S @ (pinv(Pi) @ (snap.constraint.J @ np.linalg.solve(M, Q)))
    assert np.abs(out.tau - (Q + Qic_expected + h)).max() < 1e-8
    assert np.abs(out.constraint_accel_cmd).max() == 0.0


def test_uk_episode_tracks_the_tip(model):
    # 2 s at alpha 0.5 with the default gains: the tip follows the spiral to
    # within 2 mm on every axis over the settled window.
    trace = run_episode(model, ControlSetup(variant="uk"), Scenario(alpha=0.5),
                        SimConfig(duration=2.0))
    assert max(compute_metrics(trace).tip_mae) <= 2e-3


def test_uk_preserve_null_compensation_is_never_damped(model):
    # Tip and pivot rows are independent, so the compensation's stacked
    # mobility stays invertible on every tick.
    control = ControlSetup(variant="uk", observer=True, compensation=COMP_PRESERVE_NULL)
    trace = run_episode(model, control, Scenario(alpha=0.5), SimConfig(duration=0.3))
    assert trace.filled == 301
    assert np.count_nonzero(trace.damped[: trace.filled]) == 0


# --- every controller ----------------------------------------------------------


@pytest.mark.parametrize("variant", [
    pytest.param("p_approach", marks=pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: the null-space torque N_B (tau_0 - h) takes the null share "
               "of h back out, so the null space sags")),
    "z_approach",
    "uk",
])
def test_gravity_hold(model, variant):
    # At rest at the home posture, on the constraint, with the tip on its
    # reference and null-space stiffness on: the torque holds the arm still.
    state, trocar = _scenario_state(model)
    snap = build_snapshot(model, state, trocar)
    gains = GainSet.from_proportional(kp_null=5.0)
    out = _control(variant, snap, _hold_reference(model, state.q), gains)
    assert np.abs(snap.Minv.dot(out.tau - snap.kin.h)).max() <= 1e-9


def _moving_trocar_run(model, variant, duration):
    scenario = Scenario(alpha=0.5, trocar=TrocarSchedule(mode="sinusoidal"))
    control = ControlSetup(variant=variant, gains=GainSet.from_proportional(kp_null=5.0))
    return run_episode(model, control, scenario, SimConfig(duration=duration))


@pytest.fixture(scope="module")
def p_approach_moving_residual(model):
    return compute_metrics(_moving_trocar_run(model, "p_approach", 6.0)).residual_norm_mean


@pytest.mark.parametrize("variant", ["z_approach", "uk"])
def test_tracks_a_moving_trocar(model, p_approach_moving_residual, variant):
    # The core's pivot command carries the full acceleration bias b_c, so
    # under a moving trocar each baseline realizes it and holds the pivot as
    # closely as p_approach does. With -Jdot_c qd in place of -b_c
    # z_approach's residual reads 5.4e-7 m; uk without -b_c reads 3.3e-6 m.
    trace = _moving_trocar_run(model, variant, 6.0)
    residual = compute_metrics(trace).residual_norm_mean
    assert trace.constraint_gap.max() <= 1e-9
    assert residual <= 3e-7
    assert residual <= 2.0 * p_approach_moving_residual


@pytest.mark.parametrize("variant", [
    "p_approach",
    pytest.param("z_approach", marks=pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: z_approach passes tau_0 unprojected into the tip rows and "
               "has no tip bias, so the tip drifts off under a moving trocar")),
])
def test_moving_trocar_keeps_the_tip(model, variant):
    # 2 s at alpha 0.5 with the sinusoidal trocar and kp_null 5: the tip
    # follows the spiral to 10 um on every axis over the settled window.
    # p_approach reads under 0.2 um; z_approach reads [0.42, 0.45, 0.28] mm.
    trace = _moving_trocar_run(model, variant, 2.0)
    assert max(compute_metrics(trace).tip_mae) <= 1e-5


# --- oracle references ---------------------------------------------------------


def _random_case(model, rng, moving):
    """A random arm state with a pivot error, random gains with null-space
    stiffness, a moving reference and (optionally) an accelerating trocar."""
    state, trocar = _scenario_state(model, rng, alpha=rng.uniform(0.2, 0.9), qd_scale=0.8)
    p_c = trocar.p + rng.uniform(-0.01, 0.01, 3)  # off the tool axis: a pivot error
    trocar = TrocarState(p_c, rng.uniform(-0.05, 0.05, 3) if moving else np.zeros(3),
                         rng.uniform(-0.2, 0.2, 3) if moving else np.zeros(3))
    tip = kinematics(model, state.q).p_t
    ref = TaskReference(tip + rng.uniform(-0.005, 0.005, 3), rng.uniform(-0.05, 0.05, 3),
                        rng.uniform(-0.5, 0.5, 3))
    gains = GainSet.from_proportional(
        kp_task=rng.uniform(200.0, 2000.0), kp_rcm=rng.uniform(500.0, 3000.0),
        kp_null=rng.uniform(0.0, 10.0), kd_null=rng.uniform(0.0, 5.0),
    )
    q_init = DEFAULT_HOME + rng.uniform(-0.2, 0.2, model.n)
    return build_snapshot(model, state, trocar), ref, gains, q_init


def _rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("moving", [False, True])
def test_p_approach_matches_p_form_reference(model, moving):
    # The core without the orthogonal projector against the P form: the
    # completion's N_bar^T annihilates what P removes.
    rng = np.random.default_rng(11 + moving)
    worst = 0.0
    for _ in range(50):
        snap, ref, gains, q_init = _random_case(model, rng, moving)
        out = _control("p_approach", snap, ref, gains, q_init)
        tau, accel_cmd = p_approach_reference(snap, ref, gains, q_init)
        worst = max(worst, _rel_err(out.tau, tau), _rel_err(out.constraint_accel_cmd, accel_cmd))
    assert worst < 1e-9


@pytest.mark.parametrize("moving", [False, True])
def test_p_approach_realizes_its_tip_law(model, moving):
    # The tip half of consistency: fed through the plant, p_approach's torque
    # gives J qdd + Jdot qd = xdd_d + S (Kd ed + Kp e), with the constrained
    # tip mobility S = J (M^-1 - M^-1 Jc^T Lambda_c Jc M^-1) J^T, at states
    # with a pivot error. z_approach's tip law has ROADMAP item 1's defect,
    # and uk's completion overrides its unconstrained tip law by design.
    rng = np.random.default_rng(31 + moving)
    worst = 0.0
    for _ in range(50):
        snap, ref, gains, q_init = _random_case(model, rng, moving)
        out = _control("p_approach", snap, ref, gains, q_init)
        kin, Jc = snap.kin, snap.constraint.J
        J = kin.Jp_t
        qdd = forward_dynamics(model, kin.q, kin.qdot, out.tau)
        Minv = np.linalg.inv(kin.M)
        MJt, MJct = Minv @ J.T, Minv @ Jc.T
        S = J @ MJt - (J @ MJct) @ np.linalg.solve(Jc @ MJct, MJct.T @ J.T)
        pd = gains.kd_task * (ref.xdot - kin.v_t) + gains.kp_task * (ref.x - kin.p_t)
        law = ref.xddot + S @ pd
        # Relative to the larger of the law and the torque's own tip
        # acceleration J M^-1 tau: the realized one is the difference of
        # tau's and h's, and its rounding scales with them. Relative to the
        # law alone, the worst of these states reads 4.4e-10.
        scale = max(np.abs(law).max(), np.abs(J @ (Minv @ out.tau)).max())
        worst = max(worst, np.abs(J @ qdd + kin.abias_t - law).max() / scale)
    assert worst < 1e-9


@pytest.mark.parametrize("moving", [False, True])
def test_uk_reduced_form_matches_sqrt_reference(model, moving):
    # tau_sharp + Jc^T Lambda_c (a_cmd - Jc M^-1 (tau_sharp - h)) against the
    # published M^1/2 form with b_ic := a_cmd, whose non-ideal term Q_nic
    # must vanish.
    rng = np.random.default_rng(9 + 10 * moving)
    worst = 0.0
    for _ in range(50):
        snap, ref, gains, q_init = _random_case(model, rng, moving)
        out = _control("uk", snap, ref, gains, q_init)
        worst = max(worst, _rel_err(out.tau, uk_sqrt_reference(snap, ref, gains, q_init)))
    assert worst < 1e-9


@pytest.mark.parametrize("moving", [False, True])
def test_z_approach_matches_pre_change_torque(model, moving):
    rng = np.random.default_rng(5 + 10 * moving)
    worst = 0.0
    for _ in range(50):
        snap, ref, gains, q_init = _random_case(model, rng, moving)
        out = _control("z_approach", snap, ref, gains, q_init)
        # The projector form matches the basis form for the SVD basis and for
        # random rotations of it: the torque does not depend on the basis.
        Z = null_basis(snap.constraint.J)
        m = Z.shape[1]
        for R in [np.eye(m)] + [np.linalg.qr(rng.standard_normal((m, m)))[0] for _ in range(3)]:
            tau, accel_cmd = z_approach_reference(snap, ref, gains, q_init, Z @ R)
            worst = max(worst, _rel_err(out.tau, tau), _rel_err(out.constraint_accel_cmd, accel_cmd))
    assert worst < 1e-9


def test_per_tick_factorizations(model, rng, monkeypatch):
    # uk forms neither M^1/2 nor a pseudoinverse nor a projector; the core
    # certifies Jc's rank from its Gram matrix on a healthy tick, so uk and
    # p_approach form no exact two-row factor; z_approach, on its first call,
    # works in projector form and bounds the stacked conditioning in closed
    # form: no SVD, no numpy solve or inverse.
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    def forbidden(*_):
        raise AssertionError("exact factor formed")

    assert not hasattr(controllers, "matrix_sqrt") and not hasattr(controllers, "pinv")
    state, trocar = _scenario_state(model, rng, qd_scale=0.5)
    ref = _hold_reference(model, state.q)
    snap = build_snapshot(model, state, trocar)
    for name in ("svd", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    with monkeypatch.context() as patch:
        patch.setattr(controllers, "row_factor", forbidden)
        patch.setattr(numerics, "row_factor", forbidden)
        _control("uk", snap, ref, GainSet.from_proportional())
        assert calls == []
        _control("p_approach", snap, ref, GainSet.from_proportional())
    assert calls == []
    _control("z_approach", snap, ref, GainSet.from_proportional())
    assert calls == []


def test_ticks_form_only_the_terms_they_read(model, rng, monkeypatch):
    # The core's pivot command reads b_c, so p_approach's and uk's ticks form
    # the constraint rate terms: the patched method is the one they call.
    def forbidden(*_):
        raise AssertionError("unread or exact term formed")

    for moving in (False, True):
        state, trocar = _scenario_state(model, rng, qd_scale=0.5)
        if moving:
            trocar = TrocarState(trocar.p, rng.uniform(-0.05, 0.05, 3), rng.uniform(-0.1, 0.1, 3))
        ref = _hold_reference(model, state.q)
        with monkeypatch.context() as patch:
            patch.setattr(KinFrames, "coincident_rate", forbidden)
            snap = build_snapshot(model, state, trocar)
            for variant in ("p_approach", "uk"):
                with pytest.raises(AssertionError, match="unread or exact term formed"):
                    _control(variant, snap, ref, GainSet.from_proportional())


class _GramCounted(np.ndarray):
    """A constraint Jacobian that counts the products of itself with its own
    transpose, Jc Jc^T, by ndarray.dot or @; products and ufuncs return plain arrays."""

    grams = 0

    def _count(self, other):
        if isinstance(other, _GramCounted) and np.shares_memory(self, other) and (
            self.shape == other.shape[::-1] == (2, 7)
        ):
            _GramCounted.grams += 1

    def dot(self, other, *args):
        self._count(other)
        return np.asarray(self).dot(np.asarray(other), *args)

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul and len(inputs) == 2 and isinstance(inputs[0], _GramCounted):
            inputs[0]._count(inputs[1])
        plain = [np.asarray(x) if isinstance(x, _GramCounted) else x for x in inputs]
        if out is not None:  # an in-place operation writes through a plain view
            kwargs["out"] = tuple(np.asarray(x) for x in out)
        return getattr(ufunc, method)(*plain, **kwargs)


def test_z_approach_forms_the_gram_matrix_once(model, rng):
    # The core's rank certificate forms Jc Jc^T; z_approach factors Jc by
    # Gram-Schmidt from its rows and does not form it a second time.
    for moving in (False, True):
        snap, ref, gains, q_init = _random_case(model, rng, moving)
        expected = _control("z_approach", snap, ref, gains, q_init).tau
        snap.constraint.J = snap.constraint.J.view(_GramCounted)
        _GramCounted.grams = 0
        out = _control("z_approach", snap, ref, gains, q_init)
        assert _GramCounted.grams == 1
        assert np.array_equal(out.tau, expected)


def test_snapshot_tip_terms_match_the_tip_jacobian(model, rng):
    # abias_t is Jdot_t qd: a central difference of J_t qd along qd, at the
    # Jdot tolerance; v_t is J_t qd.
    step = 1e-6
    for _ in range(10):
        state, trocar = _scenario_state(model, rng, qd_scale=1.0)
        q, qd = state.q, state.qdot
        snap = build_snapshot(model, state, trocar)
        fd = (kinematics(model, q + step * qd).Jp_t - kinematics(model, q - step * qd).Jp_t) @ qd
        assert np.abs(snap.kin.abias_t - fd / (2.0 * step)).max() < 1e-6
        assert np.abs(snap.kin.v_t - snap.kin.Jp_t @ qd).max() < 1e-15


# --- observer -----------------------------------------------------------------


def test_observer_stays_zero_without_disturbance(model):
    state = JointState(DEFAULT_HOME.copy(), np.zeros(model.n))
    kin = kinematics(model, state.q, state.qdot)
    obs = ObserverState.initial(kin, gain=50.0)
    for _ in range(100):
        obs = observer_step(obs, kin.h, 1e-3, kin)
    assert np.abs(obs.tau_ext_hat).max() < 1e-12


def test_observer_zero_gain_frozen(model):
    state = JointState(DEFAULT_HOME.copy(), np.zeros(model.n))
    kin = kinematics(model, state.q, state.qdot)
    obs = ObserverState.initial(kin, gain=0.0)
    tau = np.ones(model.n)
    for _ in range(50):
        obs = observer_step(obs, tau, 1e-3, kin)
    assert np.abs(obs.tau_ext_hat).max() == 0.0


def test_observer_first_order_convergence(model):
    # Constant 2 N m on joint 4, gain 50/s: |tau_hat + tau_ext| < 0.1 after
    # 0.2 s of simulated free motion (time constant 1/gain = 20 ms).
    dt = 1e-3
    state = JointState(DEFAULT_HOME.copy(), np.zeros(model.n))
    obs = ObserverState.initial(kinematics(model, state.q), gain=50.0)
    tau_ext = np.zeros(model.n)
    tau_ext[3] = 2.0
    t = 0.0
    while t < 0.2:
        # gravity-compensated free float under the disturbance
        tau_cmd = kinematics(model, state.q).h
        qdd = forward_dynamics(model, state.q, state.qdot, tau_cmd, tau_ext)
        qd = state.qdot + dt * qdd
        state = JointState(state.q + dt * qd, qd)
        obs = observer_step(obs, tau_cmd, dt, kinematics(model, state.q, state.qdot))
        t += dt
    assert abs(obs.tau_ext_hat[3] + 2.0) < 0.1
    # first-order behavior: error decays with time constant 1/gain (10%)
    assert abs(obs.tau_ext_hat[3] + 2.0) < 2.0 * np.exp(-0.2 * 50.0) + 0.02


# --- compensation modes -------------------------------------------------------


def test_compensation_modes(model, rng):
    state, trocar = _scenario_state(model, rng, qd_scale=0.3)
    snap = build_snapshot(model, state, trocar)
    mob = stacked_mobility(snap)
    tau_hat = rng.uniform(-2, 2, model.n)
    # no estimate, or an estimate with compensation off: the torque is the
    # uncompensated one, bit for bit
    ref = _hold_reference(model, state.q)
    plain = _control("p_approach", snap, ref, GainSet.from_proportional()).tau
    off = control_torque(ControlSetup(compensation=COMP_OFF), snap, ref, DEFAULT_HOME, tau_hat)
    assert np.array_equal(off.tau, plain)
    assert np.array_equal(compensation_torque(tau_hat, COMP_FULL, mob)[0], tau_hat)
    partial, damped = compensation_torque(tau_hat, COMP_PRESERVE_NULL, mob)
    assert not damped
    # the uncompensated remainder produces no tip or pivot acceleration
    leftover = tau_hat - partial
    M = snap.kin.M
    assert np.abs(snap.kin.Jp_t @ np.linalg.solve(M, leftover)).max() < 1e-8
    assert np.abs(snap.constraint.J @ np.linalg.solve(M, leftover)).max() < 1e-8


@pytest.mark.parametrize("observer", [False, True])
def test_unknown_compensation_rejected_at_setup(observer):
    # The config's rule, whether or not the observer would ever use it.
    with pytest.raises(ConfigError, match=r"^compensation: must be off/full/preserve_null$"):
        ControlSetup(observer=observer, compensation="bogus")


def test_unknown_variant_rejected_at_setup():
    # the run config's rule and message, naming the field
    with pytest.raises(ConfigError, match=r"^variant: must be one of p_approach/z_approach/uk$"):
        ControlSetup(variant="pid")
