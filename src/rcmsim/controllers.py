"""Torque controllers for RCM-constrained tool-tip tracking.

Every variant is a free-motion torque plus a constraint term Jc^T f, and all
three share one interface: ``control_torque`` takes the tick's
``ControlSnapshot``, runs the configured variant and adds the disturbance
compensation.

* projected controller: orthogonal torque decomposition with an exactly
  enforced pivot constraint and operational-space tip tracking in the
  free-motion subspace;
* extended-Jacobian controller: stacked constraint/null-space coordinates
  with a metric-weighted null basis (comparison baseline, static trocar);
* Udwadia-Kalaba controller: the unconstrained tip law completed by the
  ideal constraint force, in its reduced form (comparison baseline).

The controllers are pure functions of the snapshot, the reference, the
setup and the episode's start configuration; the one integration state,
the observer's momentum, is passed explicitly by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import SingularExtendedJacobian
from .numerics import lu_inv, row_factor, small_inv
from .projection import sym_inv
from .rcm import ConstraintState, RcmMode, TrocarState, constraint_from_kin
from . import robot
from .robot import JointState, KinFrames, RobotModel, kinematics
from .scenarios import TaskReference
from .schema import NON_NEGATIVE, POSITIVE, Rule, fail

P_APPROACH = "p_approach"
Z_APPROACH = "z_approach"
UK = "uk"

# The variants and the pivot residual each controller is defined on.
RCM_MODE = {P_APPROACH: RcmMode.TWO_D, Z_APPROACH: RcmMode.TWO_D, UK: RcmMode.THREE_D}

# Gain defaults of library and config runs alike.
KP_TASK = 1000.0  # N/m
KP_RCM = 1500.0  # N/m
OBSERVER_GAIN = 50.0  # 1/s
# Null-space joint damping applied when no null-space stiffness is active:
# the simulated arm is frictionless, so internal motion would otherwise
# wander undamped [N m s/rad].
NULL_DAMPING = 4.0

# sigma_min/sigma_max below which the extended Jacobian counts as singular
STACKED_COND_TOL = 1e-10


def _as_diag(value, size: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(size, float(arr[0]))
    if arr.shape != (size,):
        raise ValueError(f"{name}: expected scalar or length-{size} vector")
    if np.any(arr < 0):
        fail(name, NON_NEGATIVE.message)
    return arr


@dataclass(frozen=True)
class GainSet:
    """Diagonal gain vectors for the task, pivot and null-space loops.

    Units: task N/m and N s/m, pivot N/m and N s/m, null-space N m/rad and
    N m s/rad, observer 1/s. Derivative gains default element-wise to
    2 sqrt(proportional).
    """

    kp_task: np.ndarray
    kd_task: np.ndarray
    kp_rcm: np.ndarray
    kd_rcm: np.ndarray
    kp_null: np.ndarray
    kd_null: np.ndarray
    observer_gain: float = OBSERVER_GAIN

    @classmethod
    def from_proportional(
        cls,
        kp_task=KP_TASK,
        kp_rcm=KP_RCM,
        kp_null=0.0,
        observer_gain: float = OBSERVER_GAIN,
        n_joints: int = 7,
        kd_task=None,
        kd_rcm=None,
        kd_null=None,
    ) -> "GainSet":
        kp_task = _as_diag(kp_task, 3, "kp_task")
        kp_rcm = _as_diag(kp_rcm, 3, "kp_rcm")  # sliced to k rows at use
        kp_null = _as_diag(kp_null, n_joints, "kp_null")
        kd_task = 2.0 * np.sqrt(kp_task) if kd_task is None else _as_diag(kd_task, 3, "kd_task")
        kd_rcm = 2.0 * np.sqrt(kp_rcm) if kd_rcm is None else _as_diag(kd_rcm, 3, "kd_rcm")
        kd_null = (
            2.0 * np.sqrt(kp_null) if kd_null is None else _as_diag(kd_null, n_joints, "kd_null")
        )
        if not NON_NEGATIVE.ok(observer_gain):
            fail("observer_gain", NON_NEGATIVE.message)
        return cls(
            kp_task=kp_task,
            kd_task=kd_task,
            kp_rcm=kp_rcm,
            kd_rcm=kd_rcm,
            kp_null=kp_null,
            kd_null=kd_null,
            observer_gain=float(observer_gain),
        )


COMP_OFF = "off"
COMP_FULL = "full"
COMP_PRESERVE_NULL = "preserve_null"
COMPENSATION = Rule(
    lambda v: v in (COMP_OFF, COMP_FULL, COMP_PRESERVE_NULL), "must be off/full/preserve_null"
)


@dataclass
class ControlSetup:
    """Which controller runs the episode and how it is configured."""

    variant: str = P_APPROACH
    gains: GainSet | None = None
    observer: bool = False
    compensation: str = COMP_FULL

    def __post_init__(self):
        if self.variant not in RCM_MODE:
            raise ValueError(f"unknown controller variant {self.variant!r}")
        if not COMPENSATION.ok(self.compensation):
            fail("compensation", COMPENSATION.message)
        if self.gains is None:
            self.gains = GainSet.from_proportional(kd_null=NULL_DAMPING)


class ControllerOutput(NamedTuple):
    """Torque command and its decomposition.

    tau = tau_parallel + tau_perp + tau_ext_hat: ``tau_perp`` is the
    variant's constraint term Jc^T f, ``tau_parallel`` the free-motion rest
    and ``tau_ext_hat`` the compensation torque actually added (the float
    0.0 when compensation is off or there is no estimate).
    ``constraint_accel_cmd`` is the constraint-space joint acceleration the
    controller commands (what Jc qddot should equal in closed loop).
    ``damped`` counts the tick's inertia inverses (the variant's and the
    compensation's) that fell back to the damped inverse.
    """

    tau: np.ndarray
    tau_parallel: np.ndarray
    tau_perp: np.ndarray
    tau_ext_hat: np.ndarray | float
    constraint_accel_cmd: np.ndarray
    damped: int


class ControlSnapshot(NamedTuple):
    """Shared per-tick quantities every controller needs.

    ``kin`` is the frame pass at the state (it also carries Mdot for the
    controllers that need it); ``Minv`` is the one factorisation of M that
    the controllers and the plant solve share.
    """

    state: JointState
    kin: KinFrames
    M: np.ndarray
    Minv: np.ndarray
    h: np.ndarray
    J_task: np.ndarray  # 3 x n tip translational Jacobian
    Jdot_task: np.ndarray
    tip_vel: np.ndarray
    constraint: ConstraintState


def build_snapshot(
    model: RobotModel,
    state: JointState,
    trocar: TrocarState,
    mode: RcmMode,
) -> ControlSnapshot:
    # through the module attribute, so a wrapper set there sees every pass
    kin = robot.KinFrames(model.chain, state.q, state.qdot)
    J_task = kin.Jp_t
    return ControlSnapshot(
        state=state,
        kin=kin,
        M=kin.M,
        Minv=lu_inv(kin.M),
        h=kin.h,
        J_task=J_task,
        Jdot_task=kin.Jpdot_t,
        tip_vel=J_task.dot(state.qdot),
        constraint=constraint_from_kin(kin, state.qdot, trocar, mode),
    )


def free_space_force(
    Lambda_f: np.ndarray,
    h_f: np.ndarray,
    ref: TaskReference,
    x: np.ndarray,
    xdot: np.ndarray,
    gains: GainSet,
) -> np.ndarray:
    """Model-based PD task force: Lambda_f xdd_d + Kd ed + Kp e + h_f."""
    e = ref.x - x
    edot = ref.xdot - xdot
    return Lambda_f.dot(ref.xddot) + gains.kd_task * edot + gains.kp_task * e + h_f


def nullspace_torque(
    q: np.ndarray, qdot: np.ndarray, q_init: np.ndarray, gains: GainSet
) -> np.ndarray:
    """Joint-space compliance about the initial configuration."""
    return -gains.kd_null * qdot - gains.kp_null * (q - q_init)


class ObserverState(NamedTuple):
    """First-order momentum-residual observer.

    ``p_hat`` integrates dp_hat/dt = tau - n(q, qd) + r with
    n = c + g - Mdot qd and r = gain (p - p_hat); the published estimate is
    tau_ext_hat = -r, so that tau_ext_hat + tau_ext -> 0 on constant
    disturbances with time constant 1/gain. The update is trapezoidal in both
    n and r (the explicit form leaves a velocity-dependent estimate bias that
    feeds straight into the compensation torque).
    """

    gain: float
    p_hat: np.ndarray
    tau_ext_hat: np.ndarray
    n_prev: np.ndarray

    @classmethod
    def initial(cls, model: RobotModel, state: JointState, gain: float) -> "ObserverState":
        kin = kinematics(model, state.q, state.qdot)
        return cls(
            gain=float(gain),
            p_hat=kin.M @ state.qdot,
            tau_ext_hat=np.zeros(model.n),
            n_prev=_momentum_bias(kin, state.qdot),
        )


def _momentum_bias(kin: KinFrames, qdot: np.ndarray) -> np.ndarray:
    """n(q, qd) = c + g - Mdot qd, the drift of the generalized momentum."""
    return kin.h - kin.Mdot @ qdot


def observer_step(
    obs: ObserverState,
    state: JointState,
    tau_applied: np.ndarray,
    dt: float,
    kin: KinFrames,
) -> ObserverState:
    """Advance the momentum observer by one control period.

    ``state`` is the post-integration state; ``tau_applied`` the total torque
    commanded over the elapsed period (zero-order hold); ``kin`` the frame
    pass at ``state`` (the next tick's snapshot holds it).
    """
    if not POSITIVE.ok(dt):
        fail("dt", POSITIVE.message)
    qd = state.qdot
    n_new = _momentum_bias(kin, qd)
    n_mid = 0.5 * (obs.n_prev + n_new)
    r_old = -obs.tau_ext_hat
    drift = obs.p_hat + dt * (tau_applied - n_mid + 0.5 * r_old)
    r_new = obs.gain * (kin.M @ qd - drift) / (1.0 + 0.5 * obs.gain * dt)
    p_hat = drift + 0.5 * dt * r_new
    return ObserverState(gain=obs.gain, p_hat=p_hat, tau_ext_hat=-r_new, n_prev=n_new)


def compensation_torque(
    tau_ext_hat: np.ndarray | None, mode: str, snap: ControlSnapshot
) -> tuple[np.ndarray, bool]:
    """Disturbance-compensation torque actually added to the command, and
    whether its inertia inverse was damped.

    ``preserve_null`` removes only the components that would accelerate the
    tip task or the pivot constraint, leaving the null-space response free so
    intentional interaction is expressed as compliance instead of rejected.
    """
    n = snap.M.shape[0]
    if tau_ext_hat is None or mode == COMP_OFF:
        return np.zeros(n), False
    if mode == COMP_FULL:
        return tau_ext_hat, False
    J_aug = np.concatenate([snap.J_task, snap.constraint.J], axis=0)
    JMinv = J_aug.dot(snap.Minv)
    Lam, damped = sym_inv(JMinv.dot(J_aug.T))
    # tau - N_aug tau with N_aug = I - J_aug^T Lam J_aug M^-1, as three
    # products with vectors instead of the n x n projector
    return J_aug.T.dot(Lam.dot(JMinv.dot(tau_ext_hat))), damped


class Torque(NamedTuple):
    """A variant's command before compensation: tau = parallel + perp, with
    ``perp`` its constraint term Jc^T f; ``accel_cmd`` is the Jc qddot it
    commands and ``damped`` whether its task-inertia inverse was damped."""

    parallel: np.ndarray
    perp: np.ndarray
    accel_cmd: np.ndarray
    damped: bool


def control_torque(
    setup: ControlSetup,
    snap: ControlSnapshot,
    ref: TaskReference,
    q_init: np.ndarray,
    tau_ext_hat: np.ndarray | None = None,
    x_c_ref: np.ndarray | None = None,
) -> ControllerOutput:
    """One controller tick: the configured variant plus the disturbance
    compensation of ``tau_ext_hat``.

    ``q_init`` is the centre of the null-space compliance. ``x_c_ref`` is
    the pivot-residual set-point (default zero); in the 3D residual its third
    component is the signed axial offset of the reference frame from the
    trocar, which is nonzero by construction, so the caller passes the
    initial residual there.
    """
    # resolved at call time, so a wrapper set on the module attribute sees the call
    variant = (
        p_approach_torque if setup.variant == P_APPROACH
        else z_approach_torque if setup.variant == Z_APPROACH
        else uk_torque
    )
    tau_par, tau_perp, a_cmd, damped = variant(snap, ref, setup, q_init, x_c_ref)
    tau = tau_par + tau_perp
    if tau_ext_hat is None or setup.compensation == COMP_OFF:
        return ControllerOutput(tau, tau_par, tau_perp, 0.0, a_cmd, damped)
    tau_c, damped_c = compensation_torque(tau_ext_hat, setup.compensation, snap)
    return ControllerOutput(tau + tau_c, tau_par, tau_perp, tau_c, a_cmd, damped + damped_c)


def _pivot_pd(cs: ConstraintState, gains: GainSet, x_c_ref: np.ndarray | None) -> np.ndarray:
    """Kd xdot_c + Kp (x_c - x_c_ref) on the k residual rows."""
    k = cs.J.shape[0]
    x_err = cs.x if x_c_ref is None else cs.x - x_c_ref
    return gains.kd_rcm[:k] * cs.xdot + gains.kp_rcm[:k] * x_err


def _constraint_inertia(cs: ConstraintState, Minv: np.ndarray):
    """(M^-1 Jc^T, mobility Jc M^-1 Jc^T, its inverse Lambda_c)."""
    Minv_JcT = Minv.dot(cs.J.T)
    mobility_c = cs.J.dot(Minv_JcT)
    return Minv_JcT, mobility_c, small_inv(mobility_c)


def _free_mobility(J: np.ndarray, Minv: np.ndarray, Minv_JcT: np.ndarray, Lambda_c: np.ndarray):
    """(J M^-1 Jc^T Lambda_c, J N), N = M^-1 - M^-1 Jc^T Lambda_c Jc M^-1."""
    JG = J.dot(Minv_JcT).dot(Lambda_c)
    return JG, J.dot(Minv) - JG.dot(Minv_JcT.T)


def _completion(
    snap: ControlSnapshot, Lambda_c: np.ndarray, a_cmd: np.ndarray, tau_free: np.ndarray
) -> np.ndarray:
    """Jc^T Lambda_c (a_cmd + Jc M^-1 (h - tau_free)): the constraint torque
    that, added to ``tau_free``, makes Jc qddot = a_cmd exactly."""
    Jc = snap.constraint.J
    f_c = Lambda_c.dot(a_cmd + Jc.dot(snap.Minv.dot(snap.h - tau_free)))
    return Jc.T.dot(f_c)


def _task_torque(
    snap: ControlSnapshot,
    ref: TaskReference,
    gains: GainSet,
    q_init: np.ndarray,
    Lambda: np.ndarray,
    h_task: np.ndarray,
    B: np.ndarray,
) -> np.ndarray:
    """J^T f + N_bar tau_0: the tip PD force f through the task inertia
    ``Lambda`` and bias ``h_task``, and the null-space torque through
    N_bar = I - J^T Lambda B."""
    state = snap.state
    f = free_space_force(Lambda, h_task, ref, snap.kin.pose_t.p, snap.tip_vel, gains)
    tau_0 = nullspace_torque(state.q, state.qdot, q_init, gains)
    return snap.J_task.T.dot(f - Lambda.dot(B.dot(tau_0))) + tau_0


def p_approach_torque(
    snap: ControlSnapshot,
    ref: TaskReference,
    setup: ControlSetup,
    q_init: np.ndarray,
    x_c_ref: np.ndarray | None = None,
) -> Torque:
    """Projected constraint-consistent controller.

    The free-motion torque runs operational-space PD tracking of the tip plus
    null-space compliance, projected onto the admissible subspace; the
    constrained torque enforces the commanded constraint acceleration exactly,
    including the coupling of the projected free torque into the constraint
    space: f_c = Lambda_c (a_cmd + Jc M^-1 (h - tau_parallel)). In closed loop
    (no unmodelled external torque) this yields Jc qddot = a_cmd to solver
    precision and clean PD error dynamics for the tip.

    The pivot command is -Lambda_c^-1 (Kd xdot + Kp x_err) less the
    acceleration bias b_c, so the residual dynamics stay homogeneous with a
    moving trocar. The task terms are those of the operational-space law on
    the free-motion inertia M_f = P M + (I - P), formed from the snapshot's
    M^-1: M_f^-1 P = M^-1 - M^-1 Jc^T Lambda_c Jc M^-1, and the constraint
    feedforward M_f^-1 Jc^+ a_cmd = M^-1 Jc^T Lambda_c a_cmd.
    """
    cs = snap.constraint
    Minv, J = snap.Minv, snap.J_task
    # Products use ndarray.dot, which costs less per call than @ on these
    # small operands; this runs every tick.
    Q = row_factor(cs.J)[1]
    Minv_JcT, mobility_c, Lambda_c = _constraint_inertia(cs, Minv)
    a_cmd = -mobility_c.dot(_pivot_pd(cs, setup.gains, x_c_ref)) - cs.b

    JG, B = _free_mobility(J, Minv, Minv_JcT, Lambda_c)
    Lambda_f, damped = sym_inv(B.dot(J.T))
    h_f = Lambda_f.dot(B.dot(snap.h) - snap.Jdot_task.dot(snap.state.qdot) - JG.dot(a_cmd))
    tau_f = _task_torque(snap, ref, setup.gains, q_init, Lambda_f, h_f, B)
    # The Moore-Penrose inverse of the orthogonal projector P = I - Q^T Q is P.
    tau_par = tau_f - Q.T.dot(Q.dot(tau_f))
    return Torque(tau_par, _completion(snap, Lambda_c, a_cmd, tau_par), a_cmd, damped)


@cache
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity, built once per joint count."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def z_approach_torque(
    snap: ControlSnapshot,
    ref: TaskReference,
    setup: ControlSetup,
    q_init: np.ndarray,
    x_c_ref: np.ndarray | None = None,
) -> Torque:
    """Extended-Jacobian baseline controller (static trocar).

    Stacks the constraint Jacobian over Z^# = Lambda_n^-1 Z^T M, the
    inertia-weighted inverse of an orthonormal basis Z of null(Jc)
    (Lambda_n = Z^T M Z), drives the pivot residual with a PD force and the
    tip task through the null-space rows. The bias torque is the
    stacked-coordinate bias mapped through the stacked Jacobian transpose, so
    a resting arm at zero error receives exactly the gravity torque.

    The torque depends on Z only through P = Z Z^T and the gauge-locked rate
    Zdot = -Jc^+ Jdot_c Z, so it is formed without a basis. With Jc = L Q
    (``row_factor``), G = M^-1 Jc^T Lambda_c, A = I - G Jc and nu = Z^# qd:

        P = I - Q^T Q,  Jc^+ = Q^T L^-1,  Z^# = Z^T A,  Z nu = P A qd,
        Z^#^T Z^T v = A^T P v,  Zdot nu = -Jc^+ Jdot_c Z nu,
        Z Zdot^T = -P Jdot_c^T Jc^+^T.
    """
    cs, gains, qd = snap.constraint, setup.gains, snap.state.qdot
    M, Minv, J, Jc = snap.M, snap.Minv, snap.J_task, cs.J
    L, Q = row_factor(Jc)
    P = _identity(Jc.shape[1]) - Q.T.dot(Q)
    Jc_pinv = Q.T.dot(small_inv(L))
    Minv_JcT, mobility_c, Lambda_c = _constraint_inertia(cs, Minv)
    G = Minv_JcT.dot(Lambda_c)

    # J_E = [Jc; Z^#] has the inverse [G, Z], so ||J_E||_F ||J_E^-1||_F bounds
    # its condition number, with ||Z^#||_F^2 = ||P A||_F^2 = m + ||P G L||_F^2
    # (Jc P = 0). Only a bound that does not clear the tolerance by a factor 2
    # (room for the rounding of the formed inverse) leaves it to the SVD of
    # [Jc; P A], whose singular values are those of J_E.
    m = Jc.shape[1] - Jc.shape[0]
    PGL = P.dot(G.dot(L))
    bound_sq = (np.vdot(Jc, Jc) + m + np.vdot(PGL, PGL)) * (np.vdot(G, G) + m)
    if 4.0 * STACKED_COND_TOL * STACKED_COND_TOL * bound_sq >= 1.0:
        sv = np.linalg.svd(np.concatenate([Jc, P - PGL.dot(Q)]), compute_uv=False)
        if sv[-1] <= STACKED_COND_TOL * sv[0]:
            raise SingularExtendedJacobian(
                f"stacked Jacobian near singular (sigma_min={sv[-1]:.3e})"
            )

    H_top = Lambda_c.dot(Jc.dot(Minv.dot(snap.h)) - cs.J_dot.dot(qd))
    f_c = -_pivot_pd(cs, gains, x_c_ref)
    # Feedforward through this controller's own constrained tip mobility
    # J Z Lambda_n^-1 Z^T J^T = J N J^T: the acceleration reference maps exactly.
    Lambda_zn, damped = sym_inv(_free_mobility(J, Minv, Minv_JcT, Lambda_c)[1].dot(J.T))
    f_f = free_space_force(Lambda_zn, 0.0, ref, snap.kin.pose_t.p, snap.tip_vel, gains)
    tau_0 = nullspace_torque(snap.state.q, qd, q_init, gains)
    # Z (f_n + H_bot), with f_n = Z^T (J^T f_f + tau_0), the bias
    # H_bot = Lambda_n (Z^# M^-1 h - d/dt(Z^#) qd) and u = qd - Z nu, is
    # P (J^T f_f + tau_0 + h - Mdot u + M Zdot nu) - Z Zdot^T M u.
    Z_nu = P.dot(qd - G.dot(Jc.dot(qd)))
    u = qd - Z_nu
    v = P.dot(J.T.dot(f_f) + tau_0 + snap.h - snap.kin.Mdot.dot(u)
              - M.dot(Jc_pinv.dot(cs.J_dot.dot(Z_nu))) + cs.J_dot.T.dot(Jc_pinv.T.dot(M.dot(u))))
    # The torque realizes Jc qddot = mobility_c f_c - b_c.
    tau_par = v - Jc.T.dot(G.T.dot(v))
    return Torque(tau_par, Jc.T.dot(f_c + H_top), mobility_c.dot(f_c) - cs.b, damped)


def uk_torque(
    snap: ControlSnapshot,
    ref: TaskReference,
    setup: ControlSetup,
    q_init: np.ndarray,
    x_c_ref: np.ndarray | None = None,
) -> Torque:
    """Udwadia-Kalaba baseline: the unconstrained tip law completed by the
    ideal constraint force.

    tau_sharp is the operational-space PD tip torque with no constraint
    (same gains as the projected controller's free-space task, null-space
    term through the unconstrained dynamically consistent projector) and
    b_ic = -(Kd xdot_c + Kp x_err) the commanded constraint acceleration.
    The published form splits the constraint torque through
    Pi = Jc M^-1/2 into an ideal and a non-ideal part with tau_nic = Jc^T b_ic:

        Q_ic  = M^1/2 Pi^+ (b_ic - Jc M^-1 (tau_sharp - h))
        Q_nic = M^1/2 (I - Pi^+ Pi) M^-1/2 tau_nic

    Since Pi^+ = M^-1/2 Jc^T Lambda_c, M^1/2 Pi^+ = Jc^T Lambda_c, and
    (I - Pi^+ Pi) M^-1/2 Jc^T = (I - Pi^+ Pi) Pi^T = 0, so Q_nic vanishes and

        tau = tau_sharp + Jc^T Lambda_c (b_ic - Jc M^-1 (tau_sharp - h)),

    the completion the projected controller applies to its free torque. In
    closed loop Jc qddot = b_ic exactly.
    """
    cs = snap.constraint
    gains = setup.gains
    J, Minv = snap.J_task, snap.Minv
    B = J.dot(Minv)
    Lambda_tip, damped = sym_inv(B.dot(J.T))
    h_tip = Lambda_tip.dot(B.dot(snap.h) - snap.Jdot_task.dot(snap.state.qdot))
    tau_sharp = _task_torque(snap, ref, gains, q_init, Lambda_tip, h_tip, B)
    b_ic = -_pivot_pd(cs, gains, x_c_ref)
    _, _, Lambda_c = _constraint_inertia(cs, Minv)
    return Torque(tau_sharp, _completion(snap, Lambda_c, b_ic, tau_sharp), b_ic, damped)
