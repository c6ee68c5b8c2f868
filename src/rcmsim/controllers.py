"""Torque controllers for RCM-constrained tool-tip tracking.

The three variants share one core, the constraint-consistent completion

    tau = N_bar^T tau_task + Jc^T Lambda_c (a_cmd + Jc M^-1 h),
    N_bar^T = I - Jc^T Lambda_c Jc M^-1,

which makes Jc qddot = a_cmd exactly in closed loop, and one stacked
mobility K = [J; Jc] M^-1 [J; Jc]^T per tick (``Mobility``): Lambda_c =
K_cc^-1 and S = K_tt - K_tc Lambda_c K_ct. A variant is its tip inertia
Lambda and bias h_task (the tip force is f = Lambda xdd_d + Kd ed + Kp e +
h_task), its task/null-space law and its pivot command:

    variant     Lambda   h_task                  tau_task                 a_cmd
    p_approach  S^-1     Lambda (B h - Jdot qd   J^T f + N_B tau_0        -K_cc e_c - b_c
                         - K_tc Lambda_c a_cmd)
    z_approach  S^-1     0                       J^T f + tau_0 + h_z      -K_cc e_c - Jdot_c qd
    uk          K_tt^-1  Lambda (J M^-1 h        J^T f + N_J (tau_0 + h)  -e_c
                         - Jdot qd)

with e_c = Kd xdot_c + Kp x_c on the lateral pivot residual x_c,
B = J M^-1 - K_tc Lambda_c Jc M^-1, N_B = I - J^T Lambda B,
N_J = I - J^T Lambda J M^-1, tau_0 the null-space compliance and h_z the
extended-Jacobian bias (see ``z_approach_torque``).
p_approach is the projected controller; z_approach (extended Jacobian,
static trocar) and uk (Udwadia-Kalaba) are the comparison baselines. An
orthogonal projector P = I - Jc^+ Jc on tau_task would change nothing:
N_bar^T Jc^T = 0, so N_bar^T P = N_bar^T.

``control_torque`` runs the configured variant on the tick's
``ControlSnapshot`` and adds the disturbance compensation. The controllers
are pure functions of the snapshot, the reference, the setup and the
episode's start configuration; the one integration state, the observer's
momentum, is passed explicitly by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularExtendedJacobian
from .numerics import check_row_rank, lu_inv, row_factor, small_inv
from .projection import sym_inv
from .rcm import ConstraintState, TrocarState, constraint_from_kin
from . import robot
from .robot import JointState, KinFrames, RobotModel, kinematics
from .scenarios import TaskReference
from .schema import NON_NEGATIVE, POSITIVE, Rule, fail, length

P_APPROACH = "p_approach"
Z_APPROACH = "z_approach"
UK = "uk"

VARIANT = Rule(
    lambda v: v in (P_APPROACH, Z_APPROACH, UK), "must be one of p_approach/z_approach/uk"
)

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
    rule = length(size)
    if not rule.ok(arr):
        fail(name, rule.message)
    if not np.all(np.isfinite(arr)):
        fail(name, "must be finite")
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
        kp_rcm = _as_diag(kp_rcm, 2, "kp_rcm")
        kp_null = _as_diag(kp_null, n_joints, "kp_null")
        kd_task = 2.0 * np.sqrt(kp_task) if kd_task is None else _as_diag(kd_task, 3, "kd_task")
        kd_rcm = 2.0 * np.sqrt(kp_rcm) if kd_rcm is None else _as_diag(kd_rcm, 2, "kd_rcm")
        kd_null = (
            2.0 * np.sqrt(kp_null) if kd_null is None else _as_diag(kd_null, n_joints, "kd_null")
        )
        observer_gain = _as_diag(observer_gain, 1, "observer_gain")[0]
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
        if not VARIANT.ok(self.variant):
            fail("variant", VARIANT.message)
        if not COMPENSATION.ok(self.compensation):
            fail("compensation", COMPENSATION.message)
        if self.gains is None:
            self.gains = GainSet.from_proportional(kd_null=NULL_DAMPING)


class ControllerOutput(NamedTuple):
    """A controller tick's command.

    ``tau`` is the torque, compensation included. ``constraint_accel_cmd`` is
    the constraint-space joint acceleration the controller commands (what
    Jc qddot equals in closed loop). ``damped`` counts the tick's inertia
    inverses (the variant's and the compensation's) that fell back to the
    damped inverse.
    """

    tau: np.ndarray
    constraint_accel_cmd: np.ndarray
    damped: int


class ControlSnapshot(NamedTuple):
    """Shared per-tick quantities every controller needs.

    ``kin`` is the frame pass at the state (it also carries Mdot for the
    controllers that need it); ``Minv`` is the one factorisation of M that
    the controllers and the plant solve share. ``tip_vel`` (J qd) and
    ``tip_bias`` (Jdot qd) are the 3-vectors the frame pass contracts for
    ``h``; ``constraint`` forms its rate terms on their first read.
    """

    state: JointState
    kin: KinFrames
    M: np.ndarray
    Minv: np.ndarray
    h: np.ndarray
    J_task: np.ndarray  # 3 x n tip translational Jacobian
    tip_vel: np.ndarray
    tip_bias: np.ndarray
    constraint: ConstraintState


def build_snapshot(
    model: RobotModel,
    state: JointState,
    trocar: TrocarState,
) -> ControlSnapshot:
    # through the module attribute, so a wrapper set there sees every pass
    kin = robot.KinFrames(model.chain, state.q, state.qdot)
    return ControlSnapshot(
        state=state,
        kin=kin,
        M=kin.M,
        Minv=lu_inv(kin.M),
        h=kin.h,
        J_task=kin.Jp_t,
        tip_vel=kin.v_t,
        tip_bias=kin.abias_t,
        constraint=constraint_from_kin(kin, state.qdot, trocar),
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


# Row blocks of the stacked operators: the tip rows, then the constraint rows.
TIP, PIVOT = slice(0, 3), slice(3, None)


class Mobility(NamedTuple):
    """The tick's stacked task and constraint operators: A = [J; Jc],
    W = A M^-1 and the mobility K = W A^T. The TIP and PIVOT blocks of K
    hold every inertia the controllers and the compensation invert."""

    A: np.ndarray
    W: np.ndarray
    K: np.ndarray


def stacked_mobility(snap: ControlSnapshot) -> Mobility:
    """The mobility of the snapshot's own tip and constraint Jacobians."""
    A = np.concatenate([snap.J_task, snap.constraint.J])
    W = A.dot(snap.Minv)
    return Mobility(A, W, W.dot(A.T))


def compensation_torque(
    tau_ext_hat: np.ndarray | None, mode: str, mob: Mobility
) -> tuple[np.ndarray, bool]:
    """Disturbance-compensation torque actually added to the command, and
    whether its inertia inverse was damped.

    ``preserve_null`` removes only the components that would accelerate the
    tip task or the pivot constraint, leaving the null-space response free so
    intentional interaction is expressed as compliance instead of rejected.
    """
    if tau_ext_hat is None or mode == COMP_OFF:
        return np.zeros(mob.A.shape[1]), False
    if mode == COMP_FULL:
        return tau_ext_hat, False
    Lam, damped = sym_inv(mob.K)
    # tau - N_aug tau with N_aug = I - A^T K^-1 A M^-1, as three products
    # with vectors instead of the n x n projector
    return mob.A.T.dot(Lam.dot(mob.W.dot(tau_ext_hat))), damped


def control_torque(
    setup: ControlSetup,
    snap: ControlSnapshot,
    ref: TaskReference,
    q_init: np.ndarray,
    tau_ext_hat: np.ndarray | None = None,
) -> ControllerOutput:
    """One controller tick: the configured variant plus the disturbance
    compensation of ``tau_ext_hat``. ``q_init`` is the centre of the
    null-space compliance."""
    mob = stacked_mobility(snap)
    # resolved at call time, so a wrapper set on the module attribute sees the call
    variant = (
        p_approach_torque if setup.variant == P_APPROACH
        else z_approach_torque if setup.variant == Z_APPROACH
        else uk_torque
    )
    out = variant(snap, mob, ref, setup, q_init)
    if tau_ext_hat is None or setup.compensation == COMP_OFF:
        return out
    tau_c, damped_c = compensation_torque(tau_ext_hat, setup.compensation, mob)
    return ControllerOutput(out.tau + tau_c, out.constraint_accel_cmd, out.damped + damped_c)


def _pivot_pd(cs: ConstraintState, gains: GainSet) -> np.ndarray:
    """Kd xdot_c + Kp x_c on the residual rows."""
    return gains.kd_rcm * cs.xdot + gains.kp_rcm * cs.x


def _complete(
    snap: ControlSnapshot,
    mob: Mobility,
    Lambda_c: np.ndarray,
    tau_task: np.ndarray,
    a_cmd: np.ndarray,
    damped: bool,
) -> ControllerOutput:
    """The core: tau_task + Jc^T Lambda_c (a_cmd + Jc M^-1 (h - tau_task)),
    which is N_bar^T tau_task + Jc^T Lambda_c (a_cmd + Jc M^-1 h) and makes
    Jc qddot = a_cmd exactly."""
    f_c = Lambda_c.dot(a_cmd + mob.W[PIVOT].dot(snap.h - tau_task))
    return ControllerOutput(tau_task + snap.constraint.J.T.dot(f_c), a_cmd, damped)


def _task_torque(
    snap: ControlSnapshot,
    ref: TaskReference,
    gains: GainSet,
    Lambda: np.ndarray,
    h_task: np.ndarray,
    B: np.ndarray,
    tau_0: np.ndarray,
) -> np.ndarray:
    """J^T f + N_bar tau_0: the tip PD force f through the task inertia
    ``Lambda`` and bias ``h_task``, and the null-space torque ``tau_0``
    through N_bar = I - J^T Lambda B."""
    f = free_space_force(Lambda, h_task, ref, snap.kin.pose_t.p, snap.tip_vel, gains)
    return snap.J_task.T.dot(f - Lambda.dot(B.dot(tau_0))) + tau_0


def p_approach_torque(
    snap: ControlSnapshot,
    mob: Mobility,
    ref: TaskReference,
    setup: ControlSetup,
    q_init: np.ndarray,
) -> ControllerOutput:
    """Projected constraint-consistent controller.

    Operational-space PD tracking of the tip plus null-space compliance on
    the constrained tip mobility S = B J^T, whose bias carries the
    constraint feedforward K_tc Lambda_c a_cmd; the core enforces the pivot
    command exactly, so in closed loop the tip has clean PD error dynamics.
    Subtracting b_c from the command keeps the residual dynamics homogeneous
    with a moving trocar. Jc's rank is checked first (``check_row_rank``):
    dependent rows raise RankDeficientConstraint before K_cc is inverted.
    """
    cs = snap.constraint
    K, W = mob.K, mob.W
    check_row_rank(cs.J)
    # Products use ndarray.dot, which costs less per call than @ on these
    # small operands; this runs every tick.
    K_cc = K[PIVOT, PIVOT]
    Lambda_c = small_inv(K_cc)
    a_cmd = -K_cc.dot(_pivot_pd(cs, setup.gains)) - cs.b
    K_tc_Lambda_c = K[TIP, PIVOT].dot(Lambda_c)
    B = W[TIP] - K_tc_Lambda_c.dot(W[PIVOT])
    Lambda_f, damped = sym_inv(K[TIP, TIP] - K_tc_Lambda_c.dot(K[PIVOT, TIP]))
    h_f = Lambda_f.dot(B.dot(snap.h) - snap.tip_bias - K_tc_Lambda_c.dot(a_cmd))
    tau_0 = nullspace_torque(snap.state.q, snap.state.qdot, q_init, setup.gains)
    tau_task = _task_torque(snap, ref, setup.gains, Lambda_f, h_f, B, tau_0)
    return _complete(snap, mob, Lambda_c, tau_task, a_cmd, damped)


def z_approach_torque(
    snap: ControlSnapshot,
    mob: Mobility,
    ref: TaskReference,
    setup: ControlSetup,
    q_init: np.ndarray,
) -> ControllerOutput:
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

        P = I - Q^T Q,  Jc^+ = Q^T L^-1,  Z^# = Z^T A,  Z nu = A qd,
        Z^#^T Z^T v = A^T P v,  Zdot nu = -Jc^+ Jdot_c Z nu,
        Z Zdot^T = -P Jdot_c^T Jc^+^T.

    A^T P = N_bar^T, so the null rows' torque is the core's N_bar^T tau_task,
    and the pivot rows' Jc^T (f_c + Lambda_c (Jc M^-1 h - Jdot_c qd)) its
    completion with a_cmd = K_cc f_c - Jdot_c qd.
    """
    cs, gains, qd = snap.constraint, setup.gains, snap.state.qdot
    M, J, Jc, K = snap.M, snap.J_task, cs.J, mob.K
    L, Q = row_factor(Jc)
    Jc_pinv = Q.T.dot(small_inv(L))
    K_cc = K[PIVOT, PIVOT]
    Lambda_c = small_inv(K_cc)
    G = mob.W[PIVOT].T.dot(Lambda_c)

    # J_E = [Jc; Z^#] has the inverse [G, Z], so ||J_E||_F ||J_E^-1||_F bounds
    # its condition number, with ||Z^#||_F^2 = ||P A||_F^2 = m + ||P G L||_F^2
    # (Jc P = 0). Only a bound that does not clear the tolerance by a factor 2
    # (room for the rounding of the formed inverse) leaves it to the SVD of
    # [Jc; P A], whose singular values are those of J_E.
    m = Jc.shape[1] - Jc.shape[0]
    GL = G.dot(L)
    PGL = GL - Q.T.dot(Q.dot(GL))
    bound_sq = (np.vdot(Jc, Jc) + m + np.vdot(PGL, PGL)) * (np.vdot(G, G) + m)
    if 4.0 * STACKED_COND_TOL * STACKED_COND_TOL * bound_sq >= 1.0:
        P = np.eye(Jc.shape[1]) - Q.T.dot(Q)
        sv = np.linalg.svd(np.concatenate([Jc, P - PGL.dot(Q)]), compute_uv=False)
        if sv[-1] <= STACKED_COND_TOL * sv[0]:
            raise SingularExtendedJacobian(
                f"stacked Jacobian near singular (sigma_min={sv[-1]:.3e})"
            )

    # Feedforward through this controller's own constrained tip mobility
    # J Z Lambda_n^-1 Z^T J^T = K_tt - K_tc Lambda_c K_ct: the acceleration
    # reference maps exactly.
    Lambda_zn, damped = sym_inv(K[TIP, TIP] - K[TIP, PIVOT].dot(Lambda_c).dot(K[PIVOT, TIP]))
    f_f = free_space_force(Lambda_zn, 0.0, ref, snap.kin.pose_t.p, snap.tip_vel, gains)
    tau_0 = nullspace_torque(snap.state.q, qd, q_init, gains)
    # Z (f_n + H_bot), with f_n = Z^T (J^T f_f + tau_0), the bias
    # H_bot = Lambda_n (Z^# M^-1 h - d/dt(Z^#) qd) and u = qd - Z nu, is N_bar^T
    # applied to J^T f_f + tau_0 + h - Mdot u + M Zdot nu - Z Zdot^T M u.
    u = G.dot(Jc.dot(qd))
    Z_nu = qd - u
    tau_task = (J.T.dot(f_f) + tau_0 + snap.h - snap.kin.Mdot.dot(u)
                - M.dot(Jc_pinv.dot(cs.J_dot.dot(Z_nu))) + cs.J_dot.T.dot(Jc_pinv.T.dot(M.dot(u))))
    a_cmd = -K_cc.dot(_pivot_pd(cs, gains)) - cs.J_dot.dot(qd)
    return _complete(snap, mob, Lambda_c, tau_task, a_cmd, damped)


def uk_torque(
    snap: ControlSnapshot,
    mob: Mobility,
    ref: TaskReference,
    setup: ControlSetup,
    q_init: np.ndarray,
) -> ControllerOutput:
    """Udwadia-Kalaba baseline: the unconstrained tip law completed by the
    ideal constraint force.

    tau_sharp is the operational-space PD tip torque with no constraint
    (same gains as the projected controller's task) plus N_J (tau_0 + h):
    the null-space compliance and the null-space share of the bias torque,
    through the unconstrained dynamically consistent projector N_J. Neither
    the tip force nor the constraint force compensates that share of h;
    without it the arm falls through its self-motion manifold. The
    commanded constraint acceleration is b_ic = -(Kd xdot_c + Kp x_c).
    The published form splits the constraint torque through
    Pi = Jc M^-1/2 into an ideal and a non-ideal part with tau_nic = Jc^T b_ic:

        Q_ic  = M^1/2 Pi^+ (b_ic - Jc M^-1 (tau_sharp - h))
        Q_nic = M^1/2 (I - Pi^+ Pi) M^-1/2 tau_nic

    Since Pi^+ = M^-1/2 Jc^T Lambda_c, M^1/2 Pi^+ = Jc^T Lambda_c, and
    (I - Pi^+ Pi) M^-1/2 Jc^T = (I - Pi^+ Pi) Pi^T = 0, so Q_nic vanishes and

        tau = tau_sharp + Jc^T Lambda_c (b_ic - Jc M^-1 (tau_sharp - h)),

    the core applied to tau_sharp. In closed loop Jc qddot = b_ic exactly.
    """
    gains, K, B = setup.gains, mob.K, mob.W[TIP]
    Lambda_tip, damped = sym_inv(K[TIP, TIP])
    h_tip = Lambda_tip.dot(B.dot(snap.h) - snap.tip_bias)
    tau_0 = nullspace_torque(snap.state.q, snap.state.qdot, q_init, gains) + snap.h
    tau_sharp = _task_torque(snap, ref, gains, Lambda_tip, h_tip, B, tau_0)
    b_ic = -_pivot_pd(snap.constraint, gains)
    return _complete(snap, mob, small_inv(K[PIVOT, PIVOT]), tau_sharp, b_ic, damped)
