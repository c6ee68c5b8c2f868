"""Torque controllers for RCM-constrained tool-tip tracking.

The three variants share one core, ``control_torque``. It checks Jc's row
rank (``check_row_rank``: dependent rows raise RankDeficientConstraint
before anything is inverted), forms one stacked mobility
K = [J; Jc] M^-1 [J; Jc]^T per tick (``Mobility``), Lambda_c = K_cc^-1 and
the one pivot command

    a_cmd = -K_cc e_c - b_c,

asks the variant for its task/null-space torque r, and completes

    tau = h + r + Jc^T Lambda_c (a_cmd - Jc M^-1 r),

which makes Jc qddot = a_cmd exactly in closed loop and is the one place
the bias torque h enters a command. A variant is its tip inertia Lambda and
tip bias feedforward h_task (the tip force is f = Lambda xdd_d + Kd ed +
Kp e + h_task) and its r, with S = K_tt - K_tc Lambda_c K_ct:

    variant     Lambda   h_task                                   r
    p_approach  S^-1     -Lambda (Jdot qd + K_tc Lambda_c a_cmd)  J^T f + N_B (tau_0 - h)
    z_approach  S^-1     0                                        J^T f + tau_0 + r_z
    uk          K_tt^-1  -Lambda Jdot qd                          J^T f + N_J tau_0

with e_c = Kd xdot_c + Kp x_c on the lateral pivot residual x_c, b_c its
acceleration bias (trocar motion included), B = J M^-1 - K_tc Lambda_c
Jc M^-1, N_B = I - J^T Lambda B, N_J = I - J^T Lambda J M^-1, tau_0 the
null-space compliance and r_z the extended-Jacobian null rows' rate terms
(see ``z_approach_torque``). p_approach's -h takes the null-space share of
h back out, so its null space sags under gravity. p_approach is the
projected controller; z_approach (extended Jacobian) and uk
(Udwadia-Kalaba) are the comparison baselines. The core maps r through
N_bar^T = I - Jc^T Lambda_c Jc M^-1, and N_bar^T Jc^T = 0, so an orthogonal
projector P = I - Jc^+ Jc on r would change nothing: N_bar^T P = N_bar^T.

``control_torque`` also adds the disturbance compensation. The controllers
are pure functions of the snapshot, the reference, the setup and the
episode's start configuration; the one integration state, the observer's
momentum, is passed explicitly by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def _broadcast(value, size: int, name: str) -> np.ndarray:
    """A scalar gain repeated ``size`` times, else the gain's ``size`` entries."""
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.shape not in ((1,), (size,)):
        fail(name, length(size).message)
    return np.full(size, arr[0]) if arr.size == 1 else arr


@dataclass(frozen=True)
class GainSet:
    """Diagonal gain vectors for the task, pivot and null-space loops.

    Units: task N/m and N s/m, pivot N/m and N s/m, null-space N m/rad and
    N m s/rad, observer 1/s. However a gain set is built, it is checked on
    construction: 3 task, 2 pivot and as many ``kd_null`` as ``kp_null``
    entries, every gain finite and non-negative; an error names the field.
    """

    kp_task: np.ndarray
    kd_task: np.ndarray
    kp_rcm: np.ndarray
    kd_rcm: np.ndarray
    kp_null: np.ndarray
    kd_null: np.ndarray
    observer_gain: float = OBSERVER_GAIN

    def __post_init__(self):
        joints = np.size(self.kp_null)
        for name, size in (("kp_task", 3), ("kd_task", 3), ("kp_rcm", 2), ("kd_rcm", 2),
                           ("kp_null", joints), ("kd_null", joints), ("observer_gain", None)):
            value = np.asarray(getattr(self, name), dtype=float)
            if size and not length(size).ok(value):
                fail(name, length(size).message)
            if not np.isfinite(value).all():
                fail(name, "must be finite")
            if (value < 0).any():
                fail(name, NON_NEGATIVE.message)

    @classmethod
    @np.errstate(invalid="ignore")  # a negative kp is rejected before its NaN kd
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
        """Scalars repeat over their loop (``n_joints`` for the null-space
        pair); derivative gains default element-wise to 2 sqrt(kp), and
        ``kd_null`` with no null-space stiffness to ``NULL_DAMPING``."""
        kp_task = _broadcast(kp_task, 3, "kp_task")
        kp_rcm = _broadcast(kp_rcm, 2, "kp_rcm")
        kp_null = _broadcast(kp_null, n_joints, "kp_null")
        if kd_null is None and not kp_null.any():
            kd_null = NULL_DAMPING

        def kd(value, kp, name):
            return 2.0 * np.sqrt(kp) if value is None else _broadcast(value, kp.size, name)

        return cls(kp_task, kd(kd_task, kp_task, "kd_task"), kp_rcm, kd(kd_rcm, kp_rcm, "kd_rcm"),
                   kp_null, kd(kd_null, kp_null, "kd_null"),
                   float(_broadcast(observer_gain, 1, "observer_gain")[0]))


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
    gains: GainSet = field(default_factory=GainSet.from_proportional)
    observer: bool = False
    compensation: str = COMP_FULL

    def __post_init__(self):
        if not VARIANT.ok(self.variant):
            fail("variant", VARIANT.message)
        if not COMPENSATION.ok(self.compensation):
            fail("compensation", COMPENSATION.message)


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
    return kin.h - kin.Mdot.dot(qdot)


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
    r_new = obs.gain * (kin.M.dot(qd) - drift) / (1.0 + 0.5 * obs.gain * dt)
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
    """One controller tick: the core around the configured variant, plus the
    disturbance compensation of ``tau_ext_hat``. ``q_init`` is the centre of
    the null-space compliance.

    Jc's rank is checked first, so dependent rows raise
    RankDeficientConstraint before K_cc is inverted. The variant gets
    Lambda_c and the pivot command a_cmd = -K_cc e_c - b_c and returns its
    torque r and whether its tip inertia was damped; the completion
    tau = h + r + Jc^T Lambda_c (a_cmd - Jc M^-1 r) gives M qddot =
    r + Jc^T Lambda_c (...) at the plant, so Jc qddot = a_cmd exactly.
    """
    cs, gains = snap.constraint, setup.gains
    check_row_rank(cs.J)
    mob = stacked_mobility(snap)
    # Products use ndarray.dot, which costs less per call than @ on these
    # small operands; this runs every tick.
    K_cc = mob.K[PIVOT, PIVOT]
    Lambda_c = small_inv(K_cc)
    a_cmd = -K_cc.dot(gains.kd_rcm * cs.xdot + gains.kp_rcm * cs.x) - cs.b
    # resolved at call time, so a wrapper set on the module attribute sees the call
    variant = (
        p_approach_torque if setup.variant == P_APPROACH
        else z_approach_torque if setup.variant == Z_APPROACH
        else uk_torque
    )
    r, damped = variant(snap, mob, Lambda_c, a_cmd, ref, setup, q_init)
    tau = snap.h + r + cs.J.T.dot(Lambda_c.dot(a_cmd - mob.W[PIVOT].dot(r)))
    if tau_ext_hat is not None and setup.compensation != COMP_OFF:
        tau_c, damped_c = compensation_torque(tau_ext_hat, setup.compensation, mob)
        tau, damped = tau + tau_c, damped + damped_c
    return ControllerOutput(tau, a_cmd, damped)


def p_approach_torque(
    snap: ControlSnapshot,
    mob: Mobility,
    Lambda_c: np.ndarray,
    a_cmd: np.ndarray,
    ref: TaskReference,
    setup: ControlSetup,
    q_init: np.ndarray,
) -> tuple[np.ndarray, bool]:
    """Projected constraint-consistent controller: (r, damped).

    Operational-space PD tracking of the tip plus null-space compliance on
    the constrained tip mobility S = B J^T, whose bias carries the
    constraint feedforward K_tc Lambda_c a_cmd; the core adds h and enforces
    the pivot command exactly, so in closed loop the tip has clean PD error
    dynamics. Its null-space torque N_B (tau_0 - h) takes the null-space
    share of the core's h back out, so the null space sags under gravity.
    """
    gains, K = setup.gains, mob.K
    # One elimination of the pivot rows from [K | W] gives [S | B]:
    # S = K_tt - K_tc Lambda_c K_ct and B = W_t - K_tc Lambda_c W_c.
    K_tc_Lambda_c = K[TIP, PIVOT].dot(Lambda_c)
    KW = np.concatenate([K, mob.W], axis=1)
    SB = KW[TIP] - K_tc_Lambda_c.dot(KW[PIVOT])
    Lambda_f, damped = sym_inv(SB[:, TIP])
    tau_0 = nullspace_torque(snap.state.q, snap.state.qdot, q_init, gains) - snap.h
    # r = J^T (f - Lambda_f B tau_0) + tau_0 with the tip force
    # f = Lambda_f xdd_d + Kd ed + Kp e + h_f: its Lambda_f products are one
    acc = ref.xddot - snap.tip_bias - K_tc_Lambda_c.dot(a_cmd) - SB[:, K.shape[1]:].dot(tau_0)
    f_net = (Lambda_f.dot(acc) + gains.kd_task * (ref.xdot - snap.tip_vel)
             + gains.kp_task * (ref.x - snap.kin.pose_t.p))
    return snap.J_task.T.dot(f_net) + tau_0, damped


def z_approach_torque(
    snap: ControlSnapshot,
    mob: Mobility,
    Lambda_c: np.ndarray,
    a_cmd: np.ndarray,
    ref: TaskReference,
    setup: ControlSetup,
    q_init: np.ndarray,
) -> tuple[np.ndarray, bool]:
    """Extended-Jacobian baseline controller: (r, damped).

    Stacks the constraint Jacobian over Z^# = Lambda_n^-1 Z^T M, the
    inertia-weighted inverse of an orthonormal basis Z of null(Jc)
    (Lambda_n = Z^T M Z), drives the pivot residual with a PD force and the
    tip task through the null-space rows. The bias torque is the
    stacked-coordinate bias mapped through the stacked Jacobian transpose, so
    a resting arm at zero error receives exactly the gravity torque. The
    pivot rows carry the full acceleration bias b_c, and Zdot the total rate
    of Jc, so a moving trocar needs nothing more.

    The torque depends on Z only through P = Z Z^T and the gauge-locked rate
    Zdot = -Jc^+ Jdot_c Z, so it is formed without a basis. With Jc = L Q
    (``row_factor``), G = M^-1 Jc^T Lambda_c, A = I - G Jc and nu = Z^# qd:

        P = I - Q^T Q,  Jc^+ = Q^T L^-1,  Z^# = Z^T A,  Z nu = A qd,
        Z^#^T Z^T v = A^T P v,  Zdot nu = -Jc^+ Jdot_c Z nu,
        Z Zdot^T = -P Jdot_c^T Jc^+^T.

    A^T P = N_bar^T, so the null rows' torque is the core's h + N_bar^T r,
    and the pivot rows' Jc^T (f_c + Lambda_c (Jc M^-1 h - b_c)) its
    completion with a_cmd = K_cc f_c - b_c. Jc G = K_cc Lambda_c = I gives
    Q G L = I, so Jc^+ = Q^T Q G and ||P G L||_F^2 = ||G L||_F^2 - 2; and
    Jc Jc^+ = I with M u = Jc^T Lambda_c Jc qd gives Jc^+^T M u = Lambda_c Jc qd.
    """
    cs, gains, qd = snap.constraint, setup.gains, snap.state.qdot
    M, J, Jc, K = snap.M, snap.J_task, cs.J, mob.K
    L, Q = row_factor(Jc)
    G = mob.W[PIVOT].T.dot(Lambda_c)
    Jc_pinv = Q.T.dot(Q.dot(G))

    # J_E = [Jc; Z^#] has the inverse [G, Z], so ||J_E||_F ||J_E^-1||_F bounds
    # its condition number, with ||Z^#||_F^2 = ||P A||_F^2 = m + ||P G L||_F^2
    # (Jc P = 0). Only a bound that does not clear the tolerance by a factor 2
    # (room for the rounding of the formed inverse) leaves it to the SVD of
    # [Jc; P A], whose singular values are those of J_E.
    m = Jc.shape[1] - Jc.shape[0]
    GL = G.dot(L)
    bound_sq = (np.vdot(Jc, Jc) + m + np.vdot(GL, GL) - 2.0) * (np.vdot(G, G) + m)
    if 4.0 * STACKED_COND_TOL * STACKED_COND_TOL * bound_sq >= 1.0:
        P = np.eye(Jc.shape[1]) - Q.T.dot(Q)
        sv = np.linalg.svd(np.concatenate([Jc, P - P.dot(G.dot(Jc))]), compute_uv=False)
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
    # applied to h + r, r = J^T f_f + tau_0 - Mdot u + M Zdot nu - Z Zdot^T M u.
    Jc_qd = Jc.dot(qd)
    u = G.dot(Jc_qd)
    Z_nu = qd - u
    r = (J.T.dot(f_f) + tau_0 - snap.kin.Mdot.dot(u)
         - M.dot(Jc_pinv.dot(cs.J_dot.dot(Z_nu))) + cs.J_dot.T.dot(Lambda_c.dot(Jc_qd)))
    return r, damped


def uk_torque(
    snap: ControlSnapshot,
    mob: Mobility,
    Lambda_c: np.ndarray,
    a_cmd: np.ndarray,
    ref: TaskReference,
    setup: ControlSetup,
    q_init: np.ndarray,
) -> tuple[np.ndarray, bool]:
    """Udwadia-Kalaba baseline: the unconstrained tip law, (r, damped), that
    the core completes with the ideal constraint force.

    tau_sharp = h + r is the operational-space PD tip torque with no
    constraint (same gains as the projected controller's task), with
    r = J^T f + N_J tau_0: the tip force without its h share, and the
    null-space compliance through the unconstrained dynamically consistent
    projector N_J; the core adds all of h. The commanded constraint
    acceleration is the core's a_cmd = -K_cc e_c - b_c, whose -b_c keeps the
    residual dynamics homogeneous under a moving trocar. The published form
    splits the constraint torque through Pi = Jc M^-1/2 into an ideal and a
    non-ideal part with tau_nic = Jc^T a_cmd:

        Q_ic  = M^1/2 Pi^+ (a_cmd - Jc M^-1 (tau_sharp - h))
        Q_nic = M^1/2 (I - Pi^+ Pi) M^-1/2 tau_nic

    Since Pi^+ = M^-1/2 Jc^T Lambda_c, M^1/2 Pi^+ = Jc^T Lambda_c, and
    (I - Pi^+ Pi) M^-1/2 Jc^T = (I - Pi^+ Pi) Pi^T = 0, so Q_nic vanishes and

        tau = h + r + Jc^T Lambda_c (a_cmd - Jc M^-1 r),

    the core's completion of r. In closed loop Jc qddot = a_cmd exactly.
    """
    gains = setup.gains
    Lambda_tip, damped = sym_inv(mob.K[TIP, TIP])
    f = free_space_force(Lambda_tip, -Lambda_tip.dot(snap.tip_bias), ref, snap.kin.pose_t.p,
                         snap.tip_vel, gains)
    tau_0 = nullspace_torque(snap.state.q, snap.state.qdot, q_init, gains)
    # J^T f + N_J tau_0, N_J = I - J^T Lambda_tip J M^-1
    return snap.J_task.T.dot(f - Lambda_tip.dot(mob.W[TIP].dot(tau_0))) + tau_0, damped
