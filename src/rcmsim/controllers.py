"""Torque controllers for RCM-constrained tool-tip tracking.

The three variants share one core, ``control_torque``. It checks Jc's row
rank (``check_row_rank``: dependent rows raise RankDeficientConstraint
before anything is inverted), forms one stacked mobility
K = [J; Jc] M^-1 [J; Jc]^T per tick (``Mobility``), Lambda_c = K_cc^-1 and
the one pivot command

    a_cmd = -K_cc e_c - b_c,

forms the null-space compliance tau_0 and asks the variant for its tip
mobility, its tip acceleration and its torque (mobility, acc, r). The core
owns the tip law, one inverse and one PD force for every variant,

    Lambda = mobility^-1,  f = Lambda acc + Kd ed + Kp e,  r <- J^T f + r,

and completes

    tau = h + r + Jc^T Lambda_c (a_cmd - Jc M^-1 r),

which makes Jc qddot = a_cmd exactly in closed loop and is the one place
the bias torque h enters a command. With S = K_tt - K_tc Lambda_c K_ct:

    variant     mobility  acc                                              r
    p_approach  S         xdd_d - Jdot qd - K_tc Lambda_c a_cmd - B (tau_0 - h)  tau_0 - h
    z_approach  S         xdd_d                                            tau_0 + r_z
    uk          K_tt      xdd_d - Jdot qd - W_t tau_0                      tau_0

with e_c = Kd xdot_c + Kp x_c on the lateral pivot residual x_c, b_c its
acceleration bias (trocar motion included), W_t = J M^-1,
B = W_t - K_tc Lambda_c Jc M^-1 and r_z the extended-Jacobian null rows'
rate terms (see ``z_approach_torque``). p_approach's -h takes the
null-space share of h back out, so its null space sags under gravity.
p_approach is the projected controller; z_approach (extended Jacobian) and
uk (Udwadia-Kalaba) are the comparison baselines. The core maps r through
N_bar^T = I - Jc^T Lambda_c Jc M^-1, and N_bar^T Jc^T = 0, so an orthogonal
projector P = I - Jc^+ Jc on r would change nothing: N_bar^T P = N_bar^T.

``control_torque`` also adds the disturbance compensation. The controllers
are pure functions of the snapshot, the reference, the setup and the
episode's start configuration. The snapshot holds each tick quantity once:
the frame pass ``kin`` (q, qd, M, h, the tip point, its Jacobian J, J qd and
Jdot qd), the one M^-1 and the constraint state. The one integration state,
the observer's momentum, is passed explicitly by the caller; it starts from
the frame pass of the episode's start state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import SingularExtendedJacobian
from .numerics import check_row_rank, lu_inv, row_factor, small_inv
from .projection import sym_inv
from .rcm import ConstraintState, TrocarState, constraint_from_kin
from . import robot
from .robot import JointState, KinFrames, RobotModel
from .scenarios import TaskReference
from .schema import NON_NEGATIVE, Rule, fail, finite, is_number

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


@dataclass(frozen=True)
class GainSet:
    """One stiffness and one damping per loop: task, pivot and null space.

    Units: task N/m and N s/m, pivot N/m and N s/m, null-space N m/rad and
    N m s/rad, observer 1/s. However a gain set is built, it is checked on
    construction, with the run config's rules: each gain is a number (not a
    bool, a list or an array), finite and non-negative; an error names the
    field. A gain set fits an arm of any joint count.
    """

    kp_task: float
    kd_task: float
    kp_rcm: float
    kd_rcm: float
    kp_null: float
    kd_null: float
    observer_gain: float = OBSERVER_GAIN

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_number(value):
                fail(f.name, "expected a number")
            value = finite(value, f.name)
            if value < 0:
                fail(f.name, NON_NEGATIVE.message)
            object.__setattr__(self, f.name, value)

    @classmethod
    @np.errstate(invalid="ignore")  # a negative kp is rejected before its NaN kd
    def from_proportional(
        cls,
        kp_task=KP_TASK,
        kp_rcm=KP_RCM,
        kp_null=0.0,
        observer_gain=OBSERVER_GAIN,
        kd_task=None,
        kd_rcm=None,
        kd_null=None,
    ) -> "GainSet":
        """Derivative gains default to 2 sqrt(kp), and ``kd_null`` with no
        null-space stiffness to ``NULL_DAMPING``."""
        if kd_null is None and not np.any(kp_null):  # np.any: a list reaches the field check
            kd_null = NULL_DAMPING

        def kd(value, kp):
            return 2.0 * np.sqrt(kp) if value is None else value

        return cls(kp_task, kd(kd_task, kp_task), kp_rcm, kd(kd_rcm, kp_rcm),
                   kp_null, kd(kd_null, kp_null), observer_gain)


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
    inverses (the tip's and the compensation's) that fell back to the
    damped inverse.
    """

    tau: np.ndarray
    constraint_accel_cmd: np.ndarray
    damped: int


class ControlSnapshot(NamedTuple):
    """Shared per-tick quantities every controller needs.

    ``kin`` is the frame pass at the state the controller sees, that state's
    one home; the controllers read q, qdot, M, h, Mdot and the tip's point
    ``p_t``, Jacobian ``Jp_t``, velocity ``v_t`` and bias ``abias_t`` from
    it. ``Minv`` is the one factorisation of M that the controllers and the
    plant solve share; ``constraint`` forms its rate terms on their first
    read.
    """

    kin: KinFrames
    Minv: np.ndarray
    constraint: ConstraintState


def build_snapshot(
    model: RobotModel,
    state: JointState,
    trocar: TrocarState,
) -> ControlSnapshot:
    # through the module attribute, so a wrapper set there sees every pass
    kin = robot.KinFrames(model.chain, state.q, state.qdot)
    return ControlSnapshot(kin, lu_inv(kin.M), constraint_from_kin(kin, trocar))


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
    def initial(cls, kin: KinFrames, gain: float) -> "ObserverState":
        """The observer with no estimate yet, on the frame pass ``kin`` of
        the start state (``run_episode``'s own, at rest)."""
        return cls(
            gain=float(gain),
            p_hat=kin.M @ kin.qdot,
            tau_ext_hat=np.zeros(kin.chain.n),
            n_prev=_momentum_bias(kin),
        )


def _momentum_bias(kin: KinFrames) -> np.ndarray:
    """n(q, qd) = c + g - Mdot qd, the drift of the generalized momentum."""
    return kin.h - kin.Mdot.dot(kin.qdot)


def observer_step(
    obs: ObserverState,
    tau_applied: np.ndarray,
    dt: float,
    kin: KinFrames,
) -> ObserverState:
    """Advance the momentum observer by one control period.

    ``kin`` is the frame pass at the true post-integration state (the next
    tick's snapshot holds it when noise is off); ``tau_applied`` the total
    torque commanded over the elapsed period (zero-order hold). ``dt`` is
    not checked here: ``run_episode`` validates it once.
    """
    n_new = _momentum_bias(kin)
    n_mid = 0.5 * (obs.n_prev + n_new)
    r_old = -obs.tau_ext_hat
    drift = obs.p_hat + dt * (tau_applied - n_mid + 0.5 * r_old)
    r_new = obs.gain * (kin.M.dot(kin.qdot) - drift) / (1.0 + 0.5 * obs.gain * dt)
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
    A = np.concatenate([snap.kin.Jp_t, snap.constraint.J])
    W = A.dot(snap.Minv)
    return Mobility(A, W, W.dot(A.T))


def compensation_torque(
    tau_ext_hat: np.ndarray, mode: str, mob: Mobility
) -> tuple[np.ndarray, bool]:
    """Disturbance-compensation torque actually added to the command, and
    whether its inertia inverse was damped.

    ``preserve_null`` removes only the components that would accelerate the
    tip task or the pivot constraint, leaving the null-space response free so
    intentional interaction is expressed as compliance instead of rejected.
    """
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
    disturbance compensation of ``tau_ext_hat`` (none without an estimate or
    with compensation off). ``q_init`` is the centre of the null-space
    compliance.

    Jc's rank is checked first, so dependent rows raise
    RankDeficientConstraint before K_cc is inverted. The variant gets
    Lambda_c, the pivot command a_cmd = -K_cc e_c - b_c, the reference
    acceleration and the null-space compliance tau_0, and returns its tip
    mobility, tip acceleration and torque; the core inverts the mobility,
    forms the PD tip force and completes r <- J^T f + r as
    tau = h + r + Jc^T Lambda_c (a_cmd - Jc M^-1 r), which gives M qddot =
    r + Jc^T Lambda_c (...) at the plant, so Jc qddot = a_cmd exactly.
    """
    cs, kin, gains = snap.constraint, snap.kin, setup.gains
    check_row_rank(cs.J)
    mob = stacked_mobility(snap)
    # Products use ndarray.dot, which costs less per call than @ on these
    # small operands; this runs every tick.
    K_cc = mob.K[PIVOT, PIVOT]
    Lambda_c = small_inv(K_cc)
    a_cmd = -K_cc.dot(gains.kd_rcm * cs.xdot + gains.kp_rcm * cs.x) - cs.b
    tau_0 = nullspace_torque(kin.q, kin.qdot, q_init, gains)
    # resolved at call time, so a wrapper set on the module attribute sees the call
    variant = (
        p_approach_torque if setup.variant == P_APPROACH
        else z_approach_torque if setup.variant == Z_APPROACH
        else uk_torque
    )
    mobility, acc, r = variant(snap, mob, Lambda_c, a_cmd, ref.xddot, tau_0)
    Lambda, damped = sym_inv(mobility)
    f = (Lambda.dot(acc) + gains.kd_task * (ref.xdot - kin.v_t)
         + gains.kp_task * (ref.x - kin.p_t))
    r = kin.Jp_t.T.dot(f) + r
    tau = kin.h + r + cs.J.T.dot(Lambda_c.dot(a_cmd - mob.W[PIVOT].dot(r)))
    if tau_ext_hat is not None and setup.compensation != COMP_OFF:
        tau_c, damped_c = compensation_torque(tau_ext_hat, setup.compensation, mob)
        tau, damped = tau + tau_c, damped + damped_c
    return ControllerOutput(tau, a_cmd, damped)


def p_approach_torque(
    snap: ControlSnapshot,
    mob: Mobility,
    Lambda_c: np.ndarray,
    a_cmd: np.ndarray,
    xdd_d: np.ndarray,
    tau_0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected constraint-consistent controller: (S, acc, r).

    Operational-space PD tracking of the tip plus null-space compliance on
    the constrained tip mobility S = B J^T, whose bias carries the
    constraint feedforward K_tc Lambda_c a_cmd; the core adds h and enforces
    the pivot command exactly, so in closed loop the tip has clean PD error
    dynamics. Its null-space torque N_B (tau_0 - h), N_B = I - J^T S^-1 B,
    takes the null-space share of the core's h back out, so the null space
    sags under gravity.
    """
    K = mob.K
    # One elimination of the pivot rows from [K | W] gives [S | B]:
    # S = K_tt - K_tc Lambda_c K_ct and B = W_t - K_tc Lambda_c W_c.
    K_tc_Lambda_c = K[TIP, PIVOT].dot(Lambda_c)
    KW = np.concatenate([K, mob.W], axis=1)
    SB = KW[TIP] - K_tc_Lambda_c.dot(KW[PIVOT])
    r = tau_0 - snap.kin.h
    # r + J^T f = N_B r + J^T (S^-1 (xdd_d - Jdot qd - K_tc Lambda_c a_cmd) + PD)
    acc = xdd_d - snap.kin.abias_t - K_tc_Lambda_c.dot(a_cmd) - SB[:, K.shape[1]:].dot(r)
    return SB[:, TIP], acc, r


def z_approach_torque(
    snap: ControlSnapshot,
    mob: Mobility,
    Lambda_c: np.ndarray,
    a_cmd: np.ndarray,
    xdd_d: np.ndarray,
    tau_0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extended-Jacobian baseline controller: (S, xdd_d, r).

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
    cs, kin, qd = snap.constraint, snap.kin, snap.kin.qdot
    M, Jc, K = kin.M, cs.J, mob.K
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

    # The tip mobility is this controller's own constrained one,
    # J Z Lambda_n^-1 Z^T J^T = K_tt - K_tc Lambda_c K_ct: the acceleration
    # reference maps exactly.
    S = K[TIP, TIP] - K[TIP, PIVOT].dot(Lambda_c).dot(K[PIVOT, TIP])
    # Z (f_n + H_bot), with f_n = Z^T (J^T f + tau_0), the bias
    # H_bot = Lambda_n (Z^# M^-1 h - d/dt(Z^#) qd) and u = qd - Z nu, is N_bar^T
    # applied to h + J^T f + r, r = tau_0 - Mdot u + M Zdot nu - Z Zdot^T M u.
    Jc_qd = Jc.dot(qd)
    u = G.dot(Jc_qd)
    Z_nu = qd - u
    r = (tau_0 - kin.Mdot.dot(u)
         - M.dot(Jc_pinv.dot(cs.J_dot.dot(Z_nu))) + cs.J_dot.T.dot(Lambda_c.dot(Jc_qd)))
    return S, xdd_d, r


def uk_torque(
    snap: ControlSnapshot,
    mob: Mobility,
    Lambda_c: np.ndarray,
    a_cmd: np.ndarray,
    xdd_d: np.ndarray,
    tau_0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Udwadia-Kalaba baseline: the unconstrained tip law, (K_tt, acc, r),
    that the core completes with the ideal constraint force.

    tau_sharp = h + r is the operational-space PD tip torque with no
    constraint (same gains as the projected controller's task): with
    acc = xdd_d - Jdot qd - J M^-1 tau_0, the core's r = J^T f + tau_0 is
    J^T (K_tt^-1 (xdd_d - Jdot qd) + Kd ed + Kp e) + N_J tau_0, the PD tip
    force without its h share and the null-space compliance through the
    unconstrained dynamically consistent projector
    N_J = I - J^T K_tt^-1 J M^-1; the core adds all of h. The commanded
    constraint acceleration is the core's a_cmd = -K_cc e_c - b_c, whose
    -b_c keeps the residual dynamics homogeneous under a moving trocar. The
    published form splits the constraint torque through Pi = Jc M^-1/2 into
    an ideal and a non-ideal part with tau_nic = Jc^T a_cmd:

        Q_ic  = M^1/2 Pi^+ (a_cmd - Jc M^-1 (tau_sharp - h))
        Q_nic = M^1/2 (I - Pi^+ Pi) M^-1/2 tau_nic

    Since Pi^+ = M^-1/2 Jc^T Lambda_c, M^1/2 Pi^+ = Jc^T Lambda_c, and
    (I - Pi^+ Pi) M^-1/2 Jc^T = (I - Pi^+ Pi) Pi^T = 0, so Q_nic vanishes and

        tau = h + r + Jc^T Lambda_c (a_cmd - Jc M^-1 r),

    the core's completion of r. In closed loop Jc qddot = a_cmd exactly.
    """
    return mob.K[TIP, TIP], xdd_d - snap.kin.abias_t - mob.W[TIP].dot(tau_0), tau_0
