"""Torque controllers for RCM-constrained tool-tip tracking.

Three variants share one tick interface:

* projected controller: orthogonal torque decomposition with an exactly
  enforced pivot constraint and operational-space tip tracking in the
  free-motion subspace;
* extended-Jacobian controller: stacked constraint/null-space coordinates
  with a metric-weighted null basis (comparison baseline, static trocar);
* inertia-square-root controller: constrained/unconstrained split through the
  inertia-weighted pseudoinverse (comparison baseline).

All controllers are pure functions of (model, joint state, trocar state,
reference, gains, observer estimate); integration state (observer momentum,
null-basis continuity) is passed explicitly by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularExtendedJacobian
from .numerics import matrix_sqrt, orth_projector, pinv, projector_and_pinv, small_inv
from .projection import sym_inv, task_space_terms
from .rcm import ConstraintState, RcmMode, TrocarState, constraint_from_kin
from .robot import JointState, KinFrames, RobotModel, kinematics
from .scenarios import TaskReference
from .schema import NON_NEGATIVE, POSITIVE, fail

P_APPROACH = "p_approach"
Z_APPROACH = "z_approach"
UK = "uk"

DEFAULT_MODE = {P_APPROACH: RcmMode.TWO_D, Z_APPROACH: RcmMode.TWO_D, UK: RcmMode.THREE_D}


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
    observer_gain: float = 50.0

    @classmethod
    def from_proportional(
        cls,
        kp_task=1000.0,
        kp_rcm=1500.0,
        kp_null=0.0,
        observer_gain: float = 50.0,
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


@dataclass(frozen=True)
class ControllerOutput:
    """Torque command plus the decomposition and per-tick diagnostics.

    tau = tau_parallel + tau_perp + tau_ext_hat, with tau_ext_hat the
    compensation torque actually added (zero when compensation is off).
    ``constraint_accel_cmd`` is the constraint-space joint acceleration the
    controller commands (what Jc qddot should equal in closed loop).
    """

    tau: np.ndarray
    tau_parallel: np.ndarray
    tau_perp: np.ndarray
    tau_null: np.ndarray
    tau_ext_hat: np.ndarray
    x_c: np.ndarray
    xdot_c: np.ndarray
    tip_error: np.ndarray
    f_task: np.ndarray
    constraint_accel_cmd: np.ndarray


@dataclass(frozen=True)
class ControlSnapshot:
    """Shared per-tick quantities every controller needs.

    ``kin`` is the frame pass at the state (it also carries Mdot for the
    controllers that need it); ``Minv`` is the one factorisation of M that
    the controllers and the plant solve share.
    """

    state: JointState
    trocar: TrocarState
    mode: RcmMode
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
    kin = kinematics(model, state.q, state.qdot)
    J_task = kin.Jp_t
    return ControlSnapshot(
        state=state,
        trocar=trocar,
        mode=mode,
        kin=kin,
        M=kin.M,
        Minv=np.linalg.inv(kin.M),
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
    return -gains.kd_null * qdot - gains.kp_null * (q - np.asarray(q_init, dtype=float))


@dataclass(frozen=True)
class ObserverState:
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
    model: RobotModel,
    state: JointState,
    tau_applied: np.ndarray,
    dt: float,
    kin: KinFrames | None = None,
) -> ObserverState:
    """Advance the momentum observer by one control period.

    ``state`` is the post-integration state; ``tau_applied`` the total torque
    commanded over the elapsed period (zero-order hold). ``kin``, when given,
    is the frame pass at ``state`` (the next tick's snapshot holds it).
    """
    if not POSITIVE.ok(dt):
        fail("dt", POSITIVE.message)
    qd = state.qdot
    if kin is None:
        kin = kinematics(model, state.q, qd)
    n_new = _momentum_bias(kin, qd)
    n_mid = 0.5 * (obs.n_prev + n_new)
    r_old = -obs.tau_ext_hat
    drift = obs.p_hat + dt * (np.asarray(tau_applied, dtype=float) - n_mid + 0.5 * r_old)
    r_new = obs.gain * (kin.M @ qd - drift) / (1.0 + 0.5 * obs.gain * dt)
    p_hat = drift + 0.5 * dt * r_new
    return ObserverState(gain=obs.gain, p_hat=p_hat, tau_ext_hat=-r_new, n_prev=n_new)


COMP_OFF = "off"
COMP_FULL = "full"
COMP_PRESERVE_NULL = "preserve_null"


def compensation_torque(
    tau_ext_hat: np.ndarray | None, mode: str, snap: ControlSnapshot
) -> np.ndarray:
    """Disturbance-compensation torque actually added to the command.

    ``preserve_null`` removes only the components that would accelerate the
    tip task or the pivot constraint, leaving the null-space response free so
    intentional interaction is expressed as compliance instead of rejected.
    """
    n = snap.M.shape[0]
    if tau_ext_hat is None or mode == COMP_OFF:
        return np.zeros(n)
    tau_ext_hat = np.asarray(tau_ext_hat, dtype=float)
    if mode == COMP_FULL:
        return tau_ext_hat
    if mode == COMP_PRESERVE_NULL:
        J_aug = np.concatenate([snap.J_task, snap.constraint.J], axis=0)
        JMinv = J_aug @ snap.Minv
        Lam = sym_inv(JMinv @ J_aug.T, "damp", 1e-6, 1e-9)
        N_aug = np.eye(n) - J_aug.T @ (Lam @ JMinv)
        return tau_ext_hat - N_aug @ tau_ext_hat
    raise ValueError(f"unknown compensation mode {mode!r}")


def _constraint_accel_cmd(
    cs: ConstraintState,
    mobility_c: np.ndarray,
    gains: GainSet,
    bias_feedforward: bool,
    x_c_ref: np.ndarray | None = None,
) -> np.ndarray:
    """Commanded constraint-space joint acceleration (target for Jc qddot).

    The pivot set-point is zero (or ``x_c_ref`` where the residual has a
    structurally nonzero component, e.g. the axial part of the 3D residual),
    so the stabilizing design is -Lambda_c^-1 (Kd xdot + Kp x_err), with
    ``mobility_c`` = Lambda_c^-1 = Jc M^-1 Jc^T; with
    ``bias_feedforward`` the acceleration bias is cancelled too, making the
    realized residual dynamics homogeneous (residual error and its
    derivatives decay to zero even with a moving trocar).
    """
    k = cs.J.shape[0]
    if k == 0:
        return np.zeros(0)
    x_err = cs.x if x_c_ref is None else cs.x - np.asarray(x_c_ref, dtype=float)
    fb = gains.kd_rcm[:k] * cs.xdot + gains.kp_rcm[:k] * x_err
    a = -mobility_c.dot(fb)
    if bias_feedforward:
        a = a - cs.b
    return a


def without_constraint(snap: ControlSnapshot) -> ControlSnapshot:
    """Snapshot variant with an empty (k = 0) constraint, for the
    unconstrained-reduction limit."""
    n = snap.M.shape[0]
    empty = ConstraintState(
        x=np.zeros(0),
        J=np.zeros((0, n)),
        J_dot=np.zeros((0, n)),
        xdot=np.zeros(0),
        b=np.zeros(0),
        mode=snap.mode,
    )
    return replace(snap, constraint=empty)


def p_approach_torque(
    model: RobotModel,
    state: JointState,
    trocar: TrocarState,
    ref: TaskReference,
    gains: GainSet,
    q_init: np.ndarray,
    tau_ext_hat: np.ndarray | None = None,
    mode: RcmMode = RcmMode.TWO_D,
    compensation: str = COMP_FULL,
    constraint_bias_feedforward: bool = True,
    on_singular: str = "damp",
    snap: ControlSnapshot | None = None,
    x_c_ref: np.ndarray | None = None,
) -> ControllerOutput:
    """Projected constraint-consistent controller.

    The free-motion torque runs operational-space PD tracking of the tip plus
    null-space compliance, projected onto the admissible subspace; the
    constrained torque enforces the commanded constraint acceleration exactly,
    including the coupling of the projected free torque into the constraint
    space: f_c = Lambda_c (a_cmd + Jc M^-1 (h - tau_parallel)). In closed loop
    (no unmodelled external torque) this yields Jc qddot = a_cmd to solver
    precision and clean PD error dynamics for the tip.

    The task terms are those of ``projection.task_space_terms`` with the
    constraint feedforward Jc^+ a_cmd, formed from the snapshot's M^-1
    instead of a solve with M_f = P M + (I - P): M_f^-1 P equals
    M^-1 - M^-1 Jc^T Lambda_c Jc M^-1, and M_f^-1 Jc^+ a_cmd equals
    M^-1 Jc^T Lambda_c a_cmd.
    """
    snap = snap or build_snapshot(model, state, trocar, mode)
    cs = snap.constraint
    Minv, J = snap.Minv, snap.J_task
    # Products use ndarray.dot, which costs less per call than @ on these
    # small operands; this runs every tick.
    P = orth_projector(cs.J)
    Minv_JcT = Minv.dot(cs.J.T)
    mobility_c = cs.J.dot(Minv_JcT)
    Lambda_c = small_inv(mobility_c)
    a_cmd = _constraint_accel_cmd(cs, mobility_c, gains, constraint_bias_feedforward, x_c_ref)

    JG = J.dot(Minv_JcT).dot(Lambda_c)
    B = J.dot(Minv) - JG.dot(Minv_JcT.T)  # J M_f^-1 P
    Lambda_f = sym_inv(B.dot(J.T), on_singular, 1e-6, 1e-9)
    h_f = Lambda_f.dot(B.dot(snap.h) - snap.Jdot_task.dot(state.qdot) - JG.dot(a_cmd))
    f_f = free_space_force(Lambda_f, h_f, ref, snap.kin.pose_t.p, snap.tip_vel, gains)
    tau_0 = nullspace_torque(state.q, state.qdot, q_init, gains)
    # J^T f_f + N_bar tau_0 with N_bar = I - J^T Lambda_f B
    tau_f = J.T.dot(f_f - Lambda_f.dot(B.dot(tau_0))) + tau_0

    # The Moore-Penrose inverse of the orthogonal projector P is P itself.
    tau_par = P.dot(tau_f)
    f_c = Lambda_c.dot(a_cmd + cs.J.dot(Minv.dot(snap.h - tau_par)))
    tau_perp = cs.J.T.dot(f_c)
    tau_comp = compensation_torque(tau_ext_hat, compensation, snap)
    return ControllerOutput(
        tau=tau_par + tau_perp + tau_comp,
        tau_parallel=tau_par,
        tau_perp=tau_perp,
        tau_null=tau_0,
        tau_ext_hat=tau_comp,
        x_c=cs.x,
        xdot_c=cs.xdot,
        tip_error=ref.x - snap.kin.pose_t.p,
        f_task=f_f,
        constraint_accel_cmd=a_cmd,
    )


def unconstrained_pd_torque(
    model: RobotModel,
    state: JointState,
    ref: TaskReference,
    gains: GainSet,
    q_init: np.ndarray,
    snap: ControlSnapshot | None = None,
    on_singular: str = "damp",
) -> np.ndarray:
    """Standard operational-space PD torque with no constraint (k = 0 limit)."""
    if snap is None:
        snap = build_snapshot(
            model, state, TrocarState.static(np.zeros(3)), RcmMode.TWO_D
        )
    n = model.n
    tst = task_space_terms(
        snap.M,
        np.eye(n),
        snap.J_task,
        snap.Jdot_task,
        state.qdot,
        snap.h,
        on_singular=on_singular,
    )
    f_f = free_space_force(tst.Lambda_f, tst.h_f, ref, snap.kin.pose_t.p, snap.tip_vel, gains)
    tau_0 = nullspace_torque(state.q, state.qdot, q_init, gains)
    return snap.J_task.T @ f_f + tst.N_bar @ tau_0


@dataclass(frozen=True)
class ZCarry:
    """Null-basis continuity between ticks (previous aligned basis)."""

    Z: np.ndarray


def _null_basis(Jc: np.ndarray) -> np.ndarray:
    _, _, Vt = np.linalg.svd(Jc, full_matrices=True)
    return Vt[Jc.shape[0]:].T.copy()


def _align_basis(Z: np.ndarray, Z_ref: np.ndarray) -> np.ndarray:
    """Rotate an orthonormal basis to best match a reference span basis.

    Orthogonal Procrustes on Z^T Z_ref; plain sign fixing is not enough
    because the null space has more than one dimension and the SVD gauge
    rotates freely between calls, which would inject torque spikes through
    the d/dt(Z^#) term.
    """
    U, _, Vt = np.linalg.svd(Z.T @ Z_ref)
    return Z @ (U @ Vt)


def _null_sharp_rate(
    M: np.ndarray,
    Mdot: np.ndarray,
    Z: np.ndarray,
    Z_dot: np.ndarray,
    Lambda_n: np.ndarray,
    Z_sharp: np.ndarray,
) -> np.ndarray:
    """d/dt of Z^# = Lambda_n^-1 Z^T M with Lambda_n = Z^T M Z, exact."""
    Lambda_n_dot = Z_dot.T @ M @ Z + Z.T @ Mdot @ Z + Z.T @ M @ Z_dot
    return np.linalg.solve(Lambda_n, Z_dot.T @ M + Z.T @ Mdot - Lambda_n_dot @ Z_sharp)


def z_approach_torque(
    model: RobotModel,
    state: JointState,
    trocar: TrocarState,
    ref: TaskReference,
    gains: GainSet,
    tau_ext_hat: np.ndarray | None = None,
    q_init: np.ndarray | None = None,
    mode: RcmMode = RcmMode.TWO_D,
    compensation: str = COMP_FULL,
    carry: ZCarry | None = None,
    snap: ControlSnapshot | None = None,
    cond_tol: float = 1e-10,
    x_c_ref: np.ndarray | None = None,
) -> tuple[ControllerOutput, ZCarry]:
    """Extended-Jacobian baseline controller (static trocar).

    Stacks the constraint Jacobian over the inertia-weighted inverse of a
    null-space basis Z of the constraint, drives the pivot residual with a PD
    force and the tip task through the null-space rows. The bias torque is the
    stacked-coordinate bias mapped through the stacked Jacobian transpose, so
    a resting arm at zero error receives exactly the gravity torque.
    """
    snap = snap or build_snapshot(model, state, trocar, mode)
    cs = snap.constraint
    n = model.n
    k = cs.J.shape[0]
    M, h, Minv = snap.M, snap.h, snap.Minv

    Z = _null_basis(cs.J)
    if carry is not None:
        Z = _align_basis(Z, carry.Z)
    Lambda_n = Z.T @ M @ Z
    Z_sharp = np.linalg.solve(Lambda_n, Z.T @ M)
    Lambda_c = sym_inv(cs.J @ Minv @ cs.J.T, "damp", 1e-6, 1e-9)
    P, Jc_pinv = projector_and_pinv(cs.J)

    # The gauge-locked basis keeps Z^T Zdot = 0, and d/dt(Jc Z) = 0 then
    # gives Zdot = -Jc^+ Jdot_c Z.
    Z_dot = -Jc_pinv @ (cs.J_dot @ Z)
    Zs_dot = _null_sharp_rate(M, snap.kin.Mdot, Z, Z_dot, Lambda_n, Z_sharp)

    J_E = np.concatenate([cs.J, Z_sharp], axis=0)
    sv = np.linalg.svd(J_E, compute_uv=False)
    if sv[-1] <= cond_tol * sv[0]:
        raise SingularExtendedJacobian(
            f"stacked Jacobian near singular (sigma_min={sv[-1]:.3e})"
        )

    Minv_h = Minv @ h
    H_top = Lambda_c @ (cs.J @ Minv_h - cs.J_dot @ state.qdot)
    H_bot = Lambda_n @ (Z_sharp @ Minv_h - Zs_dot @ state.qdot)

    x_err = cs.x if x_c_ref is None else cs.x - np.asarray(x_c_ref, dtype=float)
    f_c = -(gains.kd_rcm[:k] * cs.xdot + gains.kp_rcm[:k] * x_err)
    # Feedforward through this controller's own constrained tip mobility
    # (J Z Lambda_n^-1 Z^T J^T)^-1, so the acceleration reference maps exactly.
    Lambda_zn = sym_inv(
        snap.J_task @ Z @ np.linalg.solve(Lambda_n, Z.T @ snap.J_task.T), "damp", 1e-6, 1e-9
    )
    e = ref.x - snap.kin.pose_t.p
    edot = ref.xdot - snap.tip_vel
    f_f = Lambda_zn @ ref.xddot + gains.kd_task * edot + gains.kp_task * e
    f_n = Z.T @ (snap.J_task.T @ f_f)
    tau_0 = np.zeros(n)
    if q_init is not None and (np.any(gains.kp_null) or np.any(gains.kd_null)):
        tau_0 = nullspace_torque(state.q, state.qdot, q_init, gains)
        f_n = f_n + Z.T @ tau_0

    tau_cmd = J_E.T @ (
        np.concatenate([f_c + H_top, f_n + H_bot])
    )
    tau_comp = compensation_torque(tau_ext_hat, compensation, snap)
    tau = tau_cmd + tau_comp

    out = ControllerOutput(
        tau=tau,
        tau_parallel=P @ tau_cmd,
        tau_perp=tau_cmd - P @ tau_cmd,
        tau_null=tau_0,
        tau_ext_hat=tau_comp,
        x_c=cs.x,
        xdot_c=cs.xdot,
        tip_error=e,
        f_task=f_f,
        constraint_accel_cmd=np.linalg.solve(Lambda_c, f_c),
    )
    return out, ZCarry(Z=Z)


def uk_torque(
    model: RobotModel,
    state: JointState,
    trocar: TrocarState,
    ref: TaskReference,
    gains: GainSet,
    tau_ext_hat: np.ndarray | None = None,
    q_init: np.ndarray | None = None,
    mode: RcmMode = RcmMode.THREE_D,
    compensation: str = COMP_FULL,
    snap: ControlSnapshot | None = None,
    x_c_ref: np.ndarray | None = None,
) -> ControllerOutput:
    """Inertia-square-root constrained/unconstrained split baseline.

    Q is a Cartesian PD tip torque (same gains as the projected controller's
    free-space task, optional null-space term) minus the bias; the ideal and
    non-ideal constraint contributions are built through Pi = Jc M^-1/2:

        Q_ic  = M^1/2 Pi^+ (b_ic - Jc M^-1 Q)
        Q_nic = M^1/2 (I - Pi^+ Pi) M^-1/2 tau_nic

    with b_ic the PD pivot force and tau_nic = Jc^T b_ic. In closed loop the
    constraint-space acceleration satisfies Jc qddot = b_ic exactly.

    ``x_c_ref`` is the residual set-point (default zero). In the 3D residual
    formulation the third component is the signed axial offset of the
    reference frame from the trocar, which is nonzero by construction; pass
    the initial residual there so the pivot is regulated without commanding
    the tool to stop sliding toward the port.
    """
    snap = snap or build_snapshot(model, state, trocar, mode)
    cs = snap.constraint
    n = model.n
    k = cs.J.shape[0]
    M, h, Minv = snap.M, snap.h, snap.Minv

    S = matrix_sqrt(M)
    S_inv = np.linalg.solve(S, np.eye(n))

    Lambda_tip = sym_inv(snap.J_task @ Minv @ snap.J_task.T, "damp", 1e-6, 1e-9)
    h_tip = Lambda_tip @ (snap.J_task @ (Minv @ h) - snap.Jdot_task @ state.qdot)
    e = ref.x - snap.kin.pose_t.p
    edot = ref.xdot - snap.tip_vel
    f_pd = Lambda_tip @ ref.xddot + gains.kd_task * edot + gains.kp_task * e + h_tip
    tau_sharp = snap.J_task.T @ f_pd
    tau_0 = np.zeros(n)
    if q_init is not None and (np.any(gains.kp_null) or np.any(gains.kd_null)):
        tau_0 = nullspace_torque(state.q, state.qdot, q_init, gains)
        N_x = np.eye(n) - snap.J_task.T @ (Lambda_tip @ (snap.J_task @ Minv))
        tau_sharp = tau_sharp + N_x @ tau_0

    Q = tau_sharp - h
    x_err = cs.x if x_c_ref is None else cs.x - np.asarray(x_c_ref, dtype=float)
    b_ic = -(gains.kd_rcm[:k] * cs.xdot + gains.kp_rcm[:k] * x_err)
    Pi = cs.J @ S_inv
    Pi_pinv = pinv(Pi)
    Q_ic = S @ (Pi_pinv @ (b_ic - cs.J @ (Minv @ Q)))
    tau_nic = cs.J.T @ b_ic
    Q_nic = S @ ((np.eye(n) - Pi_pinv @ Pi) @ (S_inv @ tau_nic))

    tau_comp = compensation_torque(tau_ext_hat, compensation, snap)
    tau_cmd = Q + Q_ic + Q_nic + h
    P = orth_projector(cs.J)
    return ControllerOutput(
        tau=tau_cmd + tau_comp,
        tau_parallel=P @ tau_cmd,
        tau_perp=tau_cmd - P @ tau_cmd,
        tau_null=tau_0,
        tau_ext_hat=tau_comp,
        x_c=cs.x,
        xdot_c=cs.xdot,
        tip_error=e,
        f_task=f_pd,
        constraint_accel_cmd=b_ic,
    )
