"""Remote-center-of-motion constraint kinematics in the tool-reference frame.

The pivot residual is the trocar-to-reference vector expressed in the tool
reference frame (3D), or its projection onto the frame's lateral plane (2D,
first two frame axes). All rates treat the trocar point as time varying, so a
moving trocar makes the constraint rheonomic: the residual rate and the
acceleration bias ``b_c`` carry the trocar velocity/acceleration terms.

Every rate is exact: Jdot_c and ``b_c`` are assembled from the frame pass's
axis rates and d/dt(B^T) = -B^T skew(w_r), with no differencing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InconsistentTool, InvalidAlpha
from .kernels import KinFrames, Pose, skew_stack
from .robot import JointState, RobotModel, kinematics


class RcmMode(Enum):
    THREE_D = 3
    TWO_D = 2

    @property
    def k(self) -> int:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "RcmMode":
        key = text.strip().lower()
        if key in ("3d", "three_d", "3"):
            return cls.THREE_D
        if key in ("2d", "two_d", "2"):
            return cls.TWO_D
        raise ValueError(f"unknown RCM mode {text!r}")


@dataclass
class TrocarState:
    """Trocar point and its known motion, base frame [m, m/s, m/s^2]."""

    p: np.ndarray
    pdot: np.ndarray
    pddot: np.ndarray

    @classmethod
    def static(cls, p: np.ndarray) -> "TrocarState":
        return cls(np.asarray(p, dtype=float), np.zeros(3), np.zeros(3))


@dataclass(frozen=True)
class ConstraintState:
    """RCM constraint quantities at one instant (k = 2 or 3 rows).

    xddot = J qddot + b holds exactly along any motion, so b is the full
    acceleration-level bias including the rheonomic (trocar-motion) terms.
    """

    x: np.ndarray
    J: np.ndarray
    J_dot: np.ndarray
    xdot: np.ndarray
    b: np.ndarray
    mode: RcmMode


def place_trocar(p_r0: np.ndarray, p_t0: np.ndarray, alpha: float) -> np.ndarray:
    """Trocar point on the initial tool axis: p_c = p_r0 + alpha (p_t0 - p_r0)."""
    if not 0.0 < alpha <= 1.0:
        raise InvalidAlpha(f"alpha must be in (0, 1], got {alpha}")
    p_r0 = np.asarray(p_r0, dtype=float)
    p_t0 = np.asarray(p_t0, dtype=float)
    return p_r0 + alpha * (p_t0 - p_r0)


def _basis_t(pose_r: Pose, mode: RcmMode) -> np.ndarray:
    """Rows that project a base-frame vector into the residual coordinates."""
    if mode is RcmMode.THREE_D:
        return pose_r.R.T
    return pose_r.R[:, :2].T


def residual(pose_r: Pose, p_c: np.ndarray, mode: RcmMode = RcmMode.THREE_D) -> np.ndarray:
    """Pivot residual: (p_r - p_c) expressed in the reference frame, or its
    lateral-plane projection in 2D mode."""
    return _basis_t(pose_r, mode) @ (pose_r.p - np.asarray(p_c, dtype=float))


def residual_jacobian(
    pose_r: Pose, J_r: np.ndarray, p_c: np.ndarray, mode: RcmMode = RcmMode.THREE_D
) -> np.ndarray:
    """Constraint Jacobian: trocar-point translational Jacobian rotated into
    the residual coordinates.

    J_pc = J_pr + skew(p_cr) J_wr, premultiplied by R_r^T (3D) or the lateral
    basis transpose (2D). The sign of the skew term is fixed by the rate
    identity d/dt[B^T p_cr] = J_c qdot - B^T pdot_c, which the
    finite-difference oracle tests pin down.
    """
    p_cr = pose_r.p - np.asarray(p_c, dtype=float)
    J_pc = J_r[:3] + skew_stack(p_cr) @ J_r[3:]
    return _basis_t(pose_r, mode) @ J_pc


def residual_rate(
    pose_r: Pose,
    J_r: np.ndarray,
    qdot: np.ndarray,
    trocar: TrocarState,
    mode: RcmMode = RcmMode.THREE_D,
) -> np.ndarray:
    """xdot = J_c qdot - B^T pdot_c (B the 3D or 2D residual basis)."""
    J_c = residual_jacobian(pose_r, J_r, trocar.p, mode)
    return J_c @ np.asarray(qdot, dtype=float) - _basis_t(pose_r, mode) @ trocar.pdot


def _constraint(
    kin: KinFrames,
    pose_r: Pose,
    qdot: np.ndarray,
    trocar: TrocarState,
    mode: RcmMode,
) -> ConstraintState:
    """Constraint state from a frame pass and the reference pose it gives.

    J_pc is the Jacobian of the arm point that coincides with the trocar
    (columns z_j x (p_c - o_j), equal to J_p + skew(p_cr) J_w) and Jdot_pc
    its rate with the trocar moving; with B^T the residual basis rows,
    J_c = B^T J_pc and d/dt(B^T) = -B^T skew(w_r) give
    Jdot_c = B^T (Jdot_pc - skew(w_r) J_pc) and
    b = Jdot_c qdot + B^T (w_r x pdot_c - pddot_c).
    """
    Bt = pose_r.R.T[: mode.k]
    J_pc, Jdot_pc = kin.coincident_point(trocar.p, trocar.pdot)
    W = skew_stack(kin.omega_r)
    # ndarray.dot: the cheapest product call for these small operands
    J = Bt.dot(J_pc)
    J_dot = Bt.dot(Jdot_pc - W.dot(J_pc))
    x = Bt.dot(pose_r.p - trocar.p)
    xdot = J.dot(qdot) - Bt.dot(trocar.pdot)
    b = J_dot.dot(qdot) + Bt.dot(W.dot(trocar.pdot) - trocar.pddot)
    return ConstraintState(x=x, J=J, J_dot=J_dot, xdot=xdot, b=b, mode=mode)


def constraint_from_kin(
    kin: KinFrames, qdot: np.ndarray, trocar: TrocarState, mode: RcmMode
) -> ConstraintState:
    """Constraint state from a frame pass evaluated at (q, ``qdot``).

    Jdot_c and b are exact: they come from the pass's axis rates and joint
    origin velocities, with the trocar motion entering through pdot_c.
    """
    return _constraint(kin, kin.pose_r, qdot, trocar, mode)


def constraint_state(
    model: RobotModel,
    state: JointState,
    trocar: TrocarState,
    mode: RcmMode,
) -> ConstraintState:
    """Residual, Jacobian (and its rate), residual rate and acceleration bias."""
    qdot = np.asarray(state.qdot, dtype=float)
    return constraint_from_kin(kinematics(model, state.q, qdot), qdot, trocar, mode)


def residual_bias(
    model: RobotModel,
    state: JointState,
    pose_r: Pose,
    trocar: TrocarState,
    mode: RcmMode = RcmMode.THREE_D,
) -> np.ndarray:
    """Acceleration-level bias b_c so that xddot = J_c qddot + b_c exactly.

    ``pose_r`` must be the reference pose at ``state.q``; it pins the residual
    basis used for the trocar terms. The Jacobian and its rate come from one
    frame pass at the state.
    """
    qdot = np.asarray(state.qdot, dtype=float)
    kin = kinematics(model, state.q, qdot)
    return _constraint(kin, pose_r, qdot, trocar, mode).b


def rcm_point(
    p_r: np.ndarray, p_t: np.ndarray, p_c: np.ndarray, l_tool: float, tol: float = 1e-6
) -> np.ndarray:
    """Orthogonal projection of the trocar point onto the tool axis.

    p_rcm = p_r + (p_rt . p_rc / l_tool^2) p_rt; visualizes where the pivot
    actually sits on the instrument.
    """
    p_r = np.asarray(p_r, dtype=float)
    p_t = np.asarray(p_t, dtype=float)
    p_c = np.asarray(p_c, dtype=float)
    p_rt = p_t - p_r
    if abs(np.linalg.norm(p_rt) - l_tool) > tol:
        raise InconsistentTool(
            f"|p_t - p_r| = {np.linalg.norm(p_rt):.9f} does not match l_tool = {l_tool}"
        )
    p_rc = p_c - p_r
    return p_r + (p_rt @ p_rc / (l_tool * l_tool)) * p_rt
