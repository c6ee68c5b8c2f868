"""Remote-center-of-motion constraint kinematics in the tool-reference frame.

The pivot residual is the trocar-to-reference vector expressed in the tool
reference frame (3D), or its projection onto the frame's lateral plane (2D,
first two frame axes). All rates treat the trocar point as time varying, so a
moving trocar makes the constraint rheonomic: the residual rate and the
acceleration bias ``b_c`` carry the trocar velocity/acceleration terms.

``constraint_from_kin`` is the one source of the constraint terms the
controllers use: residual, Jacobian, their rates and the acceleration bias,
all read from one frame pass. ``residual_terms`` gives its position-level
rows alone (residual, Jacobian and residual rate), what the soft-port force
needs. Every rate is exact:
Jdot_c and ``b_c`` are assembled from the pass's axis rates and
d/dt(B^T) = -B^T skew(w_r), with no differencing. ``residual`` alone gives
the residual of a pose, for set-points taken before the first tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InvalidAlpha
from .kernels import KinFrames, Pose, skew_stack


class RcmMode(Enum):
    THREE_D = 3
    TWO_D = 2

    @property
    def k(self) -> int:
        return self.value


@dataclass
class TrocarState:
    """Trocar point and its known motion, base frame [m, m/s, m/s^2]."""

    p: np.ndarray
    pdot: np.ndarray
    pddot: np.ndarray

    @classmethod
    def static(cls, p: np.ndarray) -> "TrocarState":
        return cls(np.asarray(p, dtype=float), np.zeros(3), np.zeros(3))


class ConstraintState(NamedTuple):
    """RCM constraint quantities at one instant (k = 2 or 3 rows).

    xddot = J qddot + b holds exactly along any motion, so b is the full
    acceleration-level bias including the rheonomic (trocar-motion) terms.
    """

    x: np.ndarray
    J: np.ndarray
    J_dot: np.ndarray
    xdot: np.ndarray
    b: np.ndarray


def place_trocar(p_r0: np.ndarray, p_t0: np.ndarray, alpha: float) -> np.ndarray:
    """Trocar point on the initial tool axis: p_c = p_r0 + alpha (p_t0 - p_r0)."""
    if not 0.0 < alpha <= 1.0:
        raise InvalidAlpha(f"alpha must be in (0, 1], got {alpha}")
    p_r0 = np.asarray(p_r0, dtype=float)
    p_t0 = np.asarray(p_t0, dtype=float)
    return p_r0 + alpha * (p_t0 - p_r0)


def residual(pose_r: Pose, p_c: np.ndarray, mode: RcmMode = RcmMode.THREE_D) -> np.ndarray:
    """Pivot residual: (p_r - p_c) expressed in the reference frame, or its
    lateral-plane projection in 2D mode."""
    return pose_r.R.T[: mode.k] @ (pose_r.p - np.asarray(p_c, dtype=float))


def _position_terms(kin: KinFrames, qdot: np.ndarray, trocar: TrocarState, k: int):
    """(B^T, J_pc, J, x, xdot) of the k-row residual at the frame pass
    ``kin`` (see ``constraint_from_kin``)."""
    pose_r = kin.pose_r
    Bt = pose_r.R.T[:k]
    J_pc = kin.coincident_jacobian(trocar.p)
    # ndarray.dot: the cheapest product call for these small operands
    J = Bt.dot(J_pc)
    return Bt, J_pc, J, Bt.dot(pose_r.p - trocar.p), J.dot(qdot) - Bt.dot(trocar.pdot)


def residual_terms(
    kin: KinFrames, qdot: np.ndarray, trocar: TrocarState, mode: RcmMode
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The residual's Jacobian, value and rate (J, x, xdot) at the frame
    pass ``kin``, the rows of ``constraint_from_kin`` without its rate
    terms: what a force on the residual needs."""
    return _position_terms(kin, qdot, trocar, mode.k)[2:]


def constraint_from_kin(
    kin: KinFrames, qdot: np.ndarray, trocar: TrocarState, mode: RcmMode
) -> ConstraintState:
    """Constraint state from a frame pass evaluated at (q, ``qdot``).

    J_pc is the Jacobian of the arm point that coincides with the trocar
    (columns z_j x (p_c - o_j), equal to J_p + skew(p_cr) J_w) and Jdot_pc
    its rate with the trocar moving; with B^T the residual basis rows,
    J_c = B^T J_pc and d/dt(B^T) = -B^T skew(w_r) give
    Jdot_c = B^T (Jdot_pc - skew(w_r) J_pc) and
    b = Jdot_c qdot + B^T (w_r x pdot_c - pddot_c).
    """
    Bt, J_pc, J, x, xdot = _position_terms(kin, qdot, trocar, mode.k)
    Jdot_pc = kin.coincident_rate(trocar.p, trocar.pdot)
    W = skew_stack(kin.omega_r)
    J_dot = Bt.dot(Jdot_pc - W.dot(J_pc))
    b = J_dot.dot(qdot) + Bt.dot(W.dot(trocar.pdot) - trocar.pddot)
    return ConstraintState(x=x, J=J, J_dot=J_dot, xdot=xdot, b=b)
