"""Remote-center-of-motion constraint kinematics in the tool-reference frame.

The pivot residual is the trocar-to-reference vector expressed in the tool
reference frame and projected onto the frame's lateral plane (its first two
axes); its norm is the trocar's distance from the tool axis. All rates treat
the trocar point as time varying, so a moving trocar makes the constraint
rheonomic: the residual rate and the acceleration bias ``b_c`` carry the
trocar velocity/acceleration terms.

``constraint_from_kin`` is the one source of the constraint terms the
controllers and the soft-port force use, all read from one frame pass: the
residual, its Jacobian and its rate on construction, the rate terms Jdot_c
and ``b_c`` on first read, so a caller that reads only the position rows
never forms them. Every rate is exact: Jdot_c and ``b_c`` are assembled from
the pass's axis rates and d/dt(B^T) = -B^T skew(w_r), with no differencing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import KinFrames, lazy, skew_stack
from .schema import Rule, fail


@dataclass
class TrocarState:
    """Trocar point and its known motion, base frame [m, m/s, m/s^2]."""

    p: np.ndarray
    pdot: np.ndarray
    pddot: np.ndarray


class ConstraintState:
    """RCM constraint quantities at one instant (two rows).

    The residual ``x``, its Jacobian ``J`` and rate ``xdot`` are given on
    construction; ``rates()`` gives the rate terms (J_dot, b), called on
    the first read of either. xddot = J qddot + b holds exactly along any
    motion, so b is the full acceleration-level bias including the
    rheonomic (trocar-motion) terms.
    """

    def __init__(self, x: np.ndarray, J: np.ndarray, xdot: np.ndarray,
                 rates: Callable[[], tuple[np.ndarray, np.ndarray]]):
        self.x, self.J, self.xdot = x, J, xdot
        self._rate_terms = rates

    @lazy
    def _rates(self) -> tuple[np.ndarray, np.ndarray]:
        return self._rate_terms()

    @property
    def J_dot(self) -> np.ndarray:
        return self._rates[0]

    @property
    def b(self) -> np.ndarray:
        return self._rates[1]


# alpha: the trocar's fraction of the tool length from the reference frame
ALPHA = Rule(lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")


def place_trocar(p_r0: np.ndarray, p_t0: np.ndarray, alpha: float) -> np.ndarray:
    """Trocar point on the initial tool axis: p_c = p_r0 + alpha (p_t0 - p_r0).
    An alpha outside (0, 1] raises a ``ConfigError`` naming ``alpha``."""
    if not ALPHA.ok(alpha):
        fail("alpha", ALPHA.message)
    p_r0 = np.asarray(p_r0, dtype=float)
    p_t0 = np.asarray(p_t0, dtype=float)
    return p_r0 + alpha * (p_t0 - p_r0)


def constraint_from_kin(kin: KinFrames, trocar: TrocarState) -> ConstraintState:
    """Constraint state from the frame pass ``kin``, at its (q, qdot).

    J_pc is the Jacobian of the arm point that coincides with the trocar
    (columns z_j x (p_c - o_j), equal to J_p + skew(p_cr) J_w) and Jdot_pc
    its rate with the trocar moving; with B^T the lateral basis rows,
    J_c = B^T J_pc and d/dt(B^T) = -B^T skew(w_r) give
    Jdot_c = B^T (Jdot_pc - skew(w_r) J_pc) and
    b = Jdot_c qdot + B^T (w_r x pdot_c - pddot_c).
    """
    pose_r, qdot = kin.pose_r, kin.qdot
    Bt = pose_r.R.T[:2]
    J_pc = kin.coincident_jacobian(trocar.p)
    # ndarray.dot: the cheapest product call for these small operands
    J = Bt.dot(J_pc)

    def rates():
        Jdot_pc = kin.coincident_rate(trocar.p, trocar.pdot)
        W = skew_stack(kin.omega_r)
        J_dot = Bt.dot(Jdot_pc - W.dot(J_pc))
        return J_dot, J_dot.dot(qdot) + Bt.dot(W.dot(trocar.pdot) - trocar.pddot)

    return ConstraintState(
        Bt.dot(pose_r.p - trocar.p), J, J.dot(qdot) - Bt.dot(trocar.pdot), rates
    )
