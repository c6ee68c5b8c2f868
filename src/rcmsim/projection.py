"""Projection-layer operators for constraint-consistent dynamics.

Splits joint space into constrained and free-motion subspaces with the
orthogonal projector P = I - Jc^+ Jc and builds the free-motion inertia,
task-space inertia/bias, the dynamically consistent task inverse and the
null-space projector. The task bias accepts a constraint feedforward term
(the joint-acceleration component enforced in the constrained subspace);
passing Pdot qdot there recovers the classic time-invariant-constraint form
bit for bit, which is the reduction property the tests pin down.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import SingularTaskInertia
from .numerics import PinvOptions, projector_and_pinv, small_inv

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ProjectionState:
    """Constraint-side projection quantities at one control tick.

    ``Pdot`` is -Jc^+ Jdot_c, the projector rate restricted to its use in the
    dynamics: it equals d/dt(P) acting on admissible (constraint-null-space)
    velocities; the full matrix derivative carries an extra transposed term
    that vanishes on that subspace.
    """

    P: np.ndarray
    Pdot: np.ndarray
    M_f: np.ndarray
    Lambda_c: np.ndarray
    Jc_pinv: np.ndarray


@dataclass(frozen=True)
class TaskSpaceTerms:
    """Task-side operators built on top of a ProjectionState."""

    Lambda_f: np.ndarray
    h_f: np.ndarray
    J_sharp_T: np.ndarray
    N_bar: np.ndarray


def projection_state(
    M: np.ndarray,
    Jc: np.ndarray,
    Jc_dot: np.ndarray | None = None,
    opts: PinvOptions | None = None,
) -> ProjectionState:
    """P, Pdot, free-motion inertia M_f and constraint-space inertia Lambda_c.

    M_f = P M + (I - P) is nonsingular by construction. With an empty
    constraint (k = 0) this degenerates to P = I, M_f = M.
    """
    M = np.asarray(M, dtype=float)
    Jc = np.asarray(Jc, dtype=float)
    n = M.shape[0]
    k = Jc.shape[0] if Jc.ndim == 2 else 0
    P, Jc_pinv = projector_and_pinv(Jc.reshape(k, n), opts)
    if Jc_dot is None or k == 0:
        Pdot = np.zeros((n, n))
    else:
        Pdot = -Jc_pinv @ np.asarray(Jc_dot, dtype=float)
    M_f = P @ M + (np.eye(n) - P)
    if k == 0:
        Lambda_c = np.zeros((0, 0))
    else:
        Lambda_c = np.linalg.inv(Jc @ np.linalg.solve(M, Jc.T))
        Lambda_c = 0.5 * (Lambda_c + Lambda_c.T)
    return ProjectionState(P=P, Pdot=Pdot, M_f=M_f, Lambda_c=Lambda_c, Jc_pinv=Jc_pinv)


def sym_inv(A: np.ndarray, on_singular: str, damping: float, rtol: float) -> np.ndarray:
    """Inverse of a (numerically) symmetric matrix with a damped fallback.

    Transient near-singular task inertias occur mid-trajectory; the damped
    path keeps the controller alive and logs instead of raising.

    The plain inverse is returned when |eig|_min > rtol |eig|_max. Since
    |eig|_max <= ||A||_F and 1 / |eig|_min <= ||A^-1||_F, a direct inverse
    with rtol ||A||_F ||A^-1||_F < 1 settles that without an eigensolve; only
    other matrices go through the eigendecomposition.
    """
    A = 0.5 * (A + A.T)
    try:
        A_inv = small_inv(A)
    except np.linalg.LinAlgError:
        A_inv = None
    if A_inv is not None:
        a, b = A.ravel(), A_inv.ravel()
        if rtol * rtol * a.dot(a) * b.dot(b) < 1.0:
            return A_inv
    w, Q = np.linalg.eigh(A)
    w_abs = np.abs(w)
    if w_abs.min() > rtol * w_abs.max():
        return (Q / w) @ Q.T
    if on_singular == "raise":
        raise SingularTaskInertia(
            f"task-space inertia is singular (|eig|_min={w_abs.min():.3e})"
        )
    logger.warning(
        "task-space inertia near singular (|eig|_min=%.3e); using damped inverse",
        w_abs.min(),
    )
    return (Q * (w / (w * w + damping * damping))) @ Q.T


def task_space_terms(
    M_f: np.ndarray,
    P: np.ndarray,
    J: np.ndarray,
    J_dot: np.ndarray,
    qdot: np.ndarray,
    h: np.ndarray,
    constraint_feedforward: np.ndarray | None = None,
    on_singular: str = "raise",
    damping: float = 1e-6,
    rtol: float = 1e-9,
) -> TaskSpaceTerms:
    """Task-space inertia, bias, dynamically consistent inverse, null projector.

    Lambda_f = (J M_f^-1 P J^T)^-1
    J#T      = Lambda_f J M_f^-1 P
    N_bar    = I - J^T J#T
    h_f      = Lambda_f (J M_f^-1 P h - J_dot qdot - J M_f^-1 u)

    where u = ``constraint_feedforward`` is the constrained joint-acceleration
    component Jc^+ (xddot_c - b_c); with u = Pdot qdot the bias reduces exactly
    to the time-invariant-constraint operational-space form, and u defaults to
    zero (no constraint).
    """
    n = M_f.shape[0]
    J = np.asarray(J, dtype=float)
    u = (
        np.zeros(n)
        if constraint_feedforward is None
        else np.asarray(constraint_feedforward, dtype=float)
    )
    # One LU of M_f serves both the projector image and the feedforward image.
    right = np.concatenate([P, u[:, None]], axis=1)
    sol = np.linalg.solve(M_f, right)
    W = sol[:, :n]  # M_f^-1 P  (symmetric in exact arithmetic)
    Minv_u = sol[:, n]
    B = J @ W
    Lambda_f = sym_inv(B @ J.T, on_singular, damping, rtol)
    J_sharp_T = Lambda_f @ B
    N_bar = np.eye(n) - J.T @ J_sharp_T
    h_f = Lambda_f @ (B @ h - np.asarray(J_dot, dtype=float) @ qdot - J @ Minv_u)
    return TaskSpaceTerms(Lambda_f=Lambda_f, h_f=h_f, J_sharp_T=J_sharp_T, N_bar=N_bar)


def gauss_acceleration_split(
    M: np.ndarray,
    Jc: np.ndarray,
    xddot_c: np.ndarray,
    b_c: np.ndarray,
    tau: np.ndarray,
    tau_ext: np.ndarray,
    h: np.ndarray,
    P: np.ndarray | None = None,
    opts: PinvOptions | None = None,
) -> np.ndarray:
    """Joint acceleration split into constrained and free parts.

    qddot = Jc^+ (xddot_c - b_c) + P M^-1 (tau + tau_ext - h); the constrained
    component satisfies Jc qddot = xddot_c - b_c exactly, the free component
    follows the projected unconstrained dynamics (minimum-deviation sense).
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    Jc = np.asarray(Jc, dtype=float).reshape(-1, n)
    if P is None:
        P, Jc_pinv = projector_and_pinv(Jc, opts)
    else:
        _, Jc_pinv = projector_and_pinv(Jc, opts)
    free = P @ np.linalg.solve(M, np.asarray(tau) + np.asarray(tau_ext) - np.asarray(h))
    if Jc.shape[0] == 0:
        return free
    return Jc_pinv @ (np.asarray(xddot_c) - np.asarray(b_c)) + free

