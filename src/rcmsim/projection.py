"""Inverse of the controllers' task-space inertias, with a damped fallback."""

from __future__ import annotations

import logging

import numpy as np

from .errors import SingularTaskInertia
from .numerics import small_inv

logger = logging.getLogger(__name__)


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
