"""Inverse of the controllers' task-space inertias, with a damped fallback."""

from __future__ import annotations

import numpy as np

from .numerics import small_inv

# Relative eigenvalue floor below which the inverse is damped, and the damping.
RTOL = 1e-9
DAMPING = 1e-6


def sym_inv(A: np.ndarray) -> tuple[np.ndarray, bool]:
    """(inverse, damped) of a (numerically) symmetric matrix.

    Transient near-singular task inertias occur mid-trajectory; there the
    damped inverse keeps the controller alive, and ``damped`` is True so the
    episode can count it.

    The plain inverse is returned when |eig|_min > RTOL |eig|_max. Since
    |eig|_max <= ||A||_F and 1 / |eig|_min <= ||A^-1||_F, a direct inverse
    with RTOL ||A||_F ||A^-1||_F < 1 settles that without an eigensolve; only
    other matrices go through the eigendecomposition.
    """
    A = 0.5 * (A + A.T)
    try:
        A_inv = small_inv(A)
    except np.linalg.LinAlgError:
        A_inv = None
    if A_inv is not None:
        a, b = A.ravel(), A_inv.ravel()
        if RTOL * RTOL * a.dot(a) * b.dot(b) < 1.0:
            return A_inv, False
    w, Q = np.linalg.eigh(A)
    w_abs = np.abs(w)
    if w_abs.min() > RTOL * w_abs.max():
        return (Q / w) @ Q.T, False
    return (Q * (w / (w * w + DAMPING * DAMPING))) @ Q.T, True
