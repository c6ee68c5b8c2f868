"""Inverse of the controllers' task-space inertias, with a damped fallback."""

from __future__ import annotations

import numpy as np

from .numerics import adjugate3, lu_inv

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
    if A.shape == (3, 3):
        # 0.5 (A + A^T) inverted by cofactors in Python floats (the diagonal
        # is its own mean): every controller tick inverts a 3x3 tip inertia
        # here, and LAPACK's call overhead is most of its cost at this size.
        a, b, c, d, e, f, g, h, i = A.ravel().tolist()
        b, c, f = 0.5 * (b + d), 0.5 * (c + g), 0.5 * (f + h)
        adj, det = adjugate3(a, b, c, b, e, f, c, f, i)
        A_inv = np.array(adj) / det if det != 0.0 else None
        norm_a = a * a + e * e + i * i + 2.0 * (b * b + c * c + f * f)
    else:
        sym = 0.5 * (A + A.T)
        # np.linalg.inv's bits; an exactly singular matrix gives NaN, which
        # fails the test below and leaves the verdict to the eigensolve
        with np.errstate(invalid="ignore"):
            A_inv = lu_inv(sym)
        norm_a = np.vdot(sym, sym)
    if A_inv is not None:
        inv = A_inv.ravel()
        if RTOL * RTOL * norm_a * inv.dot(inv) < 1.0:
            return A_inv, False
    w, Q = np.linalg.eigh(0.5 * (A + A.T))
    w_abs = np.abs(w)
    if w_abs.min() > RTOL * w_abs.max():
        return (Q / w) @ Q.T, False
    return (Q * (w / (w * w + DAMPING * DAMPING))) @ Q.T, True
