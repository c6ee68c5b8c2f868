"""Dense linear-algebra primitives used by the projection and control layers.

All operators are tolerant of the small, dense matrices this package works
with (the 7 x 7 joint-space inertia at most); there is no sparse path.
Singular-value tolerances are relative to the largest singular value. Two
constraint rows have one factor, by Gram-Schmidt, and a cheaper rank check.
"""

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import RankDeficientConstraint

DEFAULT_RTOL = 1e-10
# det(Jc Jc^T) / tr(Jc Jc^T)^2 above which two rows are certified independent
GRAM_RTOL = 1e-12


def lu_inv(A: np.ndarray) -> np.ndarray:
    """Inverse of a square float matrix through LAPACK's LU solve, the gufunc
    np.linalg.inv itself calls: the same bits, without the wrapper, which
    costs more than the factorisation at joint-space sizes. For finite,
    non-singular input (the joint-space inertia): an exactly singular
    matrix gives NaN and an "invalid value" RuntimeWarning, not LinAlgError."""
    return _umath_linalg.inv(A, signature="d->d")


def lu_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 b for a vector b, through the gufunc np.linalg.solve calls; the
    same bits and the same precondition as ``lu_inv``."""
    return _umath_linalg.solve1(A, b, signature="dd->d")


def small_inv(A: np.ndarray) -> np.ndarray:
    """Inverse of a 2x2 matrix by cofactors: at this size the LAPACK call's
    own overhead is most of its cost. Raises numpy.linalg.LinAlgError for
    an exactly singular matrix."""
    a, b, c, d = A.ravel().tolist()
    det = a * d - b * c
    if det == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    return np.array([[d, -b], [-c, a]]) / det


def adjugate3(a, b, c, d, e, f, g, h, i) -> tuple[list, float]:
    """(adjugate as nested lists, determinant) of the 3x3 matrix with the
    row-major entries a..i, in Python floats."""
    adj = [
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]
    return adj, a * adj[0][0] + b * adj[1][0] + c * adj[2][0]


def row_factor(Jc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, Q) with Jc = L Q for two rows by Gram-Schmidt with a second pass,
    L lower triangular and Q's rows orthonormal: Jc^+ = Q^T L^-1 and the
    null-space projector is I - Q^T Q. Raises RankDeficientConstraint when
    s_min <= DEFAULT_RTOL s_max, an ill-posed constraint set. Jc's singular
    values are L's, so s_min s_max = L11 L22 and s_min^2 + s_max^2 =
    ||L||_F^2 give their ratio exactly (Jc Jc^T would square it)."""
    Q = Jc.copy()  # Q's rows are formed in place: fewer numpy calls
    q1, w = Q[0], Q[1]
    l11 = math.sqrt(q1.dot(q1))
    q1 /= l11 or 1.0  # a zero row fails the rank check below
    l21 = q1.dot(w)
    w -= l21 * q1
    c = q1.dot(w)
    w -= c * q1
    l21 += c
    l22 = math.sqrt(w.dot(w))
    f, d = l11 * l11 + l21 * l21 + l22 * l22, l11 * l22
    s_max = math.sqrt(0.5 * (f + math.sqrt(max(f * f - 4.0 * d * d, 0.0))))
    s_min = d / s_max if s_max else 0.0
    if s_min <= DEFAULT_RTOL * s_max:
        raise RankDeficientConstraint(
            f"constraint Jacobian rank < 2 (sigma_min={s_min:.3e}, sigma_max={s_max:.3e})"
        )
    w /= l22
    return np.array([[l11, 0.0], [l21, l22]]), Q


def check_row_rank(Jc: np.ndarray):
    """Raise RankDeficientConstraint exactly where ``row_factor`` does,
    without its factor on a healthy tick: the rows pass on det G > GRAM_RTOL
    tr(G)^2 > the least normal float, G = Jc Jc^T (s_min/s_max >~ 1e-6, far
    above DEFAULT_RTOL and G's rounding); the rest (non-finite, zero or
    parallel rows, G overflowing or underflowing) goes to ``row_factor``."""
    (g11, g12), (_, g22) = Jc.dot(Jc.T).tolist()
    t = g11 + g22
    if not g11 * g22 - g12 * g12 > GRAM_RTOL * t * t > 2.0**-1022:
        row_factor(Jc)
