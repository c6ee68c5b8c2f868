"""Dense linear-algebra primitives used by the projection and control layers.

All operators are tolerant of the small, dense matrices this package works
with (at most ~13 rows: 7 joints + 6 task dimensions); there is no sparse
path. Singular-value tolerances are relative to the largest singular value.
"""

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import RankDeficientConstraint

DEFAULT_RTOL = 1e-10
# det(Jc Jc^T) / tr(Jc Jc^T)^2 above which two rows are certified independent
# (GRAM_RTOL) and factored from their Gram matrix (CHOL_RTOL)
GRAM_RTOL = 1e-12
CHOL_RTOL = 1e-2


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
    """Inverse of a 2x2 or 3x3 matrix by cofactors: at these sizes the LAPACK
    call's own overhead is most of its cost. Raises
    numpy.linalg.LinAlgError for an exactly singular matrix."""
    if A.shape == (2, 2):
        a, b, c, d = A.ravel().tolist()
        adj = [[d, -b], [-c, a]]
        det = a * d - b * c
    else:
        adj, det = adjugate3(*A.ravel().tolist())
    if det == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    return np.array(adj) / det


def adjugate3(a, b, c, d, e, f, g, h, i) -> tuple[list, float]:
    """(adjugate as nested lists, determinant) of the 3x3 matrix with the
    row-major entries a..i, in Python floats."""
    adj = [
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]
    return adj, a * adj[0][0] + b * adj[1][0] + c * adj[2][0]


def _certified_gram(Jc: np.ndarray, rtol: float) -> tuple[float, float, float] | None:
    """(g11, g12, det G) of G = Jc Jc^T for two rows, in Python floats, when
    det G > rtol tr(G)^2 > the least normal float; None otherwise (non-finite,
    zero or near-parallel rows, a Gram matrix that overflows or underflows)."""
    (g11, g12), (_, g22) = Jc.dot(Jc.T).tolist()
    t = g11 + g22
    det = g11 * g22 - g12 * g12
    return (g11, g12, det) if det > rtol * t * t > 2.0**-1022 else None


def row_factor(Jc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, Q) with Jc = L Q for a two-row Jc, L lower triangular and Q's rows
    orthonormal: Jc^+ = Q^T L^-1 and the null-space projector is I - Q^T Q.
    Raises RankDeficientConstraint when s_min <= DEFAULT_RTOL s_max (an
    ill-posed constraint set; ``check_row_rank`` gives this verdict alone).

    When G = Jc Jc^T passes det G > CHOL_RTOL tr(G)^2 (s_min/s_max > 0.1),
    L = chol(G) and Q = L^-1 Jc, from G's entries in Python floats: at that
    conditioning the factor is as accurate as Gram-Schmidt's, and no rank
    check is needed. Every other pair of rows takes ``_gram_schmidt``."""
    gram = _certified_gram(Jc, CHOL_RTOL)
    if gram is None:
        return _gram_schmidt(Jc)
    g11, g12, det = gram
    l11 = math.sqrt(g11)
    l21 = g12 / l11
    l22 = math.sqrt(det / g11)
    L_inv = [[1.0 / l11, 0.0], [-l21 / (l11 * l22), 1.0 / l22]]
    return np.array([[l11, 0.0], [l21, l22]]), np.array(L_inv).dot(Jc)


def _gram_schmidt(Jc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``row_factor`` of two rows by Gram-Schmidt with a second pass. Jc's
    singular values are L's, so s_min s_max = L11 L22 and
    s_min^2 + s_max^2 = ||Jc||_F^2 give their ratio exactly (Jc Jc^T would
    square it)."""
    j1, j2 = Jc
    l11 = math.sqrt(j1.dot(j1))
    q1 = j1 / (l11 or 1.0)  # a zero row fails the rank check below
    l21 = q1.dot(j2)
    w = j2 - l21 * q1
    c = q1.dot(w)
    w, l21 = w - c * q1, l21 + c
    l22 = math.sqrt(w.dot(w))
    f, d = Jc.ravel().dot(Jc.ravel()), l11 * l22
    s_max = math.sqrt(0.5 * (f + math.sqrt(max(f * f - 4.0 * d * d, 0.0))))
    s_min = d / s_max if s_max else 0.0
    if s_min <= DEFAULT_RTOL * s_max:
        raise RankDeficientConstraint(
            f"constraint Jacobian rank < 2 (sigma_min={s_min:.3e}, sigma_max={s_max:.3e})"
        )
    return np.array([[l11, 0.0], [l21, l22]]), np.array([q1, w / l22])


def check_row_rank(Jc: np.ndarray):
    """Raise RankDeficientConstraint exactly where ``row_factor`` does. The
    rows pass on det G > GRAM_RTOL tr(G)^2 > the least normal float, G = Jc Jc^T
    (s_min/s_max >~ 1e-6, far above DEFAULT_RTOL and G's rounding); the rest
    (non-finite, zero or parallel rows, overflow) goes to ``row_factor``."""
    if _certified_gram(Jc, GRAM_RTOL) is None:
        row_factor(Jc)
