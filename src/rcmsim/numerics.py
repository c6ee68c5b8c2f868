"""Dense linear-algebra primitives used by the projection and control layers.

All operators are tolerant of the small, dense matrices this package works
with (at most ~13 rows: 7 joints + 6 task dimensions); there is no sparse
path. Singular-value tolerances are relative to the largest singular value.
"""

import math

import numpy as np

from .errors import RankDeficientConstraint

DEFAULT_RTOL = 1e-10


def small_inv(A: np.ndarray) -> np.ndarray:
    """Inverse of a 2x2 or 3x3 matrix by cofactors; other sizes go to
    np.linalg.inv. At these sizes the LAPACK call's own overhead is most of
    its cost. Raises numpy.linalg.LinAlgError for an exactly singular matrix."""
    if A.shape == (2, 2):
        a, b, c, d = A.ravel().tolist()
        adj = [[d, -b], [-c, a]]
        det = a * d - b * c
    elif A.shape == (3, 3):
        adj, det = adjugate3(*A.ravel().tolist())
    else:
        return np.linalg.inv(A)
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


def _check_rank(k: int, s_min: float, s_max: float):
    """Raise RankDeficientConstraint when s_min <= DEFAULT_RTOL s_max."""
    if s_min <= DEFAULT_RTOL * s_max:
        raise RankDeficientConstraint(
            f"constraint Jacobian rank < {k} (sigma_min={s_min:.3e}, sigma_max={s_max:.3e})"
        )


def _row_basis(Jc: np.ndarray, full_matrices: bool = False):
    """SVD (U, s, Vt) of a full-row-rank constraint Jacobian. Raises
    RankDeficientConstraint when any singular value falls below the relative
    tolerance (the constraint set is then ill-posed). A Jacobian with no rows
    (the unconstrained limit) has no singular values to check; its SVD gives
    the projector I and an empty pseudoinverse."""
    k, n = Jc.shape
    if k > n:
        raise RankDeficientConstraint(f"more constraints ({k}) than joints ({n})")
    U, s, Vt = np.linalg.svd(Jc, full_matrices=full_matrices)
    if k:
        _check_rank(k, s[-1], s[0])
    return U, s, Vt


def row_factor(Jc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, Q) with Jc = L Q and Q's rows orthonormal, rank-checked as in
    ``_row_basis``: Jc^+ = Q^T L^-1 and the null-space projector is I - Q^T Q.

    Two rows take Gram-Schmidt with a second pass, and L is lower triangular.
    Jc's singular values are L's, so s_min s_max = L11 L22 and
    s_min^2 + s_max^2 = ||Jc||_F^2 give their ratio exactly (Jc Jc^T would
    square it). Other row counts take the SVD, L = U S."""
    if Jc.shape[0] != 2:
        U, s, Vt = _row_basis(Jc)
        return U * s, Vt
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
    _check_rank(2, d / s_max if s_max else 0.0, s_max)
    return np.array([[l11, 0.0], [l21, l22]]), np.array([q1, w / l22])


def null_basis_and_pinv(Jc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal null-space basis Z (n x (n - k)) of ``Jc`` and its
    pseudoinverse, from one full SVD with the checks of ``row_factor``."""
    U, s, Vt = _row_basis(Jc, full_matrices=True)
    k = s.size
    return Vt[k:].T.copy(), (Vt[:k].T / s).dot(U.T)


# Largest eigenvalue of G G^T (G = Q Z_prev) up to which ``align_null_basis``
# takes its closed form: every singular value of the projected carry Y is
# then at least sqrt(1/2).
ALIGN_MAX_LOSS = 0.5


def align_null_basis(Z_prev: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The orthonormal basis of null(Q) nearest the orthonormal ``Z_prev``
    (orthogonal Procrustes): the polar factor of Y = Z_prev - Q^T G with
    G = Q Z_prev, for ``Q`` with two orthonormal rows.

    Y^T Y = I - G^T G, so Z = Y (I - G^T G)^-1/2 = Y + (Y G^T) f(K) G with
    K = G G^T and f(l) = ((1 - l)^-1/2 - 1) / l = 1 / (s (1 + s)),
    s = sqrt(1 - l) (Higham, SIAM J. Sci. Stat. Comput. 7, 1986). K is 2x2,
    so f(K) = f(l2) I + f[l1, l2] (K - l2 I) from its eigenvalues, with the
    divided difference in a form free of cancellation. The closed form
    takes Z_prev^T Z_prev = I as given and holds while l1 <= ALIGN_MAX_LOSS;
    past that, where the carry has all but lost a direction of null(Q), the
    thin SVD of Y gives the factor.
    """
    G = Q.dot(Z_prev)
    Y = Z_prev - Q.T.dot(G)
    (a, b), (_, c) = G.dot(G.T).tolist()
    mean, half_gap = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
    l1, l2 = mean + half_gap, mean - half_gap
    if l1 <= ALIGN_MAX_LOSS:
        s1, s2 = math.sqrt(1.0 - l1), math.sqrt(1.0 - l2)
        slope = (1.0 + s1 + s2) / ((s1 + s2) * s1 * s2 * (1.0 + s1) * (1.0 + s2))
        shift = 1.0 / (s2 * (1.0 + s2)) - slope * l2
        f_K = np.array([[shift + slope * a, slope * b], [slope * b, shift + slope * c]])
        return Y + Y.dot(G.T).dot(f_K).dot(G)
    # The second projection drops what the SVD's rounding leaves outside null(Q).
    U, _, Vt = np.linalg.svd(Y, full_matrices=False)
    return (U - Q.T.dot(Q.dot(U))).dot(Vt)
