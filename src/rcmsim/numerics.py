"""Dense linear-algebra primitives used by the projection and control layers.

All operators are tolerant of the small, dense matrices this package works
with (at most ~13 rows: 7 joints + 6 task dimensions); there is no sparse
path. Singular-value tolerances are relative to the largest singular value.
"""

from functools import lru_cache

import numpy as np

from .errors import RankDeficientConstraint

DEFAULT_RTOL = 1e-10


@lru_cache(maxsize=None)
def identity(n: int) -> np.ndarray:
    """Read-only n x n identity, shared by the per-tick operators."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def small_inv(A: np.ndarray) -> np.ndarray:
    """Inverse of a 2x2 or 3x3 matrix by cofactors; other sizes go to
    np.linalg.inv. At these sizes the LAPACK call's own overhead is most of
    its cost. Raises numpy.linalg.LinAlgError for an exactly singular matrix."""
    if A.shape == (2, 2):
        a, b, c, d = A.ravel().tolist()
        adj = [[d, -b], [-c, a]]
        det = a * d - b * c
    elif A.shape == (3, 3):
        a, b, c, d, e, f, g, h, i = A.ravel().tolist()
        adj = [
            [e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d],
        ]
        det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    else:
        return np.linalg.inv(A)
    if det == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    return np.array(adj) / det


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
    if k and s[-1] <= DEFAULT_RTOL * s[0]:
        raise RankDeficientConstraint(
            f"constraint Jacobian rank < {k} (sigma_min={s[-1]:.3e}, sigma_max={s[0]:.3e})"
        )
    return U, s, Vt


def orth_projector(Jc: np.ndarray) -> np.ndarray:
    """Orthogonal projector P = I - V1 V1^T onto the null space of ``Jc``,
    symmetric by construction (unlike I - pinv(Jc) @ Jc)."""
    Vt = _row_basis(Jc)[2]
    return identity(Jc.shape[1]) - Vt.T.dot(Vt)


def null_basis_and_pinv(Jc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal null-space basis Z (n x (n - k)) of ``Jc`` and its
    pseudoinverse, from one full SVD with the checks of ``orth_projector``."""
    U, s, Vt = _row_basis(Jc, full_matrices=True)
    k = s.size
    return Vt[k:].T.copy(), (Vt[:k].T / s).dot(U.T)
