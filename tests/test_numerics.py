import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcmsim import numerics
from rcmsim.errors import RankDeficientConstraint
from rcmsim.kernels import skew_stack
from rcmsim.numerics import check_row_rank, lu_inv, lu_solve, row_factor
from rcmsim.robot import kinematics
from conftest import random_states
from oracles import (
    InvalidMatrix,
    NotPositiveDefinite,
    PinvOptions,
    exact_projector,
    matrix_sqrt,
    orth_projector,
    pinv,
)


def test_pinv_identity():
    assert np.allclose(pinv(np.eye(3)), np.eye(3), atol=1e-14)


def test_pinv_rank_deficient_diagonal():
    A = np.diag([1.0, 0.0])
    assert np.allclose(pinv(A), np.diag([1.0, 0.0]), atol=1e-14)


def test_pinv_from_known_svd_factors(rng):
    # Build A from chosen orthogonal factors and singular values, so the
    # pseudoinverse is known analytically and independently of the code path.
    Q1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    Q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    s = np.array([2.0, 0.5])
    A = Q1 @ np.diag(s) @ Q2[:2]
    expected = Q2[:2].T @ np.diag(1.0 / s) @ Q1.T
    assert np.abs(pinv(A) - expected).max() < 1e-12
    assert np.abs(A @ pinv(A) @ A - A).max() < 1e-10


def test_pinv_damped():
    A = np.array([[2.0, 0.0]])
    lam = 0.5
    expected = A.T @ np.linalg.inv(A @ A.T + lam * lam * np.eye(1))
    got = pinv(A, PinvOptions(damping=lam))
    assert np.abs(got - expected).max() < 1e-14


def test_pinv_rejects_non_finite():
    with pytest.raises(InvalidMatrix):
        pinv(np.array([[np.nan, 1.0]]))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_pinv_moore_penrose_identities(rows, cols, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, cols))
    Ap = pinv(A)
    tol = 1e-9
    assert np.abs(A @ Ap @ A - A).max() < tol
    assert np.abs(Ap @ A @ Ap - Ap).max() < tol
    assert np.abs((A @ Ap).T - A @ Ap).max() < tol
    assert np.abs((Ap @ A).T - Ap @ A).max() < tol


def _spd(rng, n):
    X = rng.standard_normal((n, n))
    return X @ X.T + n * np.eye(n)


def test_lu_inverse_and_solve_are_numpys_bits(model, rng):
    # The same LAPACK gufuncs as np.linalg.inv and np.linalg.solve, so the
    # same bits: seeded SPD matrices of every size the package meets, and
    # the default arm's inertia at random states.
    matrices = [_spd(rng, n) for n in range(1, 14) for _ in range(5)]
    qs, _ = random_states(rng, model.n, 50, spread=np.pi)
    matrices += [kinematics(model, q).M for q in qs]
    for A in matrices:
        b = rng.standard_normal(A.shape[0])
        assert np.array_equal(lu_inv(A), np.linalg.inv(A))
        assert np.array_equal(lu_solve(A, b), np.linalg.solve(A, b))


def test_lu_inverse_and_solve_of_singular_matrix_raise_nothing():
    # The documented precondition: an exactly singular matrix is not
    # detected, it gives non-finite values (and an "invalid value" warning,
    # silenced here) instead of LinAlgError.
    A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 5.0]])
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(lu_inv(A)).all()
        assert not np.isfinite(lu_solve(A, np.ones(3))).all()


def test_projector_axis_aligned():
    P = orth_projector(np.array([[1.0, 0.0, 0.0]]))
    assert np.allclose(P, np.diag([0.0, 1.0, 1.0]), atol=1e-14)


def test_projector_fully_constrained():
    P = orth_projector(np.eye(4))
    assert np.abs(P).max() < 1e-12


def test_projector_properties_random(rng):
    for _ in range(50):
        Jc = rng.standard_normal((2, 7))
        P = orth_projector(Jc)
        assert np.abs(P - P.T).max() < 1e-10
        assert np.abs(P @ P - P).max() < 1e-10
        assert np.abs(P @ Jc.T).max() < 1e-10


def test_projector_rank_deficiency_detected():
    Jc = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(RankDeficientConstraint):
        orth_projector(Jc)


def test_projector_empty_constraint():
    P = orth_projector(np.zeros((0, 5)))
    assert np.allclose(P, np.eye(5))


def _two_rows(rng, ratio, scale=1.0):
    """2 x 7 Jacobian R diag(1, ratio) V^T from a plane rotation R and seven
    orthonormal columns V, so its singular-value ratio is ``ratio``."""
    th = rng.uniform(0.0, 2.0 * np.pi)
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    V = np.linalg.qr(rng.standard_normal((7, 7)))[0][:, :2]
    return scale * (R * [1.0, ratio]) @ V.T


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_two_row_rank_threshold_both_sides(rng, scale):
    # DEFAULT_RTOL = 1e-10 on sigma_min / sigma_max: the ratio comes from
    # ||Jc||_F and L11 L22, which resolve it where Jc Jc^T cannot.
    for _ in range(20):
        with pytest.raises(RankDeficientConstraint):
            row_factor(_two_rows(rng, 1e-11, scale))
        Jc = _two_rows(rng, 1e-9, scale)
        L, Q = row_factor(Jc)
        assert L[0, 1] == 0.0
        assert np.abs(L @ Q - Jc).max() < 1e-15 * scale
        assert np.abs(Q @ Q.T - np.eye(2)).max() < 1e-15


def _rank_deficient(check, Jc):
    try:
        check(Jc)
    except RankDeficientConstraint:
        return True
    return False


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_gram_certificate_agrees_with_row_factor(rng, monkeypatch, scale):
    # check_row_rank raises on exactly the Jacobians row_factor raises on,
    # and certifies every one with s_min / s_max >= 1e-5 from the Gram
    # matrix alone. Besides the random ratios: parallel rows, a zero row,
    # NaN and infinite entries, a Gram matrix that overflows, and parallel
    # rows whose Gram products round to subnormals, where a bound that has
    # underflowed to zero would certify them.
    ratios = 10.0 ** np.concatenate([rng.uniform(-14.0, 0.0, 300), rng.uniform(-1.5, 0.0, 100)])
    draws = [_two_rows(rng, ratio, scale) for ratio in ratios]
    a = scale * rng.standard_normal(7)
    e1 = np.eye(7)[0]
    draws += [
        np.stack([a, -2.0 * a]),
        np.stack([a, np.zeros(7)]),
        np.zeros((2, 7)),
        np.where(np.arange(14).reshape(2, 7) == 3, np.nan, _two_rows(rng, 0.5, scale)),
        np.where(np.arange(14).reshape(2, 7) == 9, -np.inf, _two_rows(rng, 0.5, scale)),
        1e200 * _two_rows(rng, 0.5),
        np.stack([6.494379172012011e-79 * e1, 7.977157047819924e-79 * e1]),
    ]
    # the seven special draws count as ratio 0
    ratios = np.concatenate([ratios, np.zeros(7)])

    with np.errstate(over="ignore", invalid="ignore"):  # as run_episode runs
        exact = [_rank_deficient(row_factor, Jc) for Jc in draws]
        assert [_rank_deficient(check_row_rank, Jc) for Jc in draws] == exact
    assert exact[-7:-4] == [True] * 3 and exact[-1]  # deficient by construction

    def forbidden(_):
        raise AssertionError("exact factor formed")

    monkeypatch.setattr(numerics, "row_factor", forbidden)
    for ratio, Jc in zip(ratios, draws):
        if ratio >= 1e-5:
            check_row_rank(Jc)


def test_two_row_projector_matches_exact_and_svd(rng):
    # Random rows, and rows whose angle has 1 - cos down to 1e-8. There the
    # SVD projector itself misses the exact one by about 1e-12, so the
    # near-parallel draws are held to the exact projector alone.
    worst_exact = worst_svd = 0.0
    for i in range(200):
        a, b = rng.standard_normal((2, 7))
        if i % 2:
            rho = 10.0 ** rng.uniform(-8.0, 0.0)  # 1 - cos(angle between rows)
            a /= np.linalg.norm(a)
            b -= a.dot(b) * a
            b /= np.linalg.norm(b)
            b = (1.0 - rho) * a + np.sqrt(rho * (2.0 - rho)) * b
        Jc = np.array([a, b]) * rng.uniform(0.1, 10.0, (2, 1))
        P = orth_projector(Jc)
        worst_exact = max(worst_exact, np.abs(P - exact_projector(Jc)).max())
        if not i % 2:
            Vt = np.linalg.svd(Jc, full_matrices=False)[2]
            worst_svd = max(worst_svd, np.abs(P - (np.eye(7) - Vt.T @ Vt)).max())
    assert worst_exact <= 1e-12
    assert worst_svd <= 1e-12


def test_matrix_sqrt_identity_and_diagonal():
    assert np.allclose(matrix_sqrt(np.eye(3)), np.eye(3), atol=1e-12)
    assert np.allclose(matrix_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)


def test_matrix_sqrt_random_spd(rng):
    # Eigendecomposition oracle: build M = Q diag(w) Q^T with known factors.
    A = rng.standard_normal((7, 7))
    Q, _ = np.linalg.qr(A)
    w = rng.uniform(0.1, 5.0, 7)
    M = (Q * w) @ Q.T
    S = matrix_sqrt(M)
    assert np.abs(S @ S - M).max() < 1e-9
    assert np.abs(S - S.T).max() < 1e-10
    expected = (Q * np.sqrt(w)) @ Q.T
    assert np.abs(S - expected).max() < 1e-9


def test_matrix_sqrt_rejects_non_spd():
    with pytest.raises(NotPositiveDefinite):
        matrix_sqrt(np.diag([1.0, -2.0]))
    with pytest.raises(NotPositiveDefinite):
        matrix_sqrt(np.array([[1.0, 5.0], [0.0, 1.0]]))


def test_skew_definition():
    v = np.array([1.0, 2.0, 3.0])
    expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    assert np.array_equal(skew_stack(v), expected)


def test_skew_cross_product(rng):
    ez = np.array([0.0, 0.0, 1.0])
    ex = np.array([1.0, 0.0, 0.0])
    assert np.allclose(skew_stack(ez) @ ex, [0.0, 1.0, 0.0])
    v = rng.standard_normal(3)
    assert np.abs(skew_stack(v) @ v).max() < 1e-15
    w = rng.standard_normal(3)
    assert np.allclose(skew_stack(v) @ w, np.cross(v, w))
