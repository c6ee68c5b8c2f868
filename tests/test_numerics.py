import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcmsim.errors import RankDeficientConstraint
from rcmsim.kernels import skew_stack
from rcmsim.numerics import orth_projector
from oracles import InvalidMatrix, NotPositiveDefinite, PinvOptions, matrix_sqrt, pinv


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
