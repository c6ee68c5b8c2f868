import warnings

import numpy as np
import pytest

from rcmsim.numerics import adjugate3
from rcmsim.projection import DAMPING, RTOL, sym_inv
from rcmsim.rcm import constraint_from_kin
from rcmsim.robot import DEFAULT_HOME, kinematics
from rcmsim.rcm import place_trocar
from conftest import random_states, static_trocar
from oracles import (
    SingularTaskInertia,
    gauss_acceleration_split,
    projection_state,
    task_space_terms,
)


def _random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


def test_projection_state_hand_example():
    M = np.diag([2.0, 3.0])
    Jc = np.array([[1.0, 0.0]])
    ps = projection_state(M, Jc)
    assert np.allclose(ps.P, np.diag([0.0, 1.0]), atol=1e-14)
    assert np.allclose(ps.M_f, np.diag([1.0, 3.0]), atol=1e-14)
    assert np.allclose(ps.Lambda_c, [[2.0]], atol=1e-14)


def test_projection_state_empty_constraint():
    M = np.diag([2.0, 3.0])
    ps = projection_state(M, np.zeros((0, 2)))
    assert np.allclose(ps.P, np.eye(2))
    assert np.allclose(ps.M_f, M)
    assert ps.Lambda_c.shape == (0, 0)


def test_projection_state_m_f_nonsingular(rng):
    for _ in range(20):
        M = _random_spd(rng, 7)
        Jc = rng.standard_normal((2, 7))
        ps = projection_state(M, Jc)
        assert np.linalg.svd(ps.M_f, compute_uv=False)[-1] > 1e-6


def test_projection_state_pdot(rng):
    Jc = rng.standard_normal((2, 7))
    Jc_dot = rng.standard_normal((2, 7))
    M = _random_spd(rng, 7)
    ps = projection_state(M, Jc, Jc_dot)
    expected = -np.linalg.pinv(Jc) @ Jc_dot
    assert np.abs(ps.Pdot - expected).max() < 1e-10


def test_pdot_matches_projector_finite_difference(model):
    # Finite difference of P along an admissible trajectory vs -Jc^+ Jdot_c.
    # The identity holds acting on null-space velocities (the second,
    # transposed term of the full matrix derivative vanishes there), which is
    # exactly how the operator is consumed.
    q0 = DEFAULT_HOME
    kin = kinematics(model, q0)
    p_c = place_trocar(kin.pose_r.p, kin.pose_t.p, 0.5)
    trocar = static_trocar(p_c)
    M = kin.M
    cs0 = constraint_from_kin(kin, np.zeros(model.n), trocar)
    qd = projection_state(M, cs0.J).P @ np.linspace(-0.4, 0.4, model.n)
    cs = constraint_from_kin(kinematics(model, q0, qd), qd, trocar)
    ps = projection_state(M, cs.J, cs.J_dot)
    dt = 1e-6
    Ps = []
    for s in (-dt, dt):
        cs_s = constraint_from_kin(kinematics(model, q0 + s * qd, qd), qd, trocar)
        Ps.append(projection_state(M, cs_s.J).P)
    P_fd = (Ps[1] - Ps[0]) / (2 * dt)
    assert np.abs((ps.Pdot - P_fd) @ qd).max() < 1e-4


def test_task_space_terms_unconstrained_reduction(rng):
    n = 7
    M = _random_spd(rng, n)
    J = rng.standard_normal((3, n))
    J_dot = rng.standard_normal((3, n))
    qdot = rng.standard_normal(n)
    h = rng.standard_normal(n)
    tst = task_space_terms(M, np.eye(n), J, J_dot @ qdot, h)
    Lambda_expected = np.linalg.inv(J @ np.linalg.solve(M, J.T))
    assert np.abs(tst.Lambda_f - Lambda_expected).max() < 1e-9


def test_task_space_terms_algebraic_properties(model, rng):
    qs, qds = random_states(rng, model.n, 10)
    for q, qd in zip(qs, qds):
        kin = kinematics(model, q)
        p_c = place_trocar(kin.pose_r.p, kin.pose_t.p, 0.5)
        static = static_trocar(p_c)
        cs = constraint_from_kin(kinematics(model, q, qd), qd, static)
        M = kin.M
        ps = projection_state(M, cs.J, cs.J_dot)
        tst = task_space_terms(ps.M_f, ps.P, kin.Jp_t, np.zeros(3), np.zeros(model.n))
        assert np.abs(tst.J_sharp_T @ kin.Jp_t.T - np.eye(3)).max() < 1e-8
        assert np.abs(tst.J_sharp_T @ tst.N_bar).max() < 1e-9
        assert np.abs(tst.Lambda_f - tst.Lambda_f.T).max() < 1e-9
        assert np.abs(tst.N_bar @ tst.N_bar - tst.N_bar).max() < 1e-9


def test_task_bias_reduces_to_classic_form(model, rng):
    # With the feedforward set to Pdot qdot, the bias must equal the
    # time-invariant-constraint operational-space expression exactly.
    q, qd = DEFAULT_HOME, rng.uniform(-0.5, 0.5, model.n)
    kin = kinematics(model, q)
    p_c = place_trocar(kin.pose_r.p, kin.pose_t.p, 0.5)
    static = static_trocar(p_c)
    cs = constraint_from_kin(kinematics(model, q, qd), qd, static)
    M = kin.M
    ps = projection_state(M, cs.J, cs.J_dot)
    J = kin.Jp_t
    J_dot = rng.standard_normal((3, model.n))
    h = rng.standard_normal(model.n)
    tst = task_space_terms(ps.M_f, ps.P, J, J_dot @ qd, h, constraint_feedforward=ps.Pdot @ qd)
    W = np.linalg.solve(ps.M_f, ps.P)
    Lam = np.linalg.inv(J @ W @ J.T)
    h_classic = Lam @ (J @ W @ h - (J_dot + J @ np.linalg.solve(ps.M_f, ps.Pdot)) @ qd)
    assert np.abs(tst.h_f - h_classic).max() < 1e-12 * max(1.0, np.abs(h_classic).max())


def test_task_space_terms_singular_raises_or_damps(rng):
    n = 4
    M = _random_spd(rng, n)
    J = np.vstack([np.eye(2, n), np.eye(2, n)[:1]])  # rank-deficient 3 x n task
    with pytest.raises(SingularTaskInertia):
        task_space_terms(M, np.eye(n), J, np.zeros(3), np.zeros(n))
    tst = task_space_terms(
        M, np.eye(n), J, np.zeros(3), np.zeros(n), on_singular="damp"
    )
    assert tst.damped
    assert np.isfinite(tst.Lambda_f).all()


def test_torque_decomposition_annihilation(model, rng):
    qs, _ = random_states(rng, model.n, 10)
    for q in qs:
        kin = kinematics(model, q)
        p_c = place_trocar(kin.pose_r.p, kin.pose_t.p, 0.5)
        cs = constraint_from_kin(kin, np.zeros(model.n), static_trocar(p_c))
        M = kin.M
        ps = projection_state(M, cs.J)
        P = ps.P
        tau_c = rng.uniform(-10, 10, model.n)
        tau_perp = tau_c - P @ tau_c  # (I - P^+ P) tau_c with P^+ = P
        assert np.abs(P @ tau_perp).max() < 1e-9
        # P is its own Moore-Penrose inverse: with X = P the four Penrose
        # conditions reduce to P symmetric and idempotent.
        assert np.abs(P - P.T).max() < 1e-12
        assert np.abs(P @ P - P).max() < 1e-12


def test_gauss_split_constraint_satisfaction(rng):
    n, k = 7, 2
    for _ in range(10):
        M = _random_spd(rng, n)
        Jc = rng.standard_normal((k, n))
        xdd = rng.standard_normal(k)
        b = rng.standard_normal(k)
        tau = rng.standard_normal(n)
        tau_ext = rng.standard_normal(n)
        h = rng.standard_normal(n)
        qdd = gauss_acceleration_split(M, Jc, xdd, b, tau, tau_ext, h)
        assert np.abs(Jc @ qdd - (xdd - b)).max() < 1e-9


def test_gauss_split_equilibrium_and_reduction(rng):
    n = 5
    M = _random_spd(rng, n)
    Jc = rng.standard_normal((2, n))
    b = rng.standard_normal(2)
    h = rng.standard_normal(n)
    qdd = gauss_acceleration_split(M, Jc, b.copy(), b, h.copy(), np.zeros(n), h)
    assert np.abs(qdd).max() < 1e-10
    tau = rng.standard_normal(n)
    qdd0 = gauss_acceleration_split(M, np.zeros((0, n)), np.zeros(0), np.zeros(0), tau, np.zeros(n), h)
    assert np.abs(qdd0 - np.linalg.solve(M, tau - h)).max() < 1e-10


def test_sym_inv_matches_inverse(rng):
    A = _random_spd(rng, 3)
    A_inv, damped = sym_inv(A)
    assert not damped
    assert np.abs(A_inv - np.linalg.inv(A)).max() < 1e-10
    # the 3x3 path in Python floats has the cofactor inverse's bits:
    # symmetric part, adjugate, determinant
    for _ in range(50):
        A = _random_spd(rng, 3) * 10.0 ** rng.uniform(-3, 3) + 1e-9 * rng.standard_normal((3, 3))
        A_inv, damped = sym_inv(A)
        assert not damped
        adj, det = adjugate3(*(0.5 * (A + A.T)).ravel().tolist())
        assert np.array_equal(A_inv, np.array(adj) / det)


@pytest.mark.parametrize("n", [5, 6])
def test_sym_inv_of_the_stacked_mobility_size(rng, n):
    # The compensation's 5x5 mobility and one size up: np.linalg.inv's bits for the
    # symmetric part. An exactly singular input gets the eigensolve's verdict
    # (damped) and lets no warning escape.
    for _ in range(50):
        A = _random_spd(rng, n) * 10.0 ** rng.uniform(-3, 3) + 1e-9 * rng.standard_normal((n, n))
        A_inv, damped = sym_inv(A)
        assert not damped
        assert np.array_equal(A_inv, np.linalg.inv(0.5 * (A + A.T)))
    singular = _random_spd(rng, n)
    singular[-1], singular[:, -1] = 0.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A_inv, damped = sym_inv(singular)
    w, Q = np.linalg.eigh(0.5 * (singular + singular.T))
    assert damped and abs(w).min() <= RTOL * abs(w).max()
    assert np.array_equal(A_inv, (Q * (w / (w * w + DAMPING * DAMPING))) @ Q.T)
