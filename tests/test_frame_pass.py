"""The vectorised frame pass against independent oracles on random states.

Loop-form kinematics, CRBA and RNEA must agree to rounding; every exact time
derivative the pass computes must agree with a central difference to the
stencil's truncation error. The per-tick shortcuts at the end must agree with
the general forms they stand in for.
"""

import numpy as np
import pytest

import oracles
from rcmsim.kernels import KinFrames, dynamics_term
from rcmsim.numerics import small_inv
from rcmsim.rcm import TrocarState, constraint_from_kin, place_trocar
from rcmsim.robot import kinematics
from rcmsim.sim import ControlSetup, Scenario, SimConfig, run_episode
from conftest import random_states, static_trocar


def test_frames_and_jacobians_match_loop_pass(model, rng):
    qs, _ = random_states(rng, model.n, 20, spread=np.pi)
    for q in qs:
        kin = kinematics(model, q)
        R_r, p_r, J_r, J_t = oracles.jacobians(model, q)
        assert np.abs(kin.pose_r.R - R_r).max() < 1e-12
        assert np.abs(kin.pose_r.p - p_r).max() < 1e-12
        assert np.abs(kin.J_r - J_r).max() < 1e-12
        assert np.abs(kin.Jp_t - J_t[:3]).max() < 1e-12
        assert np.abs(kin.axes - J_t[3:].T).max() < 1e-12


def test_com_jacobians_match_loop_oracle(model, rng):
    # Every link's COM is a tracked point of the pass; its Jacobian is the
    # loop oracle's, and joints beyond the link leave it exactly unmoved.
    qs, _ = random_states(rng, model.n, 20, spread=np.pi)
    for q in qs:
        kin = kinematics(model, q)
        for link in range(model.n):
            J = kin.tracked_jacobian(link)
            J_ref, _ = oracles.point_jacobian(model.dh, q, link, model.coms[link])
            assert np.abs(J - J_ref).max() < 1e-12
            assert not J[:, link + 1 :].any()


def test_mass_matrix_matches_crba(model, rng):
    qs, qds = random_states(rng, model.n, 20, spread=np.pi)
    for q, qd in zip(qs, qds):
        M = kinematics(model, q, qd).M
        assert np.abs(M - oracles.mass_matrix_crba(model, q)).max() < 1e-12


def test_bias_terms_match_rnea(model, pendulum_model, rng):
    qs, qds = random_states(rng, model.n, 20, spread=np.pi)
    zero = np.zeros(model.n)
    for q, qd in zip(qs, qds):
        kin = kinematics(model, q, 2.0 * qd)
        args = (model.gravity, model.masses, model.coms, model.inertias)
        h = oracles.rnea(model.dh, q, 2.0 * qd, zero, *args)
        g = oracles.rnea(model.dh, q, zero, zero, *args)
        assert np.abs(kin.h - h).max() < 1e-12
        assert np.abs(kinematics(model, q).h - g).max() < 1e-12
    # a single link (no joint below it) exercises the empty-prefix case
    q1, qd1 = np.array([0.4]), np.array([-1.3])
    kin = kinematics(pendulum_model, q1, qd1)
    p = pendulum_model
    h = oracles.rnea(p.dh, q1, qd1, np.zeros(1), p.gravity, p.masses, p.coms, p.inertias)
    assert np.abs(kin.h - h).max() < 1e-12


DYNAMICS_TERMS = [name for name, attr in vars(KinFrames).items() if isinstance(attr, dynamics_term)]


def test_kinematics_only_pass_forms_no_dynamics(model, rng, monkeypatch):
    # Trocar placement and the oracles read poses and Jacobians only; such a
    # pass pays for the frames only.
    assert {"_rates", "_At", "M", "h", "v_t", "abias_t", "omega_r"} <= set(DYNAMICS_TERMS)
    bodies = []
    monkeypatch.setattr(KinFrames, "_dynamics", lambda kin: bodies.append(kin))
    qs, qds = random_states(rng, model.n, 3)
    for q, qd in zip(qs, qds):
        kin = kinematics(model, q, qd)
        for point in range(model.n + 2):
            kin.tracked_jacobian(point)
        kin.coincident_jacobian(place_trocar(kin.pose_r.p, kin.pose_t.p, 0.5))
        assert kin.J_r.shape == (6, model.n) and kin.Jp_t.shape == (3, model.n)
        assert not set(DYNAMICS_TERMS + ["Mdot"]) & set(vars(kin))
    assert not bodies


@pytest.mark.parametrize("first", DYNAMICS_TERMS)
def test_first_dynamics_read_forms_every_term_once(model, rng, monkeypatch, first):
    # Whichever term is read first, the one body runs once and stores every
    # term; Mdot waits for its own read.
    body = KinFrames._dynamics
    bodies = []

    def counted(kin):
        bodies.append(kin)
        body(kin)

    monkeypatch.setattr(KinFrames, "_dynamics", counted)
    q, qd = (x[0] for x in random_states(rng, model.n, 1))
    kin = kinematics(model, q, qd)
    getattr(kin, first)
    assert set(DYNAMICS_TERMS) <= set(vars(kin)) and "Mdot" not in vars(kin)
    for name in DYNAMICS_TERMS:
        getattr(kin, name)
    kin.Mdot
    kin.coincident_rate(kin.pose_r.p, kin.v_t)
    assert len(bodies) == 1


def test_jacobian_dot_matches_central_difference(model, rng):
    qs, qds = random_states(rng, model.n, 20)
    for q, qd in zip(qs, qds):
        kin = kinematics(model, q, qd)
        Jd_r, Jd_t = oracles.jacobian_dot_fd(model, q, qd)
        # the rate of the reference point's columns, with the point moving
        Jd_pr = kin.coincident_rate(kin.pose_r.p, kin.J_r[:3] @ qd)
        assert np.abs(Jd_pr - Jd_r[:3]).max() < 1e-6
        assert np.abs(kin.abias_t - Jd_t[:3] @ qd).max() < 1e-6


def test_mass_matrix_dot_matches_central_difference(model, rng):
    qs, qds = random_states(rng, model.n, 20)
    for q, qd in zip(qs, qds):
        Mdot = kinematics(model, q, qd).Mdot
        assert np.abs(Mdot - oracles.mass_matrix_dot_fd(model, q, qd)).max() < 1e-6
        assert np.abs(Mdot - Mdot.T).max() < 1e-12


@pytest.mark.parametrize("moving", [False, True])
def test_constraint_rates_match_finite_difference(model, rng, moving):
    qs, qds = random_states(rng, model.n, 15)
    for q, qd in zip(qs, qds):
        kin = kinematics(model, q)
        p_c = place_trocar(kin.pose_r.p, kin.pose_t.p, rng.uniform(0.2, 0.9))
        p_c = p_c + rng.uniform(-0.01, 0.01, 3)
        if moving:
            trocar = TrocarState(p_c, rng.uniform(-0.05, 0.05, 3), rng.uniform(-0.1, 0.1, 3))
        else:
            trocar = static_trocar(p_c)
        cs = constraint_from_kin(kinematics(model, q, qd), qd, trocar)
        J_dot, b = oracles.constraint_rate_fd(model, q, qd, trocar)
        assert np.abs(cs.J_dot - J_dot).max() < 1e-6
        assert np.abs(cs.b - b).max() < 1e-6


def test_null_sharp_rate_matches_finite_difference(model, rng):
    # d/dt(Z^#) of the extended-Jacobian controller along q(t) = q + t qd,
    # with the null basis gauge-locked to the basis at t = 0.
    step = 1e-6
    qs, qds = random_states(rng, model.n, 10, spread=0.3)
    for q, qd in zip(qs, qds):
        kin = kinematics(model, q)
        trocar = static_trocar(place_trocar(kin.pose_r.p, kin.pose_t.p, 0.5))

        def sharp(qs_, Z_ref=None):
            cs = constraint_from_kin(kinematics(model, qs_, qd), qd, trocar)
            Z = oracles.null_basis(cs.J)
            if Z_ref is not None:
                Z = oracles.procrustes_align(Z, Z_ref)
            M = kinematics(model, qs_).M
            Lambda_n = Z.T @ M @ Z
            return cs, Z, Lambda_n, np.linalg.solve(Lambda_n, Z.T @ M)

        cs, Z, Lambda_n, Z_sharp = sharp(q)
        fd = (sharp(q + step * qd, Z)[3] - sharp(q - step * qd, Z)[3]) / (2.0 * step)
        Z_dot = -np.linalg.pinv(cs.J) @ (cs.J_dot @ Z)
        kin = kinematics(model, q, qd)
        exact = oracles.null_sharp_rate(kin.M, kin.Mdot, Z, Z_dot, Lambda_n, Z_sharp)
        assert np.abs(exact - fd).max() < 1e-6


# --- per-tick shortcuts against the general forms ---------------------------


def test_small_inv_matches_lapack(rng):
    for _ in range(20):
        A = rng.uniform(-1.0, 1.0, (2, 2)) + 2.0 * np.eye(2)
        assert np.abs(small_inv(A) - np.linalg.inv(A)).max() < 1e-12
    with pytest.raises(np.linalg.LinAlgError):
        small_inv(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        small_inv(np.zeros((2, 2)))


def test_recorded_pivot_point_matches_rcm_point(model):
    trace = run_episode(model, ControlSetup(), Scenario(alpha=0.5), SimConfig(duration=0.2))
    for k in range(0, trace.filled, 20):
        p = oracles.rcm_point(trace.p_r[k], trace.tip[k], trace.p_c[k], model.l_tool)
        assert np.abs(trace.p_rcm[k] - p).max() < 1e-15
