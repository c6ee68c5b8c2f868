import copy
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rcmsim.errors import ConfigError
from rcmsim.robot import (
    DEFAULT_HOME,
    RobotModel,
    default_model_path,
    kinematics,
    load_model,
    model_from_dict,
)
from rcmsim.sim import ControlSetup, Scenario, SimConfig, run_episode
from conftest import (
    PENDULUM_LENGTH,
    PENDULUM_MASS,
    PENDULUM_MODEL,
    PLANAR_MODEL,
    random_states,
    rejected_case,
)
from oracles import forward_dynamics, inverse_dynamics, rnea


# --- independent homogeneous-transform oracle over the raw model file -------


def _mdh_matrix(a, d, alpha, theta):
    ca, sa = np.cos(alpha), np.sin(alpha)
    ct, st = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [ct, -st, 0.0, a],
            [st * ca, ct * ca, -sa, -sa * d],
            [st * sa, ct * sa, ca, ca * d],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def _oracle_frames(model_dict, q):
    T = np.eye(4)
    frames = []
    for i, j in enumerate(model_dict["joints"]):
        T = T @ _mdh_matrix(j["a"], j["d"], j["alpha"], q[i] + j["theta_offset"])
        frames.append(T.copy())
    f = model_dict.get("flange")
    if f:
        T = T @ _mdh_matrix(f["a"], f["d"], f["alpha"], f["theta"])
    return frames, T


def test_fk_matches_transform_chain_oracle(model):
    with open(default_model_path()) as fh:
        raw = json.load(fh)
    q = DEFAULT_HOME
    _, T = _oracle_frames(raw, q)
    pose = kinematics(model, q).pose_r
    assert np.abs(pose.p - T[:3, 3]).max() < 1e-12
    assert np.abs(pose.R - T[:3, :3]).max() < 1e-12


def test_fk_tip_is_tool_length_along_z(model, rng):
    for _ in range(5):
        q = DEFAULT_HOME + rng.uniform(-1.0, 1.0, model.n)
        kin = kinematics(model, q)
        pose_r, p_t = kin.pose_r, kin.p_t
        assert np.abs(p_t - (pose_r.p + model.l_tool * pose_r.R[:, 2])).max() < 1e-12
        assert abs(np.linalg.norm(p_t - pose_r.p) - model.l_tool) < 1e-9


def test_fk_rotation_orthonormal(model, rng):
    for _ in range(10):
        q = rng.uniform(-np.pi, np.pi, model.n)
        R = kinematics(model, q).pose_r.R
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-9
        assert abs(np.linalg.det(R) - 1.0) < 1e-9


def test_planar_chain_analytic(planar_model):
    pose = kinematics(planar_model, np.array([np.pi / 2, 0.0])).pose_r
    assert np.abs(pose.p - np.array([0.0, 2.0, 0.0])).max() < 1e-12


def test_planar_jacobian_analytic(planar_model):
    J = kinematics(planar_model, np.zeros(2)).J_r
    assert np.abs(J[0] - np.array([0.0, 0.0])).max() < 1e-12  # row x
    assert np.abs(J[1] - np.array([2.0, 1.0])).max() < 1e-12  # row y: l1+l2, l2


@pytest.mark.parametrize("which", ["q", "qdot"])
def test_kinematics_rejects_a_joint_vector_of_the_wrong_length(model, which):
    vectors = {"q": DEFAULT_HOME, "qdot": np.zeros(model.n)}
    vectors[which] = np.zeros(model.n - 1)
    message = rf"^expected {which} of length {model.n}, got shape \({model.n - 1},\)$"
    with pytest.raises(ValueError, match=message):
        kinematics(model, vectors["q"], vectors["qdot"])


def test_jacobian_zero_columns_beyond_supporting_joint(model):
    # Link 2's COM cannot be moved by joints 3..n.
    J = kinematics(model, DEFAULT_HOME).tracked_jacobian(1)
    assert np.abs(J[:, 2:]).max() == 0.0


def test_jacobian_matches_fk_finite_difference(model, rng):
    qs, _ = random_states(rng, model.n, 20)
    step = 1e-6
    worst = 0.0
    for q in qs:
        for point, jac in ((lambda kin: kin.pose_r.p, "J_r"), (lambda kin: kin.p_t, "Jp_t")):
            J = getattr(kinematics(model, q), jac)
            for j in range(model.n):
                dq = np.zeros(model.n)
                dq[j] = step
                dp = point(kinematics(model, q + dq)) - point(kinematics(model, q - dq))
                worst = max(worst, np.abs(dp / (2 * step) - J[:3, j]).max())
    assert worst < 1e-6


def test_jacobian_dot_zero_velocity(model, rng):
    # No at-rest branch: the general formulas give exact zeros for qdot = 0,
    # and so does the bias torque without gravity.
    m0 = replace(model, gravity=np.zeros(3))
    zero = np.zeros(model.n)
    for q in [DEFAULT_HOME] + list(rng.uniform(-np.pi, np.pi, (5, model.n))):
        kin = kinematics(model, q, zero)
        pivot_rate = kin.coincident_rate(kin.pose_r.p, np.zeros(3))
        for rate in (kin.abias_t, pivot_rate, kin.omega_r, kin.Mdot, kinematics(m0, q, zero).h):
            assert np.abs(rate).max() == 0.0


def test_jacobian_dot_independent_stencil(model, rng):
    qs, qds = random_states(rng, model.n, 10)
    delta = 1e-5
    for q, qd in zip(qs, qds):
        bias = kinematics(model, q, qd).abias_t
        ref = (kinematics(model, q + delta * qd).Jp_t - kinematics(model, q - delta * qd).Jp_t) / (
            2 * delta
        )
        assert np.abs(bias - ref @ qd).max() < 1e-4


def test_jacobian_dot_single_revolute_circular_motion(pendulum_model):
    # One revolute joint at constant rate: a point at lever distance l from
    # the axis moves on a circle, so |Jdot_p| = |qdot| * l.
    q = np.array([0.3])
    qd = np.array([0.8])
    step = 1e-6
    Jp = kinematics(pendulum_model, q + step * qd).tracked_jacobian(0)
    Jm = kinematics(pendulum_model, q - step * qd).tracked_jacobian(0)
    Jd = (Jp - Jm) / (2 * step)
    assert abs(np.linalg.norm(Jd[:, 0]) - abs(qd[0]) * PENDULUM_LENGTH) < 1e-5


def test_mass_matrix_pendulum_analytic(pendulum_model):
    M = kinematics(pendulum_model, np.array([0.4])).M
    assert abs(M[0, 0] - PENDULUM_MASS * PENDULUM_LENGTH**2) < 1e-9


def test_mass_matrix_symmetric_positive_definite(model, rng):
    qs, _ = random_states(rng, model.n, 20, spread=np.pi)
    for q in qs:
        M = kinematics(model, q).M
        assert np.abs(M - M.T).max() < 1e-10
        assert np.linalg.eigvalsh(M)[0] > 0


def test_kinetic_energy_matches_per_link_sum(model, rng):
    # Oracle: sum of per-link kinetic energies from link twists built with an
    # independent frame chain (not the CRBA code path).
    with open(default_model_path()) as fh:
        raw = json.load(fh)
    qs, qds = random_states(rng, model.n, 5)
    for q, qd in zip(qs, qds):
        frames, _ = _oracle_frames(raw, q)
        origins = np.array([F[:3, 3] for F in frames])
        axes = np.array([F[:3, 2] for F in frames])
        energy = 0.0
        for i in range(model.n):
            com_base = frames[i][:3, :3] @ model.coms[i] + origins[i]
            Jv = np.zeros((3, model.n))
            Jw = np.zeros((3, model.n))
            for j in range(i + 1):
                Jv[:, j] = np.cross(axes[j], com_base - origins[j])
                Jw[:, j] = axes[j]
            v = Jv @ qd
            w = Jw @ qd
            I_base = frames[i][:3, :3] @ model.inertias[i] @ frames[i][:3, :3].T
            energy += 0.5 * model.masses[i] * v @ v + 0.5 * w @ (I_base @ w)
        M = kinematics(model, q).M
        assert abs(0.5 * qd @ M @ qd - energy) < 1e-10 * max(1.0, energy)


def test_bias_terms_zero_velocity_gives_gravity(model):
    h = kinematics(model, DEFAULT_HOME, np.zeros(model.n)).h
    zero = np.zeros(model.n)
    g = rnea(model.dh, DEFAULT_HOME, zero, zero, model.gravity, model.masses, model.coms,
             model.inertias)
    assert np.abs(h - g).max() < 1e-12


def test_bias_terms_zero_gravity_zero_velocity(model):
    m0 = replace(model, gravity=np.zeros(3))
    h = kinematics(m0, DEFAULT_HOME, np.zeros(model.n)).h
    assert np.abs(h).max() == 0.0


def test_pendulum_gravity_torque(pendulum_model):
    for theta in (0.0, 0.3, -1.1, np.pi / 2):
        g = kinematics(pendulum_model, np.array([theta]), np.zeros(1)).h
        expected = PENDULUM_MASS * 9.81 * PENDULUM_LENGTH * np.sin(theta)
        assert abs(g[0] - expected) < 1e-9


def test_forward_dynamics_gravity_equilibrium(model):
    g = kinematics(model, DEFAULT_HOME, np.zeros(model.n)).h
    qdd = forward_dynamics(model, DEFAULT_HOME, np.zeros(model.n), g)
    assert np.abs(qdd).max() < 1e-10


def test_forward_inverse_round_trip(model, rng):
    qs, qds = random_states(rng, model.n, 10)
    for q, qd in zip(qs, qds):
        tau = rng.uniform(-5.0, 5.0, model.n)
        qdd = forward_dynamics(model, q, qd, tau)
        tau_back = inverse_dynamics(model, q, qd, qdd)
        assert np.abs(tau_back - tau).max() < 1e-8


def test_free_pendulum_from_horizontal(pendulum_model):
    qdd = forward_dynamics(pendulum_model, np.array([np.pi / 2]), np.zeros(1), np.zeros(1))
    assert abs(qdd[0] + 9.81 / PENDULUM_LENGTH) < 1e-9


def test_power_balance_zero_gravity(model, rng):
    m0 = replace(model, gravity=np.zeros(3))
    qs, qds = random_states(rng, model.n, 10)
    for q, qd in zip(qs, qds):
        tau = rng.uniform(-3.0, 3.0, model.n)
        qdd = forward_dynamics(m0, q, qd, tau)
        kin = kinematics(m0, q, qd)
        # without gravity the bias torques are the velocity product terms
        c, M = kin.h, kin.M
        lhs = qd @ (M @ qdd + c)
        rhs = qd @ tau
        assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(rhs))


def test_flange_wrench_virtual_work(model, rng):
    # Power consistency for a mapped flange force (virtual-work oracle).
    q = DEFAULT_HOME
    qd = rng.uniform(-1, 1, model.n)
    kin = kinematics(model, q)
    wrench = rng.uniform(-5, 5, 6)
    tau = kin.J_r.T @ wrench
    assert abs(qd @ tau - (kin.J_r @ qd) @ wrench) < 1e-9


# --- model file parsing ------------------------------------------------------


def _minimal_dict():
    return {
        "n": 1,
        "joints": [{"a": 0.0, "d": 0.0, "alpha": 0.0, "theta_offset": 0.0}],
        "links": [{"mass": 1.0, "com": [0, 0, 0],
                   "inertia": [[1e-3, 0, 0], [0, 1e-3, 0], [0, 0, 1e-3]]}],
        "gravity": [0, 0, -9.81],
        "l_tool": 0.5,
    }


def test_model_missing_field_names_path():
    d = _minimal_dict()
    del d["joints"][0]["alpha"]
    with pytest.raises(ConfigError, match=r"joints\[0\].alpha"):
        model_from_dict(d)


def test_model_rejects_bad_mass_and_inertia():
    d = _minimal_dict()
    d["links"][0]["mass"] = 0.0
    with pytest.raises(ConfigError, match=r"links\[0\].mass"):
        model_from_dict(d)
    d = _minimal_dict()
    d["links"][0]["inertia"] = [[1e-3, 0, 0], [0, -1e-3, 0], [0, 0, 1e-3]]
    with pytest.raises(ConfigError, match=r"links\[0\].inertia"):
        model_from_dict(d)


def test_model_rejects_bad_tool_length():
    d = _minimal_dict()
    d["l_tool"] = 0.0
    with pytest.raises(ConfigError, match="l_tool"):
        model_from_dict(d)


NAN, INF = math.nan, math.inf
EYE = [[1e-3, 0, 0], [0, 1e-3, 0], [0, 0, 1e-3]]
JOINT = {"a": 0.0, "d": 0.0, "alpha": 0.0, "theta_offset": 0.0}
FLANGE = {"a": 0.0, "d": 0.0, "alpha": 0.0, "theta": 0.0}


def _model_with(path, value) -> dict:
    """``_minimal_dict`` with a flange and the dotted ``path`` set to ``value``."""
    d = {**_minimal_dict(), "flange": dict(FLANGE)}
    keys = [int(k[1:-1]) if k.startswith("[") else k for k in path.replace("[", ".[").split(".")]
    node = d
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = copy.deepcopy(value)
    return d


# Every malformed model the loader rejects, with its exact message: the
# run-config schema's type, finiteness and unknown-key rules, and the model's
# own range and shape rules. Each row's test id is built from the row alone
# (``conftest.rejected_case``), so inserting a row renames no other test.
MODEL_REJECTED = [
    ("joints[0].a", NAN, "joints[0].a: must be finite"),
    ("joints[0].d", INF, "joints[0].d: must be finite"),
    ("joints[0].alpha", -INF, "joints[0].alpha: must be finite"),
    ("joints[0].theta_offset", NAN, "joints[0].theta_offset: must be finite"),
    ("links[0].mass", NAN, "links[0].mass: must be finite"),
    ("links[0].mass", INF, "links[0].mass: must be finite"),
    ("links[0].com", [0.0, NAN, 0.0], "links[0].com: must be finite", "value6"),
    ("links[0].inertia", [[INF, 0, 0], [0, 1e-3, 0], [0, 0, 1e-3]],
     "links[0].inertia[0]: must be finite", "value7"),
    ("l_tool", INF, "l_tool: must be finite"),
    ("l_tool", NAN, "l_tool: must be finite"),
    ("gravity", [0.0, 0.0, NAN], "gravity: must be finite", "value10"),
    ("gravity", [0.0, 0.0, -INF], "gravity: must be finite", "value11"),
    ("flange.a", INF, "flange.a: must be finite"),
    ("flange.theta", NAN, "flange.theta: must be finite"),
    ("joints[0].a", "0.1", "joints[0].a: expected a number"),
    ("joints[0].a", True, "joints[0].a: expected a number"),
    ("links[0].mass", "1.0", "links[0].mass: expected a number"),
    ("links[0].mass", False, "links[0].mass: expected a number"),
    ("links[0].com", [0, "0", 0], "links[0].com: expected a list of numbers", "value18"),
    ("links[0].com", [0, True, 0], "links[0].com: expected a list of numbers", "value19"),
    ("links[0].inertia", [[1e-3, 0, 0], [0, "1e-3", 0], [0, 0, 1e-3]],
     "links[0].inertia[1]: expected a list of numbers", "value20"),
    ("l_tool", "0.5", "l_tool: expected a number"),
    ("gravity", [0, 0, "-9.81"], "gravity: expected a list of numbers", "value22"),
    ("flange.theta", True, "flange.theta: expected a number"),
    ("n", True, "n: expected an integer"),
    ("n", 1.0, "n: expected an integer"),
    ("n", 0, "n: expected a positive integer"),
    ("description", 5, "description: expected a string"),
    ("flang", dict(FLANGE), "flang: unknown field", "value28"),
    ("joints[0].theta", 0.0, "joints[0].theta: unknown field"),
    ("links[0].masss", 1.0, "links[0].masss: unknown field"),
    ("flange.theta_offset", 0.0, "flange.theta_offset: unknown field"),
    ("joints[0]", 5, "joints[0]: expected an object"),
    ("joints[0]", [0.0, 0.0, 0.0, 0.0], "joints[0]: expected an object", "value33"),
    ("links[0]", None, "links[0]: expected an object"),
    ("flange", [0.0, 0.0, 0.0, 0.0], "flange: expected an object", "value35"),
    ("links", 5, "links: expected a list"),
    ("links", {"0": {}}, "links: expected a list", "value37"),
    ("joints", 5, "joints: expected a list"),
    ("links[0].com", 5, "links[0].com: expected a list of numbers"),
    ("links[0].com", [0.0, 0.0], "links[0].com: expected 3 numbers", "value40"),
    ("gravity", [0.0, -9.81], "gravity: expected 3 numbers", "value41"),
    ("links[0].inertia", 5, "links[0].inertia: expected a list"),
    ("links[0].inertia", [1e-3, 1e-3, 1e-3], "links[0].inertia[0]: expected a list of numbers",
     "value43"),
    ("links[0].inertia", [[1e-3, 0, 0], [0, 1e-3], [0, 0, 1e-3]],
     "links[0].inertia: expected a 3x3 matrix", "value44"),
    ("links[0].inertia", [[1e-3, 0], [0, 1e-3]], "links[0].inertia: expected a 3x3 matrix",
     "value45"),
    ("links[0].inertia", EYE + [[0, 0, 0]], "links[0].inertia: expected a 3x3 matrix",
     "value46"),
    ("links[0].inertia", [[1e-3, 1e-6, 0], [0, 1e-3, 0], [0, 0, 1e-3]],
     "links[0].inertia: not symmetric", "value47"),
    ("links[0].inertia", [[1e-3, 0, 0], [0, 0, 0], [0, 0, 1e-3]],
     "links[0].inertia: not positive-definite", "value48"),
    ("links[0].mass", 0.0, "links[0].mass: must be positive"),
    ("l_tool", -0.1, "l_tool: must be positive"),
    ("joints", [JOINT, JOINT], "joints: expected 1 entries, got 2", "value51"),
    ("links", [], "links: expected 1 entries, got 0", "value52"),
]


@pytest.mark.parametrize("path,value,message", [rejected_case(*row) for row in MODEL_REJECTED])
def test_model_rejection_message(path, value, message):
    with pytest.raises(ConfigError) as info:
        model_from_dict(_model_with(path, value))
    assert str(info.value) == message


def test_model_file_errors_name_the_file(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ConfigError, match=f"^file not found: {missing}$"):
        load_model(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match=f"^invalid JSON in {bad}: "):
        load_model(str(bad))
    bad.write_text("[]")
    with pytest.raises(ConfigError, match=f"^{bad}: root must be a JSON object$"):
        load_model(str(bad))
    bad.write_text(json.dumps(_model_with("joints[0].a", NAN)))  # the bare token NaN
    with pytest.raises(ConfigError, match=rf"^{bad}: joints\[0\]\.a: must be finite$"):
        load_model(str(bad))


@pytest.mark.parametrize("how", ["arrays", "replace"])
def test_joint_count_is_the_dh_table_rows(model, how):
    # n is derived, so a model built from arrays or cut down with replace
    # cannot disagree with its table: the default arm's first six rows run
    # a 6-joint episode.
    six = {"dh": model.dh[:6], "masses": model.masses[:6], "coms": model.coms[:6],
           "inertias": model.inertias[:6]}
    if how == "arrays":
        arm = RobotModel(**six, gravity=model.gravity, l_tool=model.l_tool, flange=model.flange)
    else:
        arm = replace(model, **six)
    assert arm.n == 6
    scenario = Scenario(alpha=0.5, q_init=DEFAULT_HOME[:6])
    trace = run_episode(arm, ControlSetup(), scenario, SimConfig(duration=0.05))
    assert trace.filled == 51
    assert trace.constraint_gap.max() <= 1e-9
    with pytest.raises(TypeError):
        RobotModel(n=6, **six, gravity=model.gravity, l_tool=model.l_tool)
    with pytest.raises((TypeError, ValueError), match="init=False"):
        replace(model, n=6)


def _file_arrays(raw: dict) -> dict:
    links = raw["links"]
    flange = raw.get("flange")
    return {
        "dh": [[j[k] for k in ("a", "d", "alpha", "theta_offset")] for j in raw["joints"]],
        "masses": [link["mass"] for link in links],
        "coms": [link["com"] for link in links],
        "inertias": [link["inertia"] for link in links],
        "gravity": raw["gravity"],
        "flange": [0.0] * 4 if flange is None else [flange[k] for k in ("a", "d", "alpha", "theta")],
    }


@pytest.mark.parametrize("name", ["default", "planar", "pendulum"])
def test_model_arrays_are_the_file_values(name, model, planar_model, pendulum_model):
    if name == "default":
        with open(default_model_path()) as fh:
            raw = json.load(fh)
        loaded = [model, load_model(default_model_path())]
    else:
        raw = PLANAR_MODEL if name == "planar" else PENDULUM_MODEL
        loaded = [planar_model if name == "planar" else pendulum_model]
    for m in loaded:
        assert m.n == raw["n"]
        for attr, values in _file_arrays(raw).items():
            expected = np.array(values, dtype=float)
            got = getattr(m, attr)
            assert got.dtype == expected.dtype and got.shape == expected.shape, attr
            assert got.tobytes() == expected.tobytes(), attr
        assert m.l_tool == raw["l_tool"]
        assert m.description == raw.get("description", "")
