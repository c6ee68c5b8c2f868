"""The run-config schema: rejection messages, escapes and round trips.

``REJECTED`` pins the exact message of every malformed config the loader
rejects: each field with a wrong type, an out-of-range value, a missing
required key or an unknown key, one fault per case. Each row's test id is
built from the row alone (``conftest.rejected_case``), so inserting or editing a row
renames no other test.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rcmsim.cli import main
from rcmsim.errors import ConfigError
from rcmsim.harness import EXIT_CONFIG, config_from_dict
from conftest import rejected_case

DROP = object()  # delete the key instead of setting it
LABEL = "label: must be a plain directory name: no '/' or '\\', not '.' or '..'"
D = "scenario.disturbances[0]"
ONE_KIND = "set exactly one of joint_torque/flange_wrench/link2_force"
BASE = {
    "controller": "p_approach",
    "scenario": {
        "alpha": 0.5,
        "disturbances": [
            {"t0": 1.0, "t1": 2.0, "joint_torque": [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]}
        ],
    },
}


def with_value(path, value) -> dict:
    """BASE with the dotted ``path`` set to ``value`` (or removed for DROP);
    missing objects on the way are created."""
    cfg = copy.deepcopy(BASE)
    keys = [int(k[1:-1]) if k.startswith("[") else k for k in path.replace("[", ".[").split(".")]
    node = cfg
    for key in keys[:-1]:
        node = node[key] if isinstance(key, int) else node.setdefault(key, {})
    if value is DROP:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return cfg


REJECTED = [
    ("controller", 5, "controller: expected a string"),
    ("controller", "pid", "controller: must be one of p_approach/z_approach/uk"),
    ("controller", DROP, "controller: missing required field", "value2"),
    ("label", 5, "label: expected a string"),
    ("model", 5, "model: expected a path string"),
    ("model", "no_such_model.json", "model: file not found: no_such_model.json"),
    ("rcm_mode", "3d", "rcm_mode: unknown field"),
    ("rcm_mode", None, "rcm_mode: unknown field"),
    ("settle_time", "x", "settle_time: expected a number"),
    ("settle_time", -1.0, "settle_time: must be non-negative"),
    ("settle_time", 20.0, "settle_time: must be smaller than the run duration"),
    ("constraint_bias_feedforward", 1, "constraint_bias_feedforward: unknown field"),
    ("output", "out", "output: unknown field"),
    ("bogus", 1, "bogus: unknown field"),
    ("gains", [], "gains: expected an object", "value14"),
    ("gains", None, "gains: expected an object"),
    ("gains.bogus", 1, "gains.bogus: unknown field"),
    ("gains.kp_task", "x", "gains.kp_task: expected a number"),
    ("gains.kp_task", True, "gains.kp_task: expected a number"),
    ("gains.kp_task", -1.0, "gains.kp_task: must be non-negative"),
    ("gains.kp_rcm", "x", "gains.kp_rcm: expected a number"),
    ("gains.kp_rcm", True, "gains.kp_rcm: expected a number"),
    ("gains.kp_rcm", -1.0, "gains.kp_rcm: must be non-negative"),
    ("gains.kp_null", "x", "gains.kp_null: expected a number or null"),
    ("gains.kp_null", True, "gains.kp_null: expected a number or null"),
    ("gains.kp_null", -1.0, "gains.kp_null: must be non-negative"),
    ("gains.observer_gain", "x", "gains.observer_gain: expected a number"),
    ("gains.observer_gain", True, "gains.observer_gain: expected a number"),
    ("gains.observer_gain", -1.0, "gains.observer_gain: must be non-negative"),
    ("gains.null_damping", 4.0, "gains.null_damping: unknown field"),
    ("gains.kd_task", True, "gains.kd_task: expected a number or null"),
    ("gains.kd_null", True, "gains.kd_null: expected a number or null"),
    ("gains.kd_task", "x", "gains.kd_task: expected a number or null"),
    ("gains.kd_rcm", "x", "gains.kd_rcm: expected a number or null"),
    ("gains.kd_null", "x", "gains.kd_null: expected a number or null"),
    ("scenario", 5, "scenario: expected an object"),
    ("scenario", DROP, "scenario: missing required field", "value36"),
    ("scenario.bogus", 1, "scenario.bogus: unknown field"),
    ("scenario.alpha", "x", "scenario.alpha: expected a number"),
    ("scenario.alpha", 0.0, "scenario.alpha: must lie in (0, 1]"),
    ("scenario.alpha", 1.5, "scenario.alpha: must lie in (0, 1]"),
    ("scenario.alpha", DROP, "scenario.alpha: missing required field", "value41"),
    ("scenario.spiral.radius", "x", "scenario.spiral.radius: expected a number"),
    ("scenario.spiral.radius", 0.0, "scenario.spiral.radius: must be positive"),
    ("scenario.spiral.pitch", "x", "scenario.spiral.pitch: expected a number"),
    ("scenario.spiral.pitch", -0.1, "scenario.spiral.pitch: must be non-negative"),
    ("scenario.spiral.duration", "x", "scenario.spiral.duration: expected a number"),
    ("scenario.spiral.duration", 0.0, "scenario.spiral.duration: must be positive"),
    ("scenario.spiral.turns", 2.5, "scenario.spiral.turns: expected an integer"),
    ("scenario.spiral.turns", True, "scenario.spiral.turns: expected an integer"),
    ("scenario.spiral.turns", 0, "scenario.spiral.turns: must be at least 1"),
    ("scenario.spiral.accel_fraction", "x", "scenario.spiral.accel_fraction: expected a number"),
    ("scenario.spiral.accel_fraction", 0.0, "scenario.spiral.accel_fraction: must lie in (0, 0.5)"),
    ("scenario.spiral.accel_fraction", 0.5, "scenario.spiral.accel_fraction: must lie in (0, 0.5)"),
    ("scenario.spiral.bogus", 1, "scenario.spiral.bogus: unknown field"),
    ("scenario.trocar.mode", 5, "scenario.trocar.mode: expected a string"),
    ("scenario.trocar.mode", "wobble", "scenario.trocar.mode: must be 'static' or 'sinusoidal'"),
    ("scenario.trocar.amplitude", "x", "scenario.trocar.amplitude: expected a number"),
    ("scenario.trocar.amplitude", -0.1, "scenario.trocar.amplitude: must be non-negative"),
    ("scenario.trocar.frequency", "x", "scenario.trocar.frequency: expected a number"),
    ("scenario.trocar.frequency", -0.1, "scenario.trocar.frequency: must be non-negative"),
    ("scenario.trocar.bogus", 1, "scenario.trocar.bogus: unknown field"),
    ("scenario.disturbances", {}, "scenario.disturbances: expected a list", "value62"),
    ("scenario.disturbances", None, "scenario.disturbances: expected a list"),
    (D, 5, f"{D}: expected an object"),
    (f"{D}.t0", "x", f"{D}.t0: expected a number"),
    (f"{D}.t0", DROP, f"{D}.t0: missing required field", "value66"),
    (f"{D}.t0", -1.0, f"{D}: window must satisfy 0 <= t0 < t1"),
    (f"{D}.t1", "x", f"{D}.t1: expected a number"),
    (f"{D}.t1", DROP, f"{D}.t1: missing required field", "value69"),
    (f"{D}.t1", 1.0, f"{D}: window must satisfy 0 <= t0 < t1"),
    (f"{D}.joint_torque", "x", f"{D}.joint_torque: expected a list of numbers"),
    (f"{D}.joint_torque", [1.0, "a"], f"{D}.joint_torque: expected a list of numbers", "value72"),
    (f"{D}.joint_torque", DROP, f"{D}: {ONE_KIND}", "value73"),
    (f"{D}.flange_wrench", "x", f"{D}.flange_wrench: expected a list of numbers"),
    (f"{D}.flange_wrench", [1.0, 1.0, 1.0, 1.0, 1.0], f"{D}.flange_wrench: expected 6 numbers",
     "value75"),
    (f"{D}.flange_wrench", [1.0, 1.0, 1.0, 1.0, 1.0, 1.0], f"{D}: {ONE_KIND}", "value76"),
    (f"{D}.link2_force", [True, 0.0, 0.0], f"{D}.link2_force: expected a list of numbers",
     "value77"),
    (f"{D}.link2_force", [1.0, 2.0], f"{D}.link2_force: expected 3 numbers", "value78"),
    (f"{D}.bogus", 1, f"{D}.bogus: unknown field"),
    ("scenario.q_init", 5, "scenario.q_init: expected a list of numbers"),
    ("scenario.q_init", ["a"], "scenario.q_init: expected a list of numbers", "value81"),
    ("scenario.observer", 1, "scenario.observer: expected true/false"),
    ("scenario.compensation", 5, "scenario.compensation: expected a string"),
    ("scenario.compensation", "half", "scenario.compensation: must be off/full/preserve_null"),
    ("scenario.nullspace", "yes", "scenario.nullspace: expected true/false"),
    ("sim.dt", "x", "sim.dt: expected a number"),
    ("sim.dt", 0.0, "sim.dt: must be positive"),
    ("sim.dt", -0.001, "sim.dt: must be positive"),
    ("sim.duration", "x", "sim.duration: expected a number or null"),
    ("sim.duration", 0.0005, "sim.duration: must cover at least one step"),
    ("sim.integrator", 5, "sim.integrator: expected a string"),
    ("sim.integrator", "euler", "sim.integrator: must be 'semi_implicit' or 'rk4'"),
    ("sim.env.mode", 5, "sim.env.mode: expected a string"),
    ("sim.env.mode", "hard", "sim.env.mode: must be 'off' or 'soft'"),
    ("sim.env.stiffness", "x", "sim.env.stiffness: expected a number"),
    ("sim.env.stiffness", -1.0, "sim.env.stiffness: must be non-negative"),
    ("sim.env.damping", "x", "sim.env.damping: expected a number"),
    ("sim.env.damping", -1.0, "sim.env.damping: must be non-negative"),
    ("sim.env.bogus", 1, "sim.env.bogus: unknown field"),
    ("sim.sensor_noise_std", "x", "sim.sensor_noise_std: expected a number"),
    ("sim.sensor_noise_std", -1.0, "sim.sensor_noise_std: must be non-negative"),
    ("sim.noise_seed", 1.5, "sim.noise_seed: expected an integer"),
    ("sim.noise_seed", True, "sim.noise_seed: expected an integer"),
    ("sim.bogus", 1, "sim.bogus: unknown field"),
    ("label", "../escaped", LABEL),
    ("label", "a/b", LABEL),
    ("label", "a\\b", LABEL),
    ("label", "..", LABEL),
    ("label", ".", LABEL),
    ("label", "/tmp/abs", LABEL),
    # the episode anchors the spiral and the trocar; neither anchor is a setting
    ("scenario.spiral.start", [0.0, 0.0, 0.0], "scenario.spiral.start: unknown field", "value111"),
    ("scenario.trocar.p0", [0.0, 0.0, 0.0], "scenario.trocar.p0: unknown field", "value112"),
    ("scenario.spiral.duration", 0.0005, "scenario.spiral.duration: must cover at least one step"),
    # the null-space stiffness acts only in the compliance experiment
    ("gains.kp_null", 50.0, "gains.kp_null: must be null when scenario.nullspace is false"),
]


def test_base_config_is_valid():
    config_from_dict(copy.deepcopy(BASE))


def test_every_controller_takes_a_moving_trocar():
    # z_approach's pivot command carries the trocar terms too, so a
    # sinusoidal trocar is a valid scenario for it and builds an episode.
    for controller in ("p_approach", "z_approach", "uk"):
        cfg = config_from_dict(
            {"controller": controller, "scenario": {"alpha": 0.5, "trocar": {"mode": "sinusoidal"}}}
        )
        _, control, scenario, _ = cfg.build()
        assert control.variant == controller and scenario.trocar.mode == "sinusoidal"


@pytest.mark.parametrize("path,value,message", [rejected_case(*row) for row in REJECTED])
def test_rejection_message(path, value, message):
    with pytest.raises(ConfigError) as info:
        config_from_dict(with_value(path, value))
    assert str(info.value) == message


def test_root_must_be_object():
    with pytest.raises(ConfigError, match="^config root must be a JSON object$"):
        config_from_dict([])


finite = dict(allow_nan=False, allow_infinity=False)


def _optional(**entries):
    """Strategy for a dict holding any subset of ``entries``."""
    return st.fixed_dictionaries({}, optional=entries)


def _vector(size):
    return st.lists(st.floats(-10.0, 10.0, **finite), min_size=size, max_size=size)


def _disturbance():
    window = st.tuples(st.floats(0.0, 5.0, **finite), st.floats(0.001, 5.0, **finite))
    kind = st.sampled_from([("joint_torque", 7), ("flange_wrench", 6), ("link2_force", 3)])
    return st.builds(
        lambda w, k, v: {"t0": w[0], "t1": w[0] + w[1], k[0]: v[: k[1]]},
        window, kind, _vector(7),
    )


def _configs():
    gain = st.floats(0.0, 5000.0, **finite)
    scenario = st.fixed_dictionaries(
        {"alpha": st.floats(0.01, 1.0, **finite)},
        optional={
            "spiral": _optional(
                radius=st.floats(0.001, 0.05, **finite),
                pitch=st.floats(0.0, 0.05, **finite),
                duration=st.floats(2.0, 30.0, **finite),
                turns=st.integers(1, 10),
                accel_fraction=st.floats(0.01, 0.49, **finite),
            ),
            "trocar": _optional(
                mode=st.just("static"),
                amplitude=st.floats(0.0, 0.1, **finite),
                frequency=st.floats(0.0, 1.0, **finite),
            ),
            "disturbances": st.lists(_disturbance(), max_size=3),
            "q_init": st.none() | _vector(7),
            "observer": st.booleans(),
            "compensation": st.sampled_from(["off", "full", "preserve_null"]),
            "nullspace": st.booleans(),
        },
    )
    return st.fixed_dictionaries(
        {
            "controller": st.sampled_from(["p_approach", "z_approach", "uk"]),
            "scenario": scenario,
        },
        optional={
            "label": st.text("abcxyz_", min_size=1, max_size=8),
            "settle_time": st.floats(0.0, 1.5, **finite),
            "gains": _optional(
                kp_task=gain, kd_task=st.none() | gain, kp_rcm=gain, kd_rcm=st.none() | gain,
                kp_null=st.none() | gain, kd_null=st.none() | gain, observer_gain=gain,
            ),
            "sim": _optional(
                dt=st.floats(1e-4, 1e-2, **finite),
                duration=st.none() | st.floats(2.0, 30.0, **finite),
                integrator=st.sampled_from(["semi_implicit", "rk4"]),
                env=_optional(
                    mode=st.sampled_from(["off", "soft"]),
                    stiffness=gain,
                    damping=gain,
                ),
                sensor_noise_std=st.floats(0.0, 1e-3, **finite),
                noise_seed=st.integers(0, 2**31),
            ),
        },
    )


def _with_nullspace_gains(data):
    """``data`` with ``gains.kp_null`` dropped unless ``scenario.nullspace``
    is true: the stiffness is set only for the compliance experiment."""
    if not data["scenario"].get("nullspace"):
        data.get("gains", {}).pop("kp_null", None)
    return data


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_configs().map(_with_nullspace_gains))
def test_to_dict_round_trip(data):
    cfg = config_from_dict(data)
    dumped = cfg.to_dict()
    assert json.loads(json.dumps(dumped)) == dumped
    assert config_from_dict(dumped) == cfg


# Configs that used to pass the loader and then fail inside the run (a
# traceback, and in a sweep a missing results.json): each is now rejected at
# load time with its path. json.dumps writes inf and nan as the bare
# Infinity and NaN tokens that json.load reads back.
ESCAPES = {
    "kd_task": (with_value("gains.kd_task", -1.0), "gains.kd_task: must be non-negative"),
    "kd_rcm": (with_value("gains.kd_rcm", -1.0), "gains.kd_rcm: must be non-negative"),
    "kd_null": (with_value("gains.kd_null", -1.0), "gains.kd_null: must be non-negative"),
    "q_init": (with_value("scenario.q_init", [0.1, 0.2]), "scenario.q_init: expected 7 numbers"),
    "joint_torque": (
        with_value(f"{D}.joint_torque", [1.0, 2.0]), f"{D}.joint_torque: expected 7 numbers"
    ),
    "spiral": (with_value("scenario.spiral", 5), "scenario.spiral: expected an object"),
    "trocar": (with_value("scenario.trocar", []), "scenario.trocar: expected an object"),
    "sim": (with_value("sim", 5), "sim: expected an object"),
    "env": (with_value("sim.env", "soft"), "sim.env: expected an object"),
    "noise_seed": (with_value("sim.noise_seed", -1), "sim.noise_seed: must be non-negative"),
    "dt_inf": (with_value("sim.dt", float("inf")), "sim.dt: must be finite"),
    "kp_huge_int": (with_value("gains.kp_task", 10**400), "gains.kp_task: must be finite"),
    "alpha_nan": (with_value("scenario.alpha", float("nan")), "scenario.alpha: must be finite"),
    "q_init_nan": (
        with_value("scenario.q_init", [float("nan")] * 7), "scenario.q_init: must be finite"
    ),
    # a run duration taken from a spiral shorter than one step
    "short_spiral": (
        {**with_value("scenario.spiral.duration", 0.0005), "settle_time": 0.0},
        "scenario.spiral.duration: must cover at least one step",
    ),
}


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_label_stays_inside_the_output_directory(command, tmp_path, capsys):
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "a.json").write_text(json.dumps({**BASE, "label": "../escaped"}))
    out = tmp_path / "runs" / "out"
    args = ["--config", str(configs / "a.json")] if command == "run" else ["--configs", str(configs)]
    assert main([command, *args, "--out", str(out)]) == EXIT_CONFIG
    assert sorted(p.name for p in tmp_path.iterdir()) == ["configs"]  # nothing written
    assert capsys.readouterr().err == f"config error: {configs / 'a.json'}: {LABEL}\n"


@pytest.mark.parametrize("path,value,message", [
    ("sim.noise_seed", np.int64(3), "sim.noise_seed: expected an integer"),
    ("scenario.observer", np.bool_(True), "scenario.observer: expected true/false"),
    ("scenario.alpha", np.float32(0.5), "scenario.alpha: expected a number"),
])
def test_numpy_scalar_rejected_by_type(path, value, message):
    # only Python's JSON types load; a numpy scalar is named like any other
    # value of the wrong type
    with pytest.raises(ConfigError) as info:
        config_from_dict(with_value(path, value))
    assert str(info.value) == message


def test_malformed_model_file_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{}")
    with pytest.raises(ConfigError, match=r"^model: "):
        config_from_dict({**BASE, "model": str(path)})


# A model file that used to end a run in a traceback is rejected when the
# config loads; the message is the model's own, after "model: ".
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_malformed_model_file_starts_no_run(command, tmp_path, capsys):
    from rcmsim.robot import default_model_path

    with open(default_model_path()) as fh:
        data = json.load(fh)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({**data, "links": 5}))
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "a.json").write_text(json.dumps({**BASE, "model": str(model_path)}))
    out = tmp_path / "out"
    args = ["--config", str(configs / "a.json")] if command == "run" else ["--configs", str(configs)]
    assert main([command, *args, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == f"config error: {configs / 'a.json'}: model: links: expected a list\n"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_other_joint_count_needs_a_start_pose(command, tmp_path, capsys):
    # the default start pose has 7 joints; a 6-joint model without q_init is
    # rejected when the config loads, not by a traceback in the run
    from rcmsim.robot import default_model_path

    with open(default_model_path()) as fh:
        data = json.load(fh)
    model_path = tmp_path / "six.json"
    model_path.write_text(json.dumps(
        {**data, "n": 6, "joints": data["joints"][:6], "links": data["links"][:6]}
    ))
    configs = tmp_path / "configs"
    configs.mkdir()
    config = {"controller": "p_approach", "scenario": {"alpha": 0.5}, "model": str(model_path)}
    (configs / "a.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    args = ["--config", str(configs / "a.json")] if command == "run" else ["--configs", str(configs)]
    assert main([command, *args, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"config error: {configs / 'a.json'}: scenario.q_init: required for an arm of 6 joints"
        " (the default start pose has 7)\n"
    )


@pytest.mark.parametrize("name", sorted(ESCAPES))
def test_escape_rejected_before_any_run(name, tmp_path, capsys):
    data, message = ESCAPES[name]
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "a_good.json").write_text(json.dumps(BASE))
    (configs / "b_bad.json").write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["sweep", "--configs", str(configs), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()  # no run of the sweep started
    assert main(["run", "--config", str(configs / "b_bad.json"), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count(f"config error: {configs / 'b_bad.json'}: {message}\n") == 2


@pytest.mark.parametrize("torque,message", [
    ([1.0, 2.0], "expected 7 numbers"),
    ([np.inf] + [0.0] * 6, "must be finite"),
], ids=["length", "non_finite"])
def test_joint_torque_error_is_the_same_from_a_config_and_the_library(model, torque, message):
    # the config's scenario section is the Scenario that run_episode takes,
    # so a bad disturbance has one path however the run is described
    from rcmsim.scenarios import DisturbanceEvent
    from rcmsim.sim import ControlSetup, Scenario, SimConfig, run_episode

    event = DisturbanceEvent(t0=0.0, t1=0.01, joint_torque=torque)
    with pytest.raises(ConfigError) as library:
        run_episode(model, ControlSetup(), Scenario(disturbances=[event]), SimConfig(duration=0.01))
    with pytest.raises(ConfigError) as loaded:
        config_from_dict(with_value(f"{D}.joint_torque", torque))
    cfg = config_from_dict(copy.deepcopy(BASE))
    assert cfg.build()[2] is cfg.scenario
    cfg.scenario.disturbances[0].joint_torque = torque
    with pytest.raises(ConfigError) as checked:
        cfg.check("")
    assert str(library.value) == str(loaded.value) == str(checked.value) == f"{D}.joint_torque: {message}"


def test_episode_boundary_uses_the_same_rules(model):
    from rcmsim.scenarios import SpiralParams
    from rcmsim.sim import ControlSetup, Scenario, SimConfig, run_episode

    bad = Scenario(alpha=0.5, spiral=SpiralParams(accel_fraction=0.5))
    with pytest.raises(ConfigError, match=r"^scenario\.spiral\.accel_fraction: must lie in"):
        run_episode(model, ControlSetup(), bad, SimConfig(duration=0.01))
    with pytest.raises(ConfigError, match=r"^scenario\.q_init: expected 7 numbers$"):
        run_episode(model, ControlSetup(), Scenario(q_init=[0.0]), SimConfig(duration=0.01))
