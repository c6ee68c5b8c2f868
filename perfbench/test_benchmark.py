"""Each check of the benchmark passes on the program's real output and
rejects a deliberately corrupted copy of it; the span and timing arithmetic
gives what it should on made-up input.

    python3 -m pytest perfbench -q
"""

import copy
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run as runner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckFailed  # noqa: E402
from rcmsim import harness, sim  # noqa: E402
from rcmsim.robot import load_model  # noqa: E402
from rcmsim.scenarios import DisturbanceEvent, DisturbanceSchedule  # noqa: E402

MODEL = ROOT / "src" / "rcmsim" / "data" / "default_7dof.json"
DURATION = 0.3
SETTLE = 0.1
STEP = (0.05, 10.0, [0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0])


@pytest.fixture(scope="module")
def chain():
    return oracle.Chain.from_json(str(MODEL))


def _episode(controller="p_approach", alpha=0.25, observer=False, disturbances=None):
    q0 = workloads.start_state(np.random.default_rng(7))
    trace = sim.run_episode(
        load_model(str(MODEL)),
        sim.ControlSetup(variant=controller, observer=observer),
        sim.Scenario(alpha=alpha, spiral=workloads.spiral_params(), q_init=q0,
                     disturbances=disturbances or DisturbanceSchedule()),
        sim.SimConfig(duration=DURATION),
    )
    ex = oracle.Expect(controller, controller, workloads.SPIRAL, oracle.Trocar(alpha), settle=SETTLE)
    return ex, trace


@pytest.fixture(scope="module")
def clean():
    return _episode()


@pytest.fixture
def run(clean):
    """A fresh copy of the clean episode that a test may corrupt."""
    ex, trace = clean
    return ex, copy.deepcopy(trace)


def _all_checks(chain, ex, trace):
    poses = oracle.check_geometry(chain, ex, trace)
    oracle.check_semi_implicit(ex, trace, with_qdd=True)
    oracle.check_dynamics(chain, ex, trace)
    oracle.check_constraint_gap(ex, trace)
    oracle.check_tracking(ex, trace, poses)


@pytest.mark.parametrize("controller", ["p_approach", "z_approach", "uk"])
def test_checks_pass_on_program_output(chain, controller):
    ex, trace = _episode(controller, alpha=0.5)
    poses = oracle.check_geometry(chain, ex, trace)
    oracle.check_semi_implicit(ex, trace, with_qdd=True)
    oracle.check_dynamics(chain, ex, trace)
    if controller != "z_approach":
        oracle.check_constraint_gap(ex, trace)
    oracle.check_figures(controller, harness.compute_metrics(trace, SETTLE).to_dict(),
                         oracle.metric_figures(trace, SETTLE))
    assert poses.tip.shape == (trace.filled, 3)


def test_clean_projected_episode_passes_every_check(chain, run):
    _all_checks(chain, *run)


def test_rejects_q_shifted_at_one_tick(chain, run):
    ex, trace = run
    trace.q[150, 3] += 1e-6
    with pytest.raises(CheckFailed, match="tip position"):
        oracle.check_geometry(chain, ex, trace)
    with pytest.raises(CheckFailed, match="q\\[k\\+1\\]"):
        oracle.check_semi_implicit(ex, trace, with_qdd=True)


def test_rejects_swapped_qdd_rows(chain, run):
    ex, trace = run
    trace.qdd[[120, 121]] = trace.qdd[[121, 120]]
    with pytest.raises(CheckFailed, match="RNEA"):
        oracle.check_dynamics(chain, ex, trace)
    with pytest.raises(CheckFailed, match="qdd"):
        oracle.check_semi_implicit(ex, trace, with_qdd=True)


def test_rejects_torque_off_by_a_micro_newton_metre(chain, run):
    ex, trace = run
    trace.tau[200, 0] += 1e-6
    with pytest.raises(CheckFailed, match="RNEA"):
        oracle.check_dynamics(chain, ex, trace)


@pytest.mark.parametrize("column, what", [
    ("ref", "spiral reference"),
    ("p_c", "trocar position"),
    ("res3d", "3D pivot residual"),
    ("res2d", "2D pivot residual"),
    ("p_r", "tool-reference position"),
    ("p_rcm", "pivot point"),
])
def test_rejects_geometry_column_off_by_a_nanometre_or_more(chain, run, column, what):
    ex, trace = run
    getattr(trace, column)[77, 0] += 2e-9
    with pytest.raises(CheckFailed, match=what):
        oracle.check_geometry(chain, ex, trace)


def test_rejects_constraint_gap(run):
    ex, trace = run
    trace.constraint_gap[33] = 2e-6
    with pytest.raises(CheckFailed, match="constraint gap"):
        oracle.check_constraint_gap(ex, trace)


def test_rejects_pivot_and_tip_beyond_criterion_5(chain, run):
    ex, trace = run
    poses = oracle.forward_kinematics(chain, trace.q[: trace.filled])
    oracle.check_tracking(ex, trace, poses)
    # the first tick places the trocar and starts the spiral
    p_r = poses.p_r.copy()
    p_r[1:] += 2e-3 * poses.R_r[1:, :, 0]
    with pytest.raises(CheckFailed, match="pivot residual"):
        oracle.check_tracking(ex, trace, oracle.Poses(p_r, poses.R_r, poses.tip))
    tip = poses.tip.copy()
    tip[1:, 2] += 3e-3
    with pytest.raises(CheckFailed, match="tip MAE"):
        oracle.check_tracking(ex, trace, oracle.Poses(poses.p_r, poses.R_r, tip))


def test_observer_check_passes_and_rejects_a_biased_estimate():
    schedule = DisturbanceSchedule([DisturbanceEvent(t0=STEP[0], t1=STEP[1], joint_torque=np.array(STEP[2]))])
    ex, trace = _episode(observer=True, disturbances=schedule)
    ex = oracle.Expect(ex.name, ex.controller, ex.spiral, ex.trocar, settle=SETTLE, torque_step=STEP)
    oracle.check_observer(ex, trace)
    trace.tau_ext_hat[250, 3] *= 0.9
    with pytest.raises(CheckFailed, match="observer"):
        oracle.check_observer(ex, trace)


def test_rejects_one_value_edited_in_metrics_json(tmp_path, clean):
    _, trace = clean
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    saved = json.loads(json.dumps(harness.compute_metrics(trace, SETTLE).to_dict()))
    table = sim.read_trace_csv(str(path))
    recomputed = harness.compute_metrics(table, SETTLE).to_dict()
    oracle.check_saved_metrics("run", saved, recomputed)
    oracle.check_figures("run", saved, oracle.metric_figures(table, SETTLE))

    edited = dict(saved, peak_torque=saved["peak_torque"] * (1 + 1e-15))
    with pytest.raises(CheckFailed, match="peak_torque"):
        oracle.check_saved_metrics("run", edited, recomputed)
    edited = dict(saved, mean_abs_torque=saved["mean_abs_torque"] * 1.001)
    with pytest.raises(CheckFailed, match="mean_abs_torque"):
        oracle.check_figures("run", edited, oracle.metric_figures(table, SETTLE))


def test_digest_sees_a_one_ulp_change(clean):
    _, trace = clean
    q = trace.q.copy()
    before = oracle.digest(q)
    q[10, 2] = np.nextafter(q[10, 2], np.inf)
    assert oracle.digest(q) != before


def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer():
        traced_leaf()
        time.sleep(0.01)

    tracer.wrap("outer", outer)()
    s = tracer.spans()
    outer_self = s["self"][0] / 1e9
    leaf_self = s["self"][1] / 1e9
    assert s["parent"].tolist() == [-1, 0]
    assert 0.01 <= outer_self < 0.02
    assert leaf_self >= 0.02


def test_times_are_medians_at_reference_speed():
    def timed(seconds, slowdown, run_s):
        episode = tracing.Episode(seconds, ticks=50, slowdown=slowdown, probe_s=0.01)
        return runner.Timed(workloads.Round(run_s=[run_s]), False, [episode], 0)

    # the second round ran on a host twice as slow: its 0.6 s count as 0.3
    rounds = [timed(0.2, 1.0, 0.41), timed(0.6, 2.0, 1.21), timed(0.25, 1.0, 0.51)]
    ticks_per_s, run_s = runner.at_reference_speed(rounds)
    assert ticks_per_s == pytest.approx(50 / 0.25)
    # runs without the 0.01 s of probes: 0.4, 1.2 / 2 and 0.5
    assert run_s == pytest.approx(0.5)
