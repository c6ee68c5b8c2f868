import json
import logging
import os

import numpy as np
import pytest

from rcmsim.errors import ConfigError
from rcmsim.harness import (
    COMPLIANCE_KP_NULL,
    EXIT_DIVERGED,
    EXIT_OK,
    MetricsRecord,
    compare_runs,
    compute_metrics,
    config_from_dict,
    parse_config,
    render_comparison,
    run_matrix,
)
from rcmsim.sim import SimTrace


MINIMAL = {"controller": "p_approach", "scenario": {"alpha": 0.5}}


def test_minimal_config_defaults():
    cfg = config_from_dict(dict(MINIMAL))
    assert cfg.controller == "p_approach"
    assert cfg.scenario.alpha == 0.5
    assert cfg.gains.kp_task == 1000.0
    assert cfg.gains.kp_rcm == 1500.0
    assert cfg.sim.dt == 1e-3
    assert cfg.sim.duration is None
    assert cfg.scenario.spiral.radius == 0.02
    assert cfg.scenario.trocar.mode == "static"
    assert cfg.settle_time == 1.0


def test_default_gains_match_library_defaults():
    # without scenario.nullspace a config has no null-space stiffness, as a
    # default ControlSetup has none
    from dataclasses import fields

    from rcmsim.sim import ControlSetup

    _, control, _, _ = config_from_dict(dict(MINIMAL)).build()
    library = ControlSetup().gains
    for f in fields(library):
        assert np.array_equal(getattr(control.gains, f.name), getattr(library, f.name)), f.name


@pytest.mark.parametrize("kp_null, expected", [(None, COMPLIANCE_KP_NULL), (50.0, 50.0)])
def test_nullspace_stiffness(kp_null, expected):
    # the compliance experiment's stiffness, unless the config gives its own
    data = {**MINIMAL, "scenario": {"alpha": 0.5, "nullspace": True}, "gains": {"kp_null": kp_null}}
    _, control, _, _ = config_from_dict(data).build()
    assert control.gains.kp_null == expected


def test_config_alpha_bound():
    bad = {"controller": "p_approach", "scenario": {"alpha": 1.2}}
    with pytest.raises(ConfigError, match="scenario.alpha"):
        config_from_dict(bad)


def test_config_unknown_key_rejected_with_path():
    bad = {"controller": "p_approach", "scenario": {"alpha": 0.5, "alpa": 1}}
    with pytest.raises(ConfigError, match="scenario.alpa"):
        config_from_dict(bad)
    bad = {"controller": "p_approach", "scenario": {"alpha": 0.5}, "simm": {}}
    with pytest.raises(ConfigError, match="simm"):
        config_from_dict(bad)
    bad = {"controller": "p_approach", "scenario": {"alpha": 0.5},
           "sim": {"env": {"mode": "off", "stiffnes": 1.0}}}
    with pytest.raises(ConfigError, match=r"sim.env.stiffnes"):
        config_from_dict(bad)


def test_config_missing_required():
    with pytest.raises(ConfigError, match="controller"):
        config_from_dict({"scenario": {"alpha": 0.5}})
    with pytest.raises(ConfigError, match="scenario.alpha"):
        config_from_dict({"controller": "uk", "scenario": {}})


def test_config_round_trip():
    full = {
        "controller": "z_approach",
        "label": "zrun",
        "gains": {"kp_task": 800.0, "kp_rcm": 1200.0, "kd_rcm": 60.0},
        "scenario": {
            "alpha": 0.4,
            "spiral": {"radius": 0.015, "duration": 10.0},
            "trocar": {"mode": "static"},
            "disturbances": [
                {"t0": 1.0, "t1": 2.0, "joint_torque": [0, 0, 0, 2.0, 0, 0, 0]}
            ],
            "observer": True,
            "compensation": "preserve_null",
            "nullspace": True,
        },
        "sim": {"dt": 0.002, "duration": 4.0, "integrator": "rk4",
                "env": {"mode": "soft"}},
        "settle_time": 0.5,
    }
    cfg = config_from_dict(full)
    again = config_from_dict(cfg.to_dict())
    assert again == cfg


def test_parse_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(str(bad))


def test_parse_config_label_from_filename(tmp_path):
    path = tmp_path / "sweep_a.json"
    path.write_text(json.dumps(MINIMAL))
    assert parse_config(str(path)).label == "sweep_a"


def _toy_trace(tau_rows, res_rows=None, dt=0.5):
    n = len(tau_rows[0])
    count = len(tau_rows)
    tr = SimTrace(n, count)
    tr.filled = count
    tr.t[:] = np.arange(count) * dt
    tr.tau[:] = np.asarray(tau_rows, dtype=float)
    if res_rows is not None:
        tr.res2d[:] = np.asarray(res_rows, dtype=float)
    return tr


def test_metrics_constant_residual():
    rows = [[0.0, 0.0]] * 8
    res = [[1e-3, 0.0]] * 8
    tr = _toy_trace(rows, res)
    m = compute_metrics(tr, settle_time=1.0)
    assert m.residual_mae[0] == pytest.approx(1e-3)
    assert m.residual_mae[1] == 0.0
    assert m.residual_norm_mean == pytest.approx(1e-3)


def test_metrics_torque_conventions():
    # constant tau = (1, -2) on a 2-joint trace
    rows = [[1.0, -2.0]] * 8
    m = compute_metrics(_toy_trace(rows), settle_time=1.0)
    assert m.total_torque_consumption == pytest.approx(3.0)
    assert m.peak_torque == pytest.approx(2.0)
    assert m.peak_total_torque == pytest.approx(3.0)
    assert m.mean_abs_torque == pytest.approx(1.5)
    assert m.mean_abs_torque_per_joint == pytest.approx((1.0, 2.0))
    assert m.smoothness == 0.0


def test_metrics_settle_time_validation():
    tr = _toy_trace([[0.0, 0.0]] * 4)
    with pytest.raises(ValueError):
        compute_metrics(tr, settle_time=10.0)


def _record(**over):
    base = dict(
        tip_mae=(1e-3, 1e-3, 1e-3),
        residual_mae=(1e-4, 1e-4),
        residual_norm_mean=1.5e-4,
        mean_abs_torque=0.5,
        mean_abs_torque_per_joint=(0.5, 0.5),
        peak_torque=1.0,
        peak_total_torque=2.0,
        total_torque_consumption=1.0,
        smoothness=3.0,
        settle_time=1.0,
    )
    base.update(over)
    return MetricsRecord(**base)


def test_compare_identical_runs_all_ratios_one():
    table = compare_runs([("a", _record()), ("b", _record())])
    for row in table["rows"]:
        for key, value in row.items():
            if key.endswith("_ratio"):
                assert value == pytest.approx(1.0)


def test_compare_peak_ratio():
    # 1.10 vs 0.99 peak: the second run reports an 11% higher peak.
    table = compare_runs([("p", _record(peak_torque=0.99)), ("z", _record(peak_torque=1.10))])
    assert table["rows"][1]["peak_torque_ratio"] == pytest.approx(1.1111, abs=1e-4)
    text = render_comparison(table)
    assert "peak_torque_ratio" in text and "z" in text


def test_compare_empty_is_usage_error():
    with pytest.raises(ValueError):
        compare_runs([])


def test_run_matrix_depth_sweep(tmp_path):
    configs = []
    for alpha in (0.75, 0.5, 0.25):
        configs.append(
            config_from_dict(
                {
                    "controller": "p_approach",
                    "label": f"alpha_{int(alpha*100)}",
                    "scenario": {"alpha": alpha, "spiral": {"duration": 20.0}},
                    "sim": {"duration": 0.4},
                    "settle_time": 0.1,
                }
            )
        )
    status = run_matrix(configs, str(tmp_path), jobs=1)
    assert status == EXIT_OK
    for cfg in configs:
        assert (tmp_path / cfg.label / "trace.csv").exists()
        assert (tmp_path / cfg.label / "metrics.json").exists()
    assert (tmp_path / "comparison.txt").exists()
    table = json.loads((tmp_path / "comparison.json").read_text())
    assert [row["label"] for row in table["rows"]] == [c.label for c in configs]


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_comparison_over_a_zero_baseline_metric_is_strict_json(tmp_path):
    # The first run settles 0.5 ms before its end, so one tick is settled
    # and its smoothness is 0: every ratio over it is null, not NaN.
    configs = [
        config_from_dict(
            {"controller": "p_approach", "label": label, "scenario": {"alpha": 0.5},
             "sim": {"duration": 0.05}, "settle_time": settle}
        )
        for label, settle in (("short", 0.0495), ("long", 0.01))
    ]
    assert run_matrix(configs, str(tmp_path)) == EXIT_OK
    table = _strict_json((tmp_path / "comparison.json").read_text())
    assert table["rows"][0]["smoothness"] == 0.0
    assert [row["smoothness_ratio"] for row in table["rows"]] == [None, None]
    assert table["rows"][1]["peak_torque_ratio"] > 0.0
    # the text table prints a missing ratio as -
    zero_peak = compare_runs([("a", _record(peak_torque=0.0)), ("b", _record())])
    assert zero_peak["rows"][1]["peak_torque_ratio"] is None
    last = render_comparison(zero_peak).splitlines()[-1].split()
    assert last[0] == "b" and last[-2] == "-"


def test_run_matrix_single_run_degenerates(tmp_path):
    cfg = config_from_dict(
        {"controller": "p_approach", "label": "solo",
         "scenario": {"alpha": 0.5}, "sim": {"duration": 0.3}, "settle_time": 0.1}
    )
    assert run_matrix([cfg], str(tmp_path)) == EXIT_OK
    table = json.loads((tmp_path / "comparison.json").read_text())
    assert len(table["rows"]) == 1


def test_run_matrix_divergence_isolated(tmp_path, recwarn):
    good = config_from_dict(
        {"controller": "p_approach", "label": "good",
         "scenario": {"alpha": 0.5}, "sim": {"duration": 0.3}, "settle_time": 0.1}
    )
    bad = config_from_dict(
        {"controller": "p_approach", "label": "bad",
         "gains": {"kp_task": 1e9, "kd_task": 0.0},
         "scenario": {"alpha": 0.5}, "sim": {"duration": 0.3}, "settle_time": 0.1}
    )
    status = run_matrix([bad, good], str(tmp_path))
    assert status == EXIT_DIVERGED
    results = json.loads((tmp_path / "results.json").read_text())
    assert results[0]["status"] == "diverged"
    assert "tick" in results[0] and results[0]["tick"] >= 0
    assert results[1]["status"] == "ok"
    assert (tmp_path / "good" / "metrics.json").exists()
    # Each run's record: the diverged one over the ticks before the bad one,
    # the ok one over all 301 ticks of its 0.3 s.
    bad_rec, good_rec = results
    assert bad_rec["ticks"] == bad_rec["tick"]
    assert bad_rec["max_constraint_gap"] > 1.0
    assert good_rec["ticks"] == 301
    assert good_rec["max_constraint_gap"] < 1e-9
    for rec in results:
        assert rec["wall_s"] > 0
        assert rec["ticks_per_s"] == rec["ticks"] / rec["wall_s"]
        assert rec["damped_inverses"] == 0
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_run_record_counts_damped_inverses_without_logging(tmp_path, caplog):
    # With the pivot at the tip (alpha 1) p_approach's free-motion tip inertia
    # is singular from the first tick, and every tick takes the damped
    # inverse: the run's record counts them, and nothing is logged.
    configs = [
        config_from_dict(
            {"controller": "p_approach", "label": f"alpha{alpha}", "scenario": {"alpha": alpha},
             "sim": {"duration": 0.2}, "settle_time": 0.1}
        )
        for alpha in (1.0, 0.5)
    ]
    with caplog.at_level(logging.DEBUG, logger="rcmsim"):
        assert run_matrix(configs, str(tmp_path)) == EXIT_OK
    assert not [rec for rec in caplog.records if rec.name.startswith("rcmsim")]
    results = json.loads((tmp_path / "results.json").read_text())
    assert [r["ticks"] for r in results] == [201, 201]
    assert [r["damped_inverses"] for r in results] == [201, 0]


def _short_run(label: str, controller: str = "p_approach") -> dict:
    return {"controller": controller, "label": label, "scenario": {"alpha": 0.5},
            "sim": {"duration": 0.2}, "settle_time": 0.1}


def test_run_matrix_pool_capped_at_config_count(tmp_path, monkeypatch):
    # A fork-started pool starts all max_workers processes at the first
    # submit: the pool never asks for more workers than there are configs.
    import concurrent.futures

    asked = []

    class InlinePool:
        """Records max_workers and runs the calls in this process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    configs = [config_from_dict(_short_run(label)) for label in ("a", "b")]
    assert run_matrix(configs, str(tmp_path / "two"), jobs=64) == EXIT_OK
    assert run_matrix(configs[:1], str(tmp_path / "one"), jobs=64) == EXIT_OK
    assert asked == [2]
    assert (tmp_path / "two" / "b" / "trace.csv").exists()


@pytest.mark.parametrize("command", ["sweep"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_jobs_below_one(tmp_path, capsys, command, jobs):
    from rcmsim.cli import main

    (tmp_path / "a.json").write_text(json.dumps(_short_run("a")))
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--configs", str(tmp_path), "--out", str(tmp_path / "o"), "--jobs", jobs])
    assert exc_info.value.code == 2
    assert "--jobs: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_run_has_no_jobs_option(tmp_path, capsys):
    # one config never needs a second worker, so ``run`` takes no --jobs
    from rcmsim.cli import main

    (tmp_path / "a.json").write_text(json.dumps(_short_run("a")))
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "--config", str(tmp_path / "a.json"), "--out", str(tmp_path / "o"),
              "--jobs", "2"])
    assert exc_info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_matrix_pool_writes_the_serial_files(tmp_path):
    # Two worker processes, one per config, into the directory the serial
    # run wrote: every file has the serial bytes, and results.json differs
    # only in the timings.
    configs = [config_from_dict(_short_run("p")), config_from_dict(_short_run("u", "uk"))]
    files = ["comparison.json", "p/trace.csv", "p/metrics.json", "u/trace.csv", "u/metrics.json"]

    def written():
        out = {name: (tmp_path / name).read_bytes() for name in files}
        results = json.loads((tmp_path / "results.json").read_text())
        for rec in results:
            assert rec.pop("wall_s") > 0 and rec.pop("ticks_per_s") > 0
        return out, results

    assert run_matrix(configs, str(tmp_path), jobs=1) == EXIT_OK
    serial = written()
    for name in files + ["results.json"]:
        (tmp_path / name).unlink()
    assert run_matrix(configs, str(tmp_path), jobs=2) == EXIT_OK
    assert written() == serial


def test_run_matrix_duplicate_labels_rejected(tmp_path):
    cfg = config_from_dict(dict(MINIMAL))
    with pytest.raises(ConfigError, match="duplicate"):
        run_matrix([cfg, cfg], str(tmp_path))


def test_sweep_with_duplicate_labels_writes_nothing(tmp_path, capsys):
    # rejected before the output directory is made, naming the label
    from rcmsim.cli import main

    configs = tmp_path / "configs"
    configs.mkdir()
    for name in ("a.json", "b.json"):
        (configs / name).write_text(json.dumps({**MINIMAL, "label": "twin"}))
    out = tmp_path / "out"
    assert main(["sweep", "--configs", str(configs), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "config error: duplicate run label 'twin' in the config set\n"
    )


def test_metrics_reproduce_exactly_from_csv(tmp_path):
    from rcmsim.robot import load_default_model
    from rcmsim.sim import ControlSetup, Scenario, SimConfig, read_trace_csv, run_episode

    model = load_default_model()
    trace = run_episode(
        model, ControlSetup(), Scenario(alpha=0.5), SimConfig(dt=1e-3, duration=0.3)
    )
    m_direct = compute_metrics(trace, settle_time=0.1)
    path = tmp_path / "t.csv"
    trace.to_csv(path)
    m_csv = compute_metrics(read_trace_csv(str(path)), settle_time=0.1)
    assert m_direct == m_csv  # bit-exact through the 17-digit round trip


def test_cli_run_and_metrics(tmp_path, capsys):
    from rcmsim.cli import main

    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps(
            {"controller": "p_approach", "label": "cli",
             "scenario": {"alpha": 0.5}, "sim": {"duration": 0.3}, "settle_time": 0.1}
        )
    )
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == EXIT_OK
    trace_path = out_dir / "cli" / "trace.csv"
    assert trace_path.exists()
    assert main(["metrics", "--trace", str(trace_path), "--settle", "0.1"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    saved = json.loads((out_dir / "cli" / "metrics.json").read_text())
    # CLI metrics recomputed from the CSV must match the saved file exactly
    assert payload == pytest.approx(saved) or payload == saved
    assert main(
        ["compare", "--metrics", str(out_dir / "cli" / "metrics.json")]
    ) == EXIT_OK


METRICS = json.loads(json.dumps(_record().to_dict()))


@pytest.mark.parametrize("fault,content,message", [
    ("missing", None, "file not found: {path}"),
    ("invalid_json", "{nope", "invalid JSON in {path}: "),
    ("invalid_utf8", b'{"bogus": "\xff"}', "invalid JSON in {path}: 'utf-8' codec can't decode"),
    ("a_directory", "<dir>", "cannot read {path}: Is a directory"),
    ("not_an_object", "[]", "{path}: root must be a JSON object"),
    ("missing_field", {k: v for k, v in METRICS.items() if k != "smoothness"},
     "smoothness: missing required field"),
    ("unknown_field", {**METRICS, "bogus": 1.0}, "bogus: unknown field"),
    ("string_number", {**METRICS, "peak_torque": "1.0"}, "peak_torque: expected a number"),
    ("empty", {}, "tip_mae: missing required field"),
])
def test_cli_compare_rejects_a_malformed_metrics_file(tmp_path, capsys, fault, content, message):
    from rcmsim.cli import main

    good = tmp_path / "a" / "metrics.json"
    good.parent.mkdir()
    good.write_text(json.dumps(METRICS))
    path = tmp_path / "b" / "metrics.json"
    path.parent.mkdir()
    if content == "<dir>":
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    assert main(["compare", "--metrics", str(good), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # a field error names the file first, then the field path within it
    expected = message.format(path=path) if "{path}" in message else f"{path}: {message}"
    assert captured.err.startswith("config error: " + expected)


def test_cli_compare_reads_a_metrics_file_back(tmp_path, capsys):
    from rcmsim.cli import main

    path = tmp_path / "a" / "metrics.json"
    path.parent.mkdir()
    path.write_text(json.dumps(METRICS))
    assert main(["compare", "--metrics", str(path), str(path)]) == EXIT_OK
    table = compare_runs([("a", _record()), ("a", _record())])
    assert capsys.readouterr().out == render_comparison(table) + "\n"


def test_cli_config_error_exit_code(tmp_path):
    from rcmsim.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"controller": "p_approach", "scenario": {"alpha": 2.0}}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_cli_sweep_divergence_exit_code(tmp_path, recwarn):
    from rcmsim.cli import main

    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    (cfg_dir / "diverges.json").write_text(
        json.dumps(
            {"controller": "p_approach",
             "gains": {"kp_task": 1e9, "kd_task": 0.0},
             "scenario": {"alpha": 0.5}, "sim": {"duration": 0.3}, "settle_time": 0.1}
        )
    )
    assert main(["sweep", "--configs", str(cfg_dir), "--out", str(tmp_path / "o")]) == 3
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
