"""Host-independent cost of a closed-loop tick: calls per tick.

At these operand sizes a tick is bound by numpy's cost per call, and wall
time on a shared host spreads by several percent from run to run. The number
of calls a tick makes is exact and the same in every run and process, so a
per-tick saving shows here where a timing could not show it.

Counted with ``sys.setprofile`` over a 200-tick episode (201 recorded ticks)
and divided by the recorded ticks: the Python calls into rcmsim (frames of
its source files, and the constructors Python generates for its dataclasses
and named tuples when rcmsim calls them) and the C calls made from those
frames. Operators (``@``, ``+``, ``*``) are not call events, so ``a @ b``
counts nothing and ``a.dot(b)`` one C call; the count is a proxy for per-call
cost, not a timing.
"""

import os
import sys

import pytest

import rcmsim
from rcmsim.sim import ControlSetup, EnvModel, Scenario, SimConfig, run_episode

PACKAGE = os.path.dirname(rcmsim.__file__) + os.sep

# (Python calls, C calls) per tick at most, for each controller, and for
# p_approach with the momentum observer, under RK4 with the soft port (three
# more frame passes per tick) and with sensor noise (a second pass, at the
# true state). Lower them when a change saves calls.
CASES = {
    "p_approach": ({}, {}, (35.48, 88.82)),
    "z_approach": ({"variant": "z_approach"}, {}, (40.48, 115.82)),
    "uk": ({"variant": "uk"}, {}, (35.48, 85.82)),
    "p_approach+observer": ({"observer": True}, {}, (41.49, 97.96)),
    "p_approach+rk4_soft_port": (
        {}, {"integrator": "rk4", "env": EnvModel(mode="soft")}, (73.30, 224.14)
    ),
    "p_approach+noise": ({}, {"sensor_noise_std": 1e-5}, (41.48, 125.82)),
}


def _calls_per_tick(model, setup: dict, sim: dict) -> tuple[float, float]:
    args = (model, ControlSetup(**setup), Scenario(alpha=0.5), SimConfig(duration=0.2, **sim))
    run_episode(*args)  # first calls of lazily imported code are not a tick's
    calls = {"call": 0, "c_call": 0}

    def rcmsim_frame(frame) -> bool:
        file = frame.f_code.co_filename
        if file == "<string>":
            frame = frame.f_back
            file = frame.f_code.co_filename if frame is not None else ""
        return file.startswith(PACKAGE)

    def profile(frame, event, _arg):
        if event in calls and rcmsim_frame(frame):
            calls[event] += 1

    sys.setprofile(profile)
    try:
        trace = run_episode(*args)
    finally:
        sys.setprofile(None)
    return calls["call"] / trace.filled, calls["c_call"] / trace.filled


@pytest.mark.parametrize("case", list(CASES))
def test_tick_call_budget(model, case):
    setup, sim, (python_budget, c_budget) = CASES[case]
    python_calls, c_calls = _calls_per_tick(model, setup, sim)
    assert python_calls <= python_budget, f"{python_calls:.2f} Python calls per tick"
    assert c_calls <= c_budget, f"{c_calls:.2f} C calls per tick"
