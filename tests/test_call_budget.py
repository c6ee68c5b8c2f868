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
from rcmsim.sim import ControlSetup, Scenario, SimConfig, run_episode

PACKAGE = os.path.dirname(rcmsim.__file__) + os.sep

# (Python calls, C calls) per tick at most, for each controller and with the
# momentum observer on p_approach. Lower them when a change saves calls.
BUDGET = {
    ("p_approach", False): (39.48, 89.82),
    ("z_approach", False): (45.48, 116.82),
    ("uk", False): (40.48, 88.82),
    ("p_approach", True): (46.52, 99.01),
}


def _calls_per_tick(model, variant: str, observer: bool) -> tuple[float, float]:
    setup = ControlSetup(variant=variant, observer=observer)
    args = (model, setup, Scenario(alpha=0.5), SimConfig(duration=0.2))
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


@pytest.mark.parametrize(
    "variant,observer", list(BUDGET), ids=[v + ("+observer" if o else "") for v, o in BUDGET]
)
def test_tick_call_budget(model, variant, observer):
    python_calls, c_calls = _calls_per_tick(model, variant, observer)
    python_budget, c_budget = BUDGET[variant, observer]
    assert python_calls <= python_budget, f"{python_calls:.2f} Python calls per tick"
    assert c_calls <= c_budget, f"{c_calls:.2f} C calls per tick"
