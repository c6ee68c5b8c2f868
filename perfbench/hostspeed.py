"""How fast the host runs right now, from a fixed reference computation.

On a shared VM other tenants slow everything in this process (Python,
numpy, BLAS) by up to 2x, in bursts and in stretches of seconds to minutes.
``slowdown()`` times a fixed piece of the benchmark's own code and divides
by its time on a quiet host (``REFERENCE_UNIT_S``). That code is batched
rigid-body arithmetic on small arrays, as a tick is. The benchmark divides
each interval it measures by the slowdown measured right before and after
it, so figures read as on a quiet host. The program under test never runs in
it, so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

import oracle

# Seconds per unit of reference work on the quiet host the figures in
# README.md come from: the low decile of 400 measurements (see README.md).
REFERENCE_UNIT_S = 2.7e-3
UNITS = 4


def _reference_chain() -> oracle.Chain:
    rng = np.random.default_rng(20251018)
    n = 7
    dh = np.column_stack([
        rng.uniform(-0.1, 0.1, n), rng.uniform(0.0, 0.4, n),
        rng.choice([-np.pi / 2, 0.0, np.pi / 2], n), np.zeros(n),
    ])
    inertia = np.stack([np.diag(rng.uniform(0.005, 0.05, 3)) for _ in range(n)])
    return oracle.Chain(
        dh=dh, flange=np.zeros(4), masses=rng.uniform(0.5, 5.0, n),
        coms=rng.uniform(-0.05, 0.05, (n, 3)), inertias=inertia,
        gravity=np.array([0.0, 0.0, -9.81]), l_tool=0.5,
    )


_CHAIN = _reference_chain()
_STATE = np.random.default_rng(7).uniform(-1.0, 1.0, (3, 1, 7))


def unit_seconds(units: int = UNITS) -> float:
    """Seconds per unit of reference work: forward kinematics and inverse
    dynamics of one state of a fixed 7-joint chain."""
    q, qd, qdd = _STATE
    start = time.perf_counter()
    for _ in range(units):
        oracle.forward_kinematics(_CHAIN, q)
        oracle.inverse_dynamics(_CHAIN, q, qd, qdd)
    return (time.perf_counter() - start) / units


def slowdown() -> float:
    """The host's present slowdown against the quiet host (1.0 there)."""
    return unit_seconds() / REFERENCE_UNIT_S
