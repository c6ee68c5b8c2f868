"""Reference trajectories and schedules: spiral tip path on a trapezoidal
velocity profile, trocar motion, scripted disturbances (a plain list of
``DisturbanceEvent``s, typed ``DisturbanceSchedule``). The episode passes the
spiral's start and the trocar's base point in as arguments."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .rcm import TrocarState
from .robot import KinFrames, RobotModel
from .schema import NON_NEGATIVE, POSITIVE, Rule, Schema, fail, length, setting


class TaskReference(NamedTuple):
    """Tip position task reference [m, m/s, m/s^2]."""

    x: np.ndarray
    xdot: np.ndarray
    xddot: np.ndarray


@dataclass
class SpiralParams(Schema):
    """Spiral tip trajectory along base z from the start point it is given.

    The center sits -radius along x from the start, so t=0 lies on the
    circle; the path rises turns*pitch over the duration.
    """

    radius: float = setting(0.02, POSITIVE)
    pitch: float = setting(0.015, NON_NEGATIVE)
    duration: float = setting(20.0, POSITIVE)
    turns: int = setting(3, Rule(lambda v: v >= 1, "must be at least 1"))
    accel_fraction: float = setting(0.2, Rule(lambda v: 0.0 < v < 0.5, "must lie in (0, 0.5)"))


def trapezoid_profile(t, T: float, accel_fraction: float):
    """Unit trapezoidal-velocity profile: s(0)=0, s(T)=1, zero end rates.

    Constant acceleration on [0, aT], constant velocity, constant deceleration
    on [(1-a)T, T]. Outside [0, T] the profile holds the boundary value with
    zero derivatives. Returns (s, sdot, sddot), each shaped like ``t`` (a
    scalar or an array of times). Needs T > 0 and 0 < accel_fraction < 0.5
    (the ``SpiralParams`` rules).
    """
    a = accel_fraction
    v = 1.0 / (T * (1.0 - a))  # plateau rate; integrates to exactly 1
    A = v / (a * T)
    t = np.asarray(t, dtype=float)
    rest = T - t
    phases = [t < 0.0, t > T, t <= a * T, t <= (1.0 - a) * T]
    return (
        np.select(phases, [0.0, 1.0, 0.5 * A * t * t, v * (t - 0.5 * a * T)],
                  1.0 - 0.5 * A * rest * rest),
        np.select(phases, [0.0, 0.0, A * t, v], A * rest),
        np.select(phases, [0.0, 0.0, A, 0.0], -A),
    )


def spiral_reference(t, params: SpiralParams, start: np.ndarray) -> TaskReference:
    """Tip reference at time t on the spiral from ``start`` (chain rule through the profile).

    ``t`` is a scalar or an array of N times; the reference rows are then
    (3,) or (N, 3). ``params`` are validated once by the caller
    (``run_episode`` does so at the episode boundary).
    """
    s, sd, sdd = trapezoid_profile(t, params.duration, params.accel_fraction)
    r = params.radius
    phi_s = 2.0 * math.pi * params.turns  # d(phi)/ds
    phi = phi_s * s
    rise = params.turns * params.pitch
    c, sn = np.cos(phi), np.sin(phi)
    # path derivatives by s, then the chain rule through the profile
    dx, dy = -r * sn * phi_s, r * c * phi_s
    ddx, ddy = -r * c * phi_s * phi_s, -r * sn * phi_s * phi_s
    return TaskReference(
        x=start + np.stack([r * (c - 1.0), r * sn, rise * s], axis=-1),
        xdot=np.stack([dx * sd, dy * sd, rise * sd], axis=-1),
        xddot=np.stack([ddx * sd * sd + dx * sdd, ddy * sd * sd + dy * sdd, rise * sdd], axis=-1),
    )


TROCAR_STATIC = "static"
TROCAR_SINUSOIDAL = "sinusoidal"
# Direction of the sinusoidal trocar motion: base z.
TROCAR_AXIS = np.array([0.0, 0.0, 1.0])


@dataclass
class TrocarSchedule(Schema):
    """Trocar point over time: static, or sinusoidal along ``TROCAR_AXIS``."""

    mode: str = setting(
        TROCAR_STATIC,
        Rule(lambda v: v in (TROCAR_STATIC, TROCAR_SINUSOIDAL), "must be 'static' or 'sinusoidal'"),
    )
    amplitude: float = setting(0.04, NON_NEGATIVE)
    frequency: float = setting(0.2, NON_NEGATIVE)


def trocar_schedule_eval(t, sched: TrocarSchedule, p0: np.ndarray) -> TrocarState:
    """TrocarState at time t about ``p0``, with analytic derivatives.

    ``t`` is a scalar or an array of N times; the state's rows are then (3,)
    or (N, 3). ``sched`` is validated once by the caller (``run_episode``
    does so at the episode boundary).
    """
    amplitude = sched.amplitude if sched.mode == TROCAR_SINUSOIDAL else 0.0
    w = 2.0 * np.pi * sched.frequency
    ax = amplitude * TROCAR_AXIS
    wt = w * np.asarray(t, dtype=float)[..., None]
    s, c = np.sin(wt), np.cos(wt)
    return TrocarState(np.asarray(p0, dtype=float) + s * ax, w * c * ax, -w * w * s * ax)


@dataclass
class DisturbanceEvent(Schema):
    """One scripted external action on the arm over a time window.

    Exactly one of ``flange_wrench`` (6: force then moment, base frame),
    ``joint_torque`` (n) or ``link2_force`` (3, base frame, applied at the
    link-2 COM) is set.
    """

    t0: float
    t1: float
    flange_wrench: list[float] | None = setting(None, length(6))
    joint_torque: list[float] | None = None
    link2_force: list[float] | None = setting(None, length(3))

    def check(self, path: str):
        if not 0 <= self.t0 < self.t1:
            fail(path, "window must satisfy 0 <= t0 < t1")
        kinds = (self.joint_torque, self.flange_wrench, self.link2_force)
        if sum(x is not None for x in kinds) != 1:
            fail(path, "set exactly one of joint_torque/flange_wrench/link2_force")


# A scenario's disturbances: its events, in a plain list.
DisturbanceSchedule = list[DisturbanceEvent]


def disturbance_arrays(events: DisturbanceSchedule) -> DisturbanceSchedule:
    """``events`` with every event's vector as a float array, converted once
    per episode rather than on every tick."""
    kinds = ("flange_wrench", "joint_torque", "link2_force")
    return [
        replace(e, **{k: np.asarray(getattr(e, k), dtype=float)
                      for k in kinds if getattr(e, k) is not None})
        for e in events
    ]


def disturbance_eval(
    t: float, events: DisturbanceSchedule, model: RobotModel, kin: KinFrames
) -> np.ndarray:
    """External joint torque at time t, from the frame pass ``kin`` at the
    plant's joint positions.

    Flange wrenches map through the tool-reference Jacobian transpose; link-2
    forces through the Jacobian of the link-2 COM, the pass's tracked point
    1; joint-torque events add directly. Zero outside every window.
    """
    tau = np.zeros(model.n)
    for e in events:
        if not e.t0 <= t <= e.t1:
            continue
        if e.joint_torque is not None:
            tau += e.joint_torque
        elif e.flange_wrench is not None:
            tau += kin.J_r.T.dot(e.flange_wrench)
        else:
            tau += kin.tracked_jacobian(1).T.dot(e.link2_force)
    return tau
