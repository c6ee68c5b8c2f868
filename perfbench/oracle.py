"""Checks on the simulator's outputs, computed apart from the program.

Every reference here is built from the model JSON and closed-form formulas
with plain numpy, batched over all ticks of a trace: modified-DH forward
kinematics, recursive Newton-Euler inverse dynamics, the spiral on its
trapezoidal profile and the trocar schedule. No check compares against a
stored copy of an earlier output. Each check raises ``CheckFailed`` naming
the trace, the quantity, the worst tick and the size of the miss.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

# Tolerances of the checks (see README.md for their origin).
POSITION_TOL = 1e-9  # m: tip, tool reference, pivot residual vs independent FK
REFERENCE_TOL = 1e-12  # m: recorded reference and trocar vs closed form
TORQUE_TOL = 1e-8  # N m: RNEA(q, qd, qdd) vs tau + tau_ext
GAP_TOL = 1e-6  # per-tick constraint gap |Jc qdd - a_cmd|
PIVOT_MEAN_TOL = 1e-3  # m: mean pivot residual after settling
TIP_MAE_TOL = 2e-3  # m: per-axis tip MAE after settling
OBSERVER_TOL = 0.05  # share of the applied step left in the estimate
METRIC_RTOL = 1e-9  # independent metric recomputation vs the program's


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Chain:
    """Modified-DH chain read straight from the model JSON."""

    dh: np.ndarray  # (n, 4): a, d, alpha, theta_offset
    flange: np.ndarray  # (4,): a, d, alpha, theta
    masses: np.ndarray
    coms: np.ndarray
    inertias: np.ndarray
    gravity: np.ndarray
    l_tool: float

    @classmethod
    def from_json(cls, path: str) -> "Chain":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        dh = np.array([[j["a"], j["d"], j["alpha"], j["theta_offset"]] for j in data["joints"]])
        f = data.get("flange", {"a": 0.0, "d": 0.0, "alpha": 0.0, "theta": 0.0})
        return cls(
            dh=dh,
            flange=np.array([f["a"], f["d"], f["alpha"], f["theta"]], dtype=float),
            masses=np.array([lk["mass"] for lk in data["links"]], dtype=float),
            coms=np.array([lk["com"] for lk in data["links"]], dtype=float),
            inertias=np.array([lk["inertia"] for lk in data["links"]], dtype=float),
            gravity=np.array(data["gravity"], dtype=float),
            l_tool=float(data["l_tool"]),
        )


def _rot_x(alpha):
    c, s = np.cos(alpha), np.sin(alpha)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _joint_frames(a, d, alpha, theta):
    """Child rotation (N, 3, 3) and origin (N, 3) in the parent frame for
    RotX(alpha) TransX(a) RotZ(theta) TransZ(d), theta of shape (N,)."""
    Rx = _rot_x(alpha)
    c, s = np.cos(theta), np.sin(theta)
    Rz = np.zeros(theta.shape + (3, 3))
    Rz[:, 0, 0] = c
    Rz[:, 0, 1] = -s
    Rz[:, 1, 0] = s
    Rz[:, 1, 1] = c
    Rz[:, 2, 2] = 1.0
    R = Rx @ Rz
    p = np.array([a, 0.0, 0.0]) + Rx @ np.array([0.0, 0.0, d])
    return R, np.broadcast_to(p, theta.shape + (3,))


@dataclass(frozen=True)
class Poses:
    p_r: np.ndarray  # (N, 3) tool-reference origin
    R_r: np.ndarray  # (N, 3, 3) tool-reference rotation
    tip: np.ndarray  # (N, 3)


def forward_kinematics(chain: Chain, q: np.ndarray) -> Poses:
    """Tool-reference pose and tip for every row of ``q`` (N, n)."""
    N = q.shape[0]
    R = np.broadcast_to(np.eye(3), (N, 3, 3))
    p = np.zeros((N, 3))
    for i, (a, d, alpha, off) in enumerate(chain.dh):
        Ri, pi = _joint_frames(a, d, alpha, q[:, i] + off)
        p = p + np.einsum("nij,nj->ni", R, pi)
        R = R @ Ri
    fa, fd, falpha, ftheta = chain.flange
    Rf, pf = _joint_frames(fa, fd, falpha, np.full(N, ftheta))
    p_r = p + np.einsum("nij,nj->ni", R, pf)
    R_r = R @ Rf
    return Poses(p_r=p_r, R_r=R_r, tip=p_r + chain.l_tool * R_r[:, :, 2])


def inverse_dynamics(chain: Chain, q, qd, qdd) -> np.ndarray:
    """Joint torques realising ``qdd`` at (q, qd), all (N, n): recursive
    Newton-Euler in modified-DH frames, gravity as a base acceleration."""
    N, n = q.shape
    z = np.array([0.0, 0.0, 1.0])
    w = np.zeros((N, 3))
    wd = np.zeros((N, 3))
    vd = np.broadcast_to(-chain.gravity, (N, 3))
    Rs, ps, Fs, Ns = [], [], [], []
    for i, (a, d, alpha, off) in enumerate(chain.dh):
        R, p = _joint_frames(a, d, alpha, q[:, i] + off)
        Rt = np.swapaxes(R, 1, 2)
        w_in = np.einsum("nij,nj->ni", Rt, w)
        w_new = w_in + qd[:, i, None] * z
        wd_new = (
            np.einsum("nij,nj->ni", Rt, wd)
            + np.cross(w_in, qd[:, i, None] * z)
            + qdd[:, i, None] * z
        )
        vd_new = np.einsum(
            "nij,nj->ni", Rt, vd + np.cross(wd, p) + np.cross(w, np.cross(w, p))
        )
        c = chain.coms[i]
        vdc = vd_new + np.cross(wd_new, c) + np.cross(w_new, np.cross(w_new, c))
        inertia = chain.inertias[i]
        Fs.append(chain.masses[i] * vdc)
        Ns.append(wd_new @ inertia.T + np.cross(w_new, w_new @ inertia.T))
        Rs.append(R)
        ps.append(p)
        w, wd, vd = w_new, wd_new, vd_new
    tau = np.empty((N, n))
    f = np.zeros((N, 3))
    m = np.zeros((N, 3))
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            f_down = np.einsum("nij,nj->ni", Rs[i + 1], f)
            m_down = np.einsum("nij,nj->ni", Rs[i + 1], m) + np.cross(ps[i + 1], f_down)
        else:
            f_down = m_down = np.zeros((N, 3))
        f = f_down + Fs[i]
        m = m_down + Ns[i] + np.cross(chain.coms[i], Fs[i])
        tau[:, i] = m[:, 2]
    return tau


@dataclass(frozen=True)
class Spiral:
    """The spiral tip path on a trapezoidal velocity profile (base frame),
    starting on the circle at the initial tip point."""

    radius: float = 0.02
    pitch: float = 0.015
    duration: float = 20.0
    turns: int = 3
    accel_fraction: float = 0.2

    def position(self, t: np.ndarray, start: np.ndarray) -> np.ndarray:
        T, a = self.duration, self.accel_fraction
        v = 1.0 / (T * (1.0 - a))
        acc = v / (a * T)
        tc = np.clip(t, 0.0, T)
        s = np.where(
            tc <= a * T,
            0.5 * acc * tc * tc,
            np.where(
                tc <= (1.0 - a) * T,
                v * (tc - 0.5 * a * T),
                1.0 - 0.5 * acc * (T - tc) ** 2,
            ),
        )
        phi = 2.0 * math.pi * self.turns * s
        offset = np.stack(
            [
                self.radius * (np.cos(phi) - 1.0),
                self.radius * np.sin(phi),
                self.turns * self.pitch * s,
            ],
            axis=1,
        )
        return start + offset


@dataclass(frozen=True)
class Trocar:
    """Trocar on the initial tool axis at depth ``alpha``, optionally moving
    sinusoidally along base z."""

    alpha: float
    amplitude: float = 0.0
    frequency: float = 0.0

    def position(self, t: np.ndarray, p_r0: np.ndarray, tip0: np.ndarray) -> np.ndarray:
        p0 = p_r0 + self.alpha * (tip0 - p_r0)
        lift = self.amplitude * np.sin(2.0 * math.pi * self.frequency * t)
        return p0 + lift[:, None] * np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class Expect:
    """What one run was asked to do, as the benchmark itself describes it."""

    name: str
    controller: str
    spiral: Spiral
    trocar: Trocar
    dt: float = 1e-3
    semi_implicit: bool = True
    settle: float = 1.0
    # the applied constant joint-torque step (start, end, torque), if any
    torque_step: tuple | None = None
    observer_gain: float = 50.0


def _worst(name: str, what: str, err: np.ndarray, tol: float, t: np.ndarray):
    """Raise when any per-tick error exceeds ``tol`` (err: (N,) or (N, m))."""
    per_tick = err if err.ndim == 1 else np.max(err, axis=1)
    bad = ~(per_tick <= tol)
    if bad.any():
        k = int(np.argmax(np.where(np.isnan(per_tick), np.inf, per_tick)))
        raise CheckFailed(
            f"{name}: {what} misses by {per_tick[k]:.3e} > {tol:.1e} at tick {k} "
            f"(t = {t[k]:.3f} s, {int(bad.sum())} ticks off)"
        )


def check_geometry(chain: Chain, ex: Expect, tr) -> Poses:
    """Tip, tool reference, trocar, pivot residuals and reference against
    independent forward kinematics and the closed-form schedules; the time
    grid is exact. Returns the independent poses for further checks."""
    m = tr.filled
    t = np.asarray(tr.t[:m])
    if not np.array_equal(t, np.arange(m) * ex.dt):
        raise CheckFailed(f"{ex.name}: time column is not k * dt")
    q = np.asarray(tr.q[:m])
    poses = forward_kinematics(chain, q)
    _worst(ex.name, "tip position", np.abs(tr.tip[:m] - poses.tip), POSITION_TOL, t)
    _worst(ex.name, "tool-reference position", np.abs(tr.p_r[:m] - poses.p_r), POSITION_TOL, t)

    p_c = ex.trocar.position(t, poses.p_r[0], poses.tip[0])
    _worst(ex.name, "trocar position", np.abs(tr.p_c[:m] - p_c), REFERENCE_TOL, t)
    res3 = np.einsum("nji,nj->ni", poses.R_r, poses.p_r - p_c)
    _worst(ex.name, "3D pivot residual", np.abs(tr.res3d[:m] - res3), POSITION_TOL, t)
    _worst(ex.name, "2D pivot residual", np.abs(tr.res2d[:m] - res3[:, :2]), POSITION_TOL, t)
    p_rcm = poses.p_r - res3[:, 2:] * poses.R_r[:, :, 2]
    _worst(ex.name, "pivot point", np.abs(tr.p_rcm[:m] - p_rcm), POSITION_TOL, t)

    ref = ex.spiral.position(t, poses.tip[0])
    _worst(ex.name, "spiral reference", np.abs(tr.ref[:m] - ref), REFERENCE_TOL, t)
    return poses


def check_semi_implicit(ex: Expect, tr, with_qdd: bool):
    """qd[k+1] = qd[k] + dt qdd[k] and q[k+1] = q[k] + dt qd[k+1], exactly."""
    m = tr.filled
    q, qd = np.asarray(tr.q[:m]), np.asarray(tr.qd[:m])
    t = np.asarray(tr.t[:m])
    if not np.array_equal(q[1:], q[:-1] + ex.dt * qd[1:]):
        k = int(np.argmax(np.any(q[1:] != q[:-1] + ex.dt * qd[1:], axis=1)))
        raise CheckFailed(f"{ex.name}: q[k+1] != q[k] + dt qd[k+1] at tick {k} (t = {t[k]:.3f} s)")
    if with_qdd:
        qdd = np.asarray(tr.qdd[:m])
        if not np.array_equal(qd[1:], qd[:-1] + ex.dt * qdd[:-1]):
            k = int(np.argmax(np.any(qd[1:] != qd[:-1] + ex.dt * qdd[:-1], axis=1)))
            raise CheckFailed(
                f"{ex.name}: qd[k+1] != qd[k] + dt qdd[k] at tick {k} (t = {t[k]:.3f} s)"
            )


def check_dynamics(chain: Chain, ex: Expect, tr):
    """Inverse dynamics of the recorded motion reproduces tau + tau_ext."""
    m = tr.filled
    tau = inverse_dynamics(chain, np.asarray(tr.q[:m]), np.asarray(tr.qd[:m]), np.asarray(tr.qdd[:m]))
    err = np.abs(tau - (tr.tau[:m] + tr.tau_ext[:m]))
    _worst(ex.name, "RNEA(q, qd, qdd) vs tau + tau_ext", err, TORQUE_TOL, np.asarray(tr.t[:m]))


def check_constraint_gap(ex: Expect, tr):
    """|Jc qdd - a_cmd| stays at solver precision on every tick."""
    m = tr.filled
    _worst(ex.name, "constraint gap", np.asarray(tr.constraint_gap[:m]), GAP_TOL, np.asarray(tr.t[:m]))


def tracking(ex: Expect, tr, poses: Poses) -> dict:
    """Pivot residual and tip error after settling, from the independent
    poses and reference."""
    m = tr.filled
    t = np.asarray(tr.t[:m])
    sel = t >= ex.settle
    p_c = ex.trocar.position(t, poses.p_r[0], poses.tip[0])
    res2 = np.einsum("nji,nj->ni", poses.R_r, poses.p_r - p_c)[:, :2]
    ref = ex.spiral.position(t, poses.tip[0])
    return {
        "pivot_mean": float(np.linalg.norm(res2[sel], axis=1).mean()),
        "tip_mae": np.abs(poses.tip[sel] - ref[sel]).mean(axis=0),
    }


def check_tracking(ex: Expect, tr, poses: Poses):
    """Criterion-5 bounds: mean pivot residual < 1 mm and (for the projected
    controller) per-axis tip MAE < 2 mm after settling."""
    trk = tracking(ex, tr, poses)
    if not trk["pivot_mean"] < PIVOT_MEAN_TOL:
        raise CheckFailed(
            f"{ex.name}: mean pivot residual {trk['pivot_mean'] * 1e3:.4g} mm >= 1 mm"
        )
    if ex.controller == "p_approach" and not np.all(trk["tip_mae"] < TIP_MAE_TOL):
        raise CheckFailed(f"{ex.name}: tip MAE {trk['tip_mae'] * 1e3} mm, an axis >= 2 mm")


def check_observer(ex: Expect, tr):
    """After five time constants the estimate cancels the applied constant
    joint-torque step to within 5 %."""
    t0, t1, step = ex.torque_step
    step = np.asarray(step, dtype=float)
    m = tr.filled
    t = np.asarray(tr.t[:m])
    sel = (t >= t0 + 5.0 / ex.observer_gain) & (t <= t1)
    if not sel.any():
        raise CheckFailed(f"{ex.name}: no tick five time constants into the step")
    if not np.array_equal(tr.tau_ext[:m][sel], np.broadcast_to(step, (int(sel.sum()), step.size))):
        raise CheckFailed(f"{ex.name}: recorded external torque is not the applied step")
    miss = np.linalg.norm(tr.tau_ext_hat[:m][sel] + step, axis=1) / np.linalg.norm(step)
    _worst(ex.name, "observer estimate vs applied step", miss, OBSERVER_TOL, t[sel])


def metric_figures(tr, settle: float) -> dict:
    """The paper's per-run figures, recomputed from the trace columns."""
    m = tr.filled
    t = np.asarray(tr.t[:m])
    sel = t >= settle
    tau = np.asarray(tr.tau[:m])[sel]
    dtau = np.diff(tau, axis=0) / (t[1] - t[0])
    return {
        "tip_mae": np.abs(np.asarray(tr.tip[:m])[sel] - np.asarray(tr.ref[:m])[sel]).mean(axis=0),
        "residual_norm_mean": float(np.linalg.norm(np.asarray(tr.res2d[:m])[sel], axis=1).mean()),
        "mean_abs_torque": float(np.abs(tau).mean()),
        "peak_torque": float(np.abs(tau).max()),
        "smoothness": float(np.sqrt(np.mean(dtau * dtau))),
    }


def check_saved_metrics(name: str, saved: dict, recomputed: dict):
    """``saved`` (metrics.json) equals the program's recomputation from the
    trace file exactly (17-digit round trip)."""
    if saved != recomputed:
        diff = sorted(k for k in set(saved) | set(recomputed) if saved.get(k) != recomputed.get(k))
        raise CheckFailed(f"{name}: metrics.json differs from the metrics of trace.csv in {diff}")


def check_figures(name: str, metrics: dict, figures: dict):
    """The program's metrics equal the independent figures within rounding."""
    for key, value in figures.items():
        got = np.asarray(metrics[key], dtype=float)
        if not np.allclose(got, value, rtol=METRIC_RTOL, atol=0.0):
            raise CheckFailed(f"{name}: metric {key} = {got} but the trace gives {value}")


def digest(*arrays) -> str:
    """sha256 over the raw bytes of the given arrays or byte strings."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]
