"""Rigid-body kernels for modified-DH serial chains with revolute joints.

The tick runs one vectorised numpy frame pass, ``KinFrames``: a log-depth
scan of homogeneous transforms gives every joint frame, one product with the
stacked joint-axis skew matrices gives the Jacobian columns of the tool
frames and the link COMs, and every time derivative is exact rather than
differenced. Two identities do the work:

* ``dz_j/dt = w_j x z_j`` for each joint axis, so the columns of Jdot follow
  from the Jacobian columns and the point and joint-origin velocities
  (Featherstone, *Rigid Body Dynamics Algorithms*, 2008);
* ``M = A^T A`` with A stacking ``sqrt(m_i) Jv_i`` over ``L_i^T R_i^T Jw_i``
  (``I_i = L_i L_i^T`` fixed per model), so ``Mdot = Adot^T A + A^T Adot``
  (Carpentier & Mansard, RSS 2018); the same A maps the per-link bias
  accelerations and gravity to ``h`` and ``g``.

Derived quantities (rates, inertia, bias torques, inertia rate) are computed
on first access, so a kinematics-only caller pays for the frames only.
Two-dimensional products use ``ndarray.dot``, which costs less per call than
``@`` at these sizes; stacked ones use ``@``.

The pass is the package's only rigid-body algorithm. The loop-form
kinematics, composite-rigid-body inertia and recursive Newton-Euler that
check it are independent references kept with the tests.

Conventions:

* modified DH, joint i transform: RotX(alpha_{i-1}) TransX(a_{i-1})
  RotZ(q_i + offset_i) TransZ(d_i); ``dh`` row i is (a, d, alpha, offset).
* ``flange`` is one extra fixed transform (a, d, alpha, theta) after joint n;
  the frame it produces is the tool-reference frame, and the tool tip lies
  ``l_tool`` along that frame's z-axis.
* 6xn Jacobians are ordered (linear rows 0..2, angular rows 3..5).
* link i mass properties (mass, COM, rotational inertia about the COM) are
  expressed in frame i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# skew(v) = v @ _SKEW reshaped to 3x3, so skew(v) @ u == cross(v, u); one
# BLAS product builds the cross-product matrices of a whole stack of vectors.
_SKEW = np.zeros((3, 3, 3))
_SKEW[2, 0, 1] = _SKEW[1, 2, 0] = _SKEW[0, 1, 2] = -1.0
_SKEW[1, 0, 2] = _SKEW[0, 2, 1] = _SKEW[2, 1, 0] = 1.0
_SKEW = _SKEW.reshape(3, 9)


def skew_stack(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices of a (..., 3) stack: result[..., :, :] @ u is
    cross(v, u)."""
    return v.dot(_SKEW).reshape(v.shape + (3,))


def mdh_transform(a: float, d: float, alpha: float, theta: float) -> np.ndarray:
    """Homogeneous child-frame transform in parent coordinates."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    ct, st = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [ct, -st, 0.0, a],
            [ca * st, ca * ct, -sa, -sa * d],
            [sa * st, sa * ct, ca, ca * d],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


@dataclass(frozen=True)
class Pose:
    """Position [m] and rotation matrix of a frame in base coordinates."""

    p: np.ndarray
    R: np.ndarray


@dataclass(frozen=True, eq=False)
class Chain:
    """Per-model constants of the frame pass, built once per model.

    ``fixed`` holds each joint transform with its theta-dependent block
    zeroed, then the flange transform; ``rot_basis @ (cos, sin)`` fills that
    block. The pass tracks 2n + 2 points, each fixed to one frame
    (``point_frame``, homogeneous ``point_local``): the link COMs, the
    tool-reference origin, the tip, then the joint origins.

    Jacobian columns of all points are kept as one (3n, 2n + 2) array,
    row 3j + i holding component i of joint j's column for every point.
    ``support`` is 1 where joint j moves the point and ``own_origin`` picks,
    for each row, the entry of joint j's own origin.

    The stacked per-link matrix A (see ``KinFrames``) is kept transposed,
    as (n, 2, 3, n): [joint, linear/angular, row, link]. ``link_support``
    masks its angular block, ``gravity_load`` is the gravity part of the
    per-link bias vector it multiplies, and ``chol`` (and its inverse)
    factors the body inertias I = L L^T.
    """

    n: int
    offset: np.ndarray
    rot_basis: np.ndarray
    fixed: np.ndarray
    point_frame: np.ndarray
    point_local: np.ndarray
    support: np.ndarray
    own_origin: np.ndarray
    sqrt_m: np.ndarray
    link_support: np.ndarray
    gravity_load: np.ndarray
    inertia: np.ndarray
    chol: np.ndarray
    chol_inv: np.ndarray

    @classmethod
    def build(cls, dh, flange, l_tool, masses, coms, inertias, gravity) -> "Chain":
        n = dh.shape[0]
        fixed = np.stack([mdh_transform(a, d, alpha, 0.0) for a, d, alpha, _ in dh])
        fixed[:, :3, :2] = 0.0
        ca, sa = np.cos(dh[:, 2]), np.sin(dh[:, 2])
        # block rows (ct, -st), (ca st, ca ct), (sa st, sa ct) as maps of (ct, st)
        rot_basis = np.zeros((n, 3, 2, 2))
        rot_basis[:, 0, 0, 0] = 1.0
        rot_basis[:, 0, 1, 1] = -1.0
        rot_basis[:, 1, 0, 1] = rot_basis[:, 1, 1, 0] = ca
        rot_basis[:, 2, 0, 1] = rot_basis[:, 2, 1, 0] = sa

        origin = np.array([0.0, 0.0, 0.0, 1.0])
        point_local = np.concatenate(
            [
                np.concatenate([coms, np.ones((n, 1))], axis=1),
                [origin, [0.0, 0.0, l_tool, 1.0]],
                np.tile(origin, (n, 1)),
            ]
        )
        n_points = 2 * n + 2
        point_frame = np.concatenate([np.arange(n), [n, n], np.arange(n)])
        tri = np.triu(np.ones((n, n)))
        support = np.concatenate([tri, np.ones((n, 2)), tri], axis=1)
        rows = np.arange(3 * n)
        own_origin = rows * n_points + n + 2 + rows // 3

        chol = np.linalg.cholesky(inertias)
        gravity_load = np.zeros((2, 3, n))
        gravity_load[0] = -np.sqrt(masses)[None, :] * gravity[:, None]
        return cls(
            n=n,
            offset=dh[:, 3].copy(),
            rot_basis=rot_basis.reshape(n, 6, 2),
            fixed=np.concatenate([fixed, mdh_transform(*flange)[None]]),
            point_frame=point_frame,
            point_local=point_local[:, :, None],
            support=np.repeat(support, 3, axis=0),
            own_origin=own_origin,
            sqrt_m=np.sqrt(masses),
            link_support=np.repeat(tri, 3, axis=0).reshape(n, 3 * n),
            gravity_load=gravity_load.ravel(),
            inertia=inertias.copy(),
            chol=chol,
            chol_inv=np.linalg.inv(chol),
        )


class _lazy:
    """Attribute computed on first access and then stored on the instance
    (functools.cached_property without its per-access lock)."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class KinFrames:
    """One frame pass at (q, qdot): frames, Jacobians and their exact rates.

    Eager: per-joint ``rotations``/``origins``/``axes`` and ``pose_r`` and
    ``pose_t`` (tool-reference frame and tip; same orientation). On first
    access: the 6xn geometric Jacobians ``J_r``/``J_t`` and their rates
    ``Jdot_r``/``Jdot_t`` (exactly zero at rest; ``Jp_t``/``Jpdot_t`` are the
    tip's translational rows without the 6xn copy), the reference-frame angular
    velocity ``omega_r``, ``M``, the bias torques ``h = c + g`` (velocity
    product and gravity) and ``Mdot``.

    The translational Jacobian columns z_j x (p_a - o_j) of all tracked
    points come from one product with the stacked axis skew matrices, and
    their rates from two more. Dynamics use A, which stacks sqrt(m_a) Jv_a
    over L_a^T R_a^T Jw_a for every link a: M = A^T A, and h = A^T y with y
    the per-link bias vector [sqrt(m) (a_com - gravity);
    L^-1 (I alpha_b + w_b x I w_b)] (body-frame angular velocity w_b and
    acceleration alpha_b at qdd = 0).
    """

    def __init__(self, chain: Chain, q: np.ndarray, qdot: np.ndarray | None = None):
        n = chain.n
        self.chain = chain
        self.qdot = np.zeros(n) if qdot is None else qdot
        self.moving = qdot is not None and bool(qdot.any())

        # Joint transforms, then the flange; their prefix products (a
        # log-depth scan) are the joint frames and the tool-reference frame.
        th = q + chain.offset
        cs = np.empty((n, 2, 1))
        np.cos(th, out=cs[:, 0, 0])
        np.sin(th, out=cs[:, 1, 0])
        T = chain.fixed.copy()
        T[:n, :3, :2] = (chain.rot_basis @ cs).reshape(n, 3, 2)
        s = 1
        while s <= n:
            T[s:] = T[:-s] @ T[s:]
            s *= 2

        self.rotations = T[:n, :3, :3]
        self.axes = T[:n, :3, 2]
        points = (T[chain.point_frame, :3] @ chain.point_local)[:, :, 0]
        self._points_T = points.T
        self.origins = points[n + 2 :]
        R_r = T[n, :3, :3]
        self.pose_r = Pose(p=points[n], R=R_r)
        self.pose_t = Pose(p=points[n + 1], R=R_r)
        # Row 3j + i: component i of z_j x p for every point p; subtracting
        # z_j x o_j (joint j's own-origin entry) gives z_j x (p - o_j).
        self._skew_z = skew_stack(self.axes).reshape(-1, 3)
        self._Jv, self._z_x_o = self._lever_cross(self._skew_z)

    @_lazy
    def J_r(self) -> np.ndarray:
        return self._six(self._Jv[:, self.chain.n], self.axes)

    @_lazy
    def J_t(self) -> np.ndarray:
        return self._six(self._Jv[:, self.chain.n + 1], self.axes)

    @property
    def Jp_t(self) -> np.ndarray:
        """3xn translational part of ``J_t`` (the tip's linear Jacobian)."""
        return self._Jv[:, self.chain.n + 1].reshape(-1, 3).T

    def _lever_cross(self, skew_rows: np.ndarray, extra: np.ndarray | None = None):
        """Columns ``skew_rows @ p (+ extra) - own-origin entry``, masked,
        plus the own-origin entries themselves (z_j x o_j, or its rate)."""
        raw = skew_rows.dot(self._points_T)
        if extra is not None:
            raw += extra
        own = raw.take(self.chain.own_origin)
        return (raw - own[:, None]) * self.chain.support, own

    def coincident_point(self, p: np.ndarray, pdot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """3xn Jacobian of the last-link point that coincides with ``p``, and
        its rate when ``p`` itself moves with ``pdot``: columns
        z_j x (p - o_j) and zdot_j x (p - o_j) + z_j x (pdot - v(o_j))."""
        n = self.chain.n
        *_, skew_zdot, z_x_o_dot = self._rates
        J = self._skew_z.dot(p) - self._z_x_o
        Jdot = skew_zdot.dot(p) + self._skew_z.dot(pdot) - z_x_o_dot
        return J.reshape(n, 3).T, Jdot.reshape(n, 3).T

    def _six(self, lin: np.ndarray, ang: np.ndarray) -> np.ndarray:
        """6xn matrix of one tracked point: linear rows from its column
        ``lin`` (row 3j + i: component i of joint j), angular rows ``ang``."""
        J = np.empty((6, self.chain.n))
        J[:3] = lin.reshape(-1, 3).T
        J[3:] = ang.T
        return J

    def point_jacobian(self, link: int, point_local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """3xn translational Jacobian and base position of a point fixed to
        ``link`` (0-based); columns beyond ``link`` are exactly zero."""
        p = self.origins[link] + self.rotations[link] @ point_local
        J = np.zeros((3, self.chain.n))
        s = slice(0, link + 1)
        J[:, s] = (self._skew_z.reshape(-1, 3, 3)[s] @ (p - self.origins[s])[:, :, None])[:, :, 0].T
        return J, p

    def _contract(self, cols: np.ndarray) -> np.ndarray:
        """sum_j qdot_j cols[3j + i, a] as (3, points)."""
        n = self.chain.n
        return self.qdot.dot(cols.reshape(n, -1)).reshape(3, -1)

    @_lazy
    def _rates(self):
        """Link angular velocities, axis rates, the Jacobian rates of every
        tracked point (layout of ``_Jv``), the axis-rate skew rows and the
        rate of z_j x o_j."""
        n = self.chain.n
        if not self.moving:
            zero = np.zeros((n, 3))
            return zero, zero, np.zeros_like(self._Jv), np.zeros((3 * n, 3)), np.zeros(3 * n)
        qd = self.qdot
        omega = (self.axes * qd[:, None]).cumsum(0)
        zdot = -(self._skew_z.reshape(n, 3, 3) @ omega[:, :, None])[:, :, 0]
        # d/dt [z_j x (p - o_j)] = zdot_j x (p - o_j) + z_j x (v_p - v(o_j))
        vel = self._skew_z.dot(self._contract(self._Jv))
        skew_zdot = skew_stack(zdot).reshape(-1, 3)
        Jv_dot, z_x_o_dot = self._lever_cross(skew_zdot, vel)
        return omega, zdot, Jv_dot, skew_zdot, z_x_o_dot

    @property
    def omega_r(self) -> np.ndarray:
        return self._rates[0][-1]

    @_lazy
    def Jdot_r(self) -> np.ndarray:
        _, zdot, Jv_dot, *_ = self._rates
        return self._six(Jv_dot[:, self.chain.n], zdot)

    @_lazy
    def Jdot_t(self) -> np.ndarray:
        _, zdot, Jv_dot, *_ = self._rates
        return self._six(Jv_dot[:, self.chain.n + 1], zdot)

    @property
    def Jpdot_t(self) -> np.ndarray:
        """3xn translational part of ``Jdot_t``."""
        return self._rates[2][:, self.chain.n + 1].reshape(-1, 3).T

    @_lazy
    def _RL_rows(self) -> np.ndarray:
        """(3, 3n) with entry [l, i*n + a] = (R_a L_a)[l, i]."""
        RL = self.rotations @ self.chain.chol
        return RL.transpose(1, 2, 0).reshape(3, -1)

    def _A_T(self, lin: np.ndarray, ang_dirs: np.ndarray) -> np.ndarray:
        """A^T (n x 6n) from Jacobian-like columns: row j holds
        sqrt(m_a) lin[3j + i, a] and (L_a^T R_a^T ang_dirs[j])_i, link a."""
        n = self.chain.n
        At = np.empty((n, 2, 3 * n))
        At[:, 0] = (lin.reshape(3 * n, -1)[:, :n] * self.chain.sqrt_m).reshape(n, -1)
        At[:, 1] = ang_dirs.dot(self._RL_rows) * self.chain.link_support
        return At.reshape(n, 6 * n)

    @_lazy
    def _At(self) -> np.ndarray:
        return self._A_T(self._Jv, self.axes)

    @_lazy
    def M(self) -> np.ndarray:
        At = self._At
        return At.dot(At.T)

    @_lazy
    def g(self) -> np.ndarray:
        return self._At.dot(self.chain.gravity_load)

    @_lazy
    def h(self) -> np.ndarray:
        if not self.moving:
            return self.g
        chain, n = self.chain, self.chain.n
        omega, zdot, Jv_dot, *_ = self._rates
        y = np.empty((2, 3, n))
        # COM accelerations at qdd = 0 (the COMs are the first tracked points)
        y[0] = self._contract(Jv_dot)[:, :n] * chain.sqrt_m
        # link angular acceleration and velocity in the link frame, then
        # L^-1 (I alpha_b + w_b x I w_b)
        aw = np.empty((n, 3, 2))
        aw[:, :, 0] = (zdot * self.qdot[:, None]).cumsum(0)
        aw[:, :, 1] = omega
        aw = self.rotations.transpose(0, 2, 1) @ aw
        Iaw = chain.inertia @ aw
        moment = Iaw[:, :, :1] + skew_stack(aw[:, :, 1]) @ Iaw[:, :, 1:]
        y[1] = (chain.chol_inv @ moment)[:, :, 0].T
        return self._At.dot(y.ravel() + chain.gravity_load)

    @_lazy
    def c(self) -> np.ndarray:
        return self.h - self.g

    @_lazy
    def Mdot(self) -> np.ndarray:
        n = self.chain.n
        if not self.moving:
            return np.zeros((n, n))
        omega, zdot, Jv_dot, *_ = self._rates
        At_dot = self._A_T(Jv_dot, zdot)
        # d/dt (R_a^T z_j) = R_a^T (zdot_j + z_j x w_a); the zdot part is in
        # At_dot already.
        z_x_w = self._skew_z.dot(omega.T).reshape(n, 3, n)  # [j, l, a]
        RL = self._RL_rows.reshape(3, 3, n)  # [l, i, a]
        ang = np.einsum("jla,lia->jia", z_x_w, RL).reshape(n, -1) * self.chain.link_support
        At_dot.reshape(n, 2, -1)[:, 1] += ang
        AtAd = self._At.dot(At_dot.T)
        return AtAd + AtAd.T
