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
  accelerations and gravity to ``h``.

The frames and the Jacobians are formed on construction. Every dynamics
term (the rates, ``A``, ``M``, ``h`` and the tip's velocity and bias
acceleration) comes from one straight-line body that runs on the first read
of any of them, as Pinocchio forms all of a configuration's terms in one
pass; the inertia rate is formed on its own first read, from what that body
stored. A kinematics-only caller pays for the frames only.
At these sizes a tick is bound by numpy's cost per call, Python calls
included, and a 2-D ``ndarray.dot`` costs a third to a half of a stacked
``@``: per-link products are 2-D products against per-model constants
(``Chain``). Only the frame scan and the point transform stay stacked.

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
from typing import NamedTuple

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


class Pose(NamedTuple):
    """Position [m] and rotation matrix of a frame in base coordinates."""

    p: np.ndarray
    R: np.ndarray


@dataclass(frozen=True, eq=False)
class Chain:
    """Per-model constants of the frame pass, built once per model.

    The pass's per-link products are 2-D ``dot``s against these constants
    (block-diagonal in the links) or ``take``s of flat indices.

    ``fixed`` holds the joint transforms with their theta-dependent blocks
    zeroed, then the flange transform, flattened; ``(cos, sin) . rot_basis``
    fills those blocks (cosines of all joints first). The pass tracks 2n + 2
    points, each fixed to one frame (``point_frame``, homogeneous
    ``point_local``): the link COMs, the tool-reference origin, the tip, then
    the joint origins.

    Jacobian columns of all points are kept as one (3n, 2n + 2) array,
    row 3j + i holding component i of joint j's column for every point.
    ``support`` is 1 where joint j moves the point and ``own_origin`` picks,
    for each row, the entry of joint j's own origin; ``own_link`` picks entry
    (3j + i, j) of a (3n, n) array, as (n, 3).

    The stacked per-link matrix A (see ``KinFrames``) is kept transposed,
    as (n, 2, 3, n): [joint, linear/angular, row, link]. ``link_support``
    masks its angular block, ``gravity_load`` is the gravity part of the
    per-link bias vector it multiplies. With the body inertias factored as
    I = L L^T, ``rot_index`` gathers the link rotations as rows [l, 3a + m]
    and ``chol`` (block-diagonal) turns them into the rows of R_a L_a,
    [l, i n + a]; ``gyro`` maps the products u_p u_q of u = L^T w_b, as
    [(3p + q) n + a], to L^-1 (w_b x I w_b).
    """

    n: int
    offset: np.ndarray
    rot_basis: np.ndarray
    fixed: np.ndarray
    point_frame: np.ndarray
    point_local: np.ndarray
    support: np.ndarray
    own_origin: np.ndarray
    own_link: np.ndarray
    sqrt_m: np.ndarray
    link_support: np.ndarray
    gravity_load: np.ndarray
    rot_index: np.ndarray
    chol: np.ndarray
    gyro: np.ndarray

    @classmethod
    def build(cls, dh, flange, l_tool, masses, coms, inertias, gravity) -> "Chain":
        n = dh.shape[0]
        fixed = np.stack([mdh_transform(a, d, alpha, 0.0) for a, d, alpha, _ in dh])
        fixed[:, :3, :2] = 0.0
        ca, sa = np.cos(dh[:, 2]), np.sin(dh[:, 2])
        # block rows (ct, -st), (ca st, ca ct), (sa st, sa ct) as maps of (ct, st)
        rot_basis = np.zeros((2, n, n + 1, 4, 4))
        for j in range(n):
            rot_basis[0, j, j, 0, 0] = 1.0
            rot_basis[1, j, j, 0, 1] = -1.0
            rot_basis[1, j, j, 1:3, 0] = ca[j], sa[j]
            rot_basis[0, j, j, 1:3, 1] = ca[j], sa[j]

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
        own_link = rows * n + rows // 3

        chol = np.linalg.cholesky(inertias)
        chol_blocks = np.zeros((n, 3, 3, n))  # [a, m, i, a]
        rot_index = np.zeros((3, n, 3), dtype=np.intp)  # [l, a, m]
        gyro = np.zeros((3, 3, n, 3, n))  # [p, q, a, m, a]
        for a in range(n):
            chol_blocks[a, :, :, a] = chol[a]
            rot_index[:, a, :] = 16 * a + 4 * np.arange(3)[:, None] + np.arange(3)
            L_inv = np.linalg.inv(chol[a])
            # w_b = L^-T u and I w_b = L u: the map is bilinear in u
            for p in range(3):
                for q in range(3):
                    gyro[p, q, a, :, a] = L_inv.dot(np.cross(L_inv[p], chol[a][:, q]))
        gravity_load = np.zeros((2, 3, n))
        gravity_load[0] = -np.sqrt(masses)[None, :] * gravity[:, None]
        return cls(
            n=n,
            offset=dh[:, 3].copy(),
            rot_basis=rot_basis.reshape(2 * n, -1),
            fixed=np.concatenate([fixed, mdh_transform(*flange)[None]]).ravel(),
            point_frame=point_frame,
            point_local=point_local[:, :, None],
            support=np.repeat(support, 3, axis=0),
            own_origin=own_origin,
            own_link=own_link.reshape(n, 3),
            sqrt_m=np.sqrt(masses),
            link_support=np.repeat(tri, 3, axis=0).reshape(n, 3 * n),
            gravity_load=gravity_load.ravel(),
            rot_index=rot_index.reshape(3, 3 * n),
            chol=chol_blocks.reshape(3 * n, 3 * n),
            gyro=gyro.reshape(9 * n, 3 * n),
        )


class lazy:
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


class dynamics_term:
    """A term that ``KinFrames._dynamics`` forms: the first read of any of
    them runs that one body, which stores every term on the instance, so
    later reads are plain attribute reads. ``fn(kin)`` gives the term, as a
    ``lazy`` attribute's ``fn`` does."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj._dynamics()
        return obj.__dict__[self.name]

    def fn(self, obj):
        return self.__get__(obj)


class KinFrames:
    """One frame pass at (q, qdot): frames, Jacobians and their exact rates.

    The pass keeps the state it was formed at, ``q`` and ``qdot`` (zero when
    not given). Eager: the joint ``axes``, the tool-reference frame
    ``pose_r`` and the tip point ``p_t``, the Jacobian columns of the tracked
    points (``tracked_jacobian``, ``coincident_jacobian``) and the tip's 3xn
    ``Jp_t``; the 6xn geometric Jacobian ``J_r`` of the tool-reference frame
    on first access. The dynamics terms are formed together, by one body
    (``_dynamics``) that runs on the first read of any of them: the tip
    velocity ``v_t`` = Jp_t qdot and bias acceleration ``abias_t`` =
    (d/dt Jp_t) qdot (its acceleration at qdd = 0), the reference-frame
    angular velocity ``omega_r``, the Jacobian rates, ``M`` and the bias
    torques ``h`` (velocity product and gravity). ``Mdot`` is formed on its
    own first read, from what the body stored. A kinematics-only caller
    pays for the frames only.

    There is no at-rest branch: every rate term carries a factor of qdot
    (the link angular velocities, the contractions by qdot and u = A qdot),
    so at qdot = 0 the formulas themselves give rates and ``Mdot`` that are
    exactly zero (some entries -0.0) and ``h`` equal to the gravity torque.

    The translational Jacobian columns z_j x (p_a - o_j) of all tracked
    points come from one product with the stacked axis skew matrices, and
    their rates from two more. Dynamics use A, which stacks sqrt(m_a) Jv_a
    over L_a^T R_a^T Jw_a for every link a: M = A^T A, and h = A^T y with y
    the per-link bias vector [sqrt(m) (a_com - gravity);
    L^-1 (I alpha_b + w_b x I w_b)] (body-frame angular velocity w_b and
    acceleration alpha_b at qdd = 0). Since L^-1 I = L^T and A qdot holds
    u = L^T w_b, the angular part is L^T alpha_b plus a fixed quadratic map
    of u.
    """

    # Formed by ``_dynamics``: the rate terms (link angular velocities, the
    # Jacobian rates of the tracked points, the axis-rate skew rows and the
    # rate of z_j x o_j), the rows of R_a L_a, (n, 3n) zdot_j . (R_a L_a)[:, i]
    # and A^T (n x 6n), then the public terms.
    _rates = dynamics_term()
    _RL_rows = dynamics_term()
    _zdot_RL = dynamics_term()
    _At = dynamics_term()
    M = dynamics_term()
    h = dynamics_term()
    v_t = dynamics_term()
    abias_t = dynamics_term()
    omega_r = dynamics_term()

    def __init__(self, chain: Chain, q: np.ndarray, qdot: np.ndarray | None = None):
        n = chain.n
        self.chain = chain
        self.q = q
        self.qdot = np.zeros(n) if qdot is None else qdot

        # Joint transforms, then the flange; their prefix products (a
        # log-depth scan) are the joint frames and the tool-reference frame.
        th = q + chain.offset
        cs = np.empty(2 * n)
        np.cos(th, out=cs[:n])
        np.sin(th, out=cs[n:])
        T = cs.dot(chain.rot_basis)
        T += chain.fixed
        T = T.reshape(n + 1, 4, 4)
        s = 1
        while s <= n:
            T[s:] = T[:-s] @ T[s:]
            s *= 2

        self._T = T
        self.axes = T[:n, :3, 2]
        # One (3, 4) @ (4, 1) product per point. One 2-D product of all
        # frames with all points costs less but rounds the points
        # differently, and the pivot-at-tip runs of p_approach (alpha near
        # 1, a singular free-motion tip inertia) turn on those last bits.
        points = (T[chain.point_frame, :3] @ chain.point_local)[:, :, 0]
        self._points_T = points.T
        self.pose_r = Pose(points[n], T[n, :3, :3])
        self.p_t = points[n + 1]
        # Row 3j + i: component i of z_j x p for every point p; subtracting
        # z_j x o_j (joint j's own-origin entry) gives z_j x (p - o_j),
        # masked to the joints that move the point.
        self._skew_z = self.axes.dot(_SKEW).reshape(-1, 3)
        z_x_p = self._skew_z.dot(self._points_T)
        self._z_x_o = z_x_p.take(chain.own_origin)
        self._Jv = (z_x_p - self._z_x_o[:, None]) * chain.support
        self.Jp_t = self._Jv[:, n + 1].reshape(n, 3).T

    def tracked_jacobian(self, point: int) -> np.ndarray:
        """3xn translational Jacobian of tracked point ``point``: link a's COM
        for a < n, the tool-reference origin for n, the tip for n + 1.
        Columns of joints that do not move the point are exactly zero."""
        return self._Jv[:, point].reshape(-1, 3).T

    @lazy
    def J_r(self) -> np.ndarray:
        J = np.empty((6, self.chain.n))
        J[:3] = self.tracked_jacobian(self.chain.n)
        J[3:] = self.axes.T
        return J

    def coincident_jacobian(self, p: np.ndarray) -> np.ndarray:
        """3xn Jacobian of the last-link point that coincides with ``p``:
        columns z_j x (p - o_j)."""
        return (self._skew_z.dot(p) - self._z_x_o).reshape(self.chain.n, 3).T

    def coincident_rate(self, p: np.ndarray, pdot: np.ndarray | None) -> np.ndarray:
        """Rate of ``coincident_jacobian(p)`` when ``p`` itself moves with
        ``pdot``: columns zdot_j x (p - o_j) + z_j x (pdot - v(o_j)). A
        ``p`` at rest (``pdot`` None) forms no z_j x pdot product."""
        _, _, skew_zdot, z_x_o_dot = self._rates
        Jdot = skew_zdot.dot(p)
        if pdot is not None:
            Jdot += self._skew_z.dot(pdot)
        Jdot -= z_x_o_dot
        return Jdot.reshape(self.chain.n, 3).T

    def _dynamics(self):
        """Form and store every ``dynamics_term``, in one pass."""
        chain, n, qd = self.chain, self.chain.n, self.qdot
        # Rates. add.accumulate is what cumsum runs, without its wrapper's
        # cost; zdot_j = w_j x z_j is entry (3j + i, j) of the products
        # z_j x w_a.
        omega = np.add.accumulate(self.axes * qd[:, None], 0)
        zdot = -self._skew_z.dot(omega.T).take(chain.own_link)
        # Velocities of the tracked points, (3, points): sum_j qdot_j Jv[3j + i]
        point_vel = qd.dot(self._Jv.reshape(n, -1)).reshape(3, -1)
        # d/dt [z_j x (p - o_j)] = zdot_j x (p - o_j) + z_j x (v_p - v(o_j))
        skew_zdot = zdot.dot(_SKEW).reshape(-1, 3)
        rate_x_p = skew_zdot.dot(self._points_T)
        rate_x_p += self._skew_z.dot(point_vel)
        z_x_o_dot = rate_x_p.take(chain.own_origin)
        Jv_dot = (rate_x_p - z_x_o_dot[:, None]) * chain.support
        # Accelerations at qdd = 0 of the tracked points, (3, points)
        point_bias = qd.dot(Jv_dot.reshape(n, -1)).reshape(3, -1)

        # A^T: row j holds sqrt(m_a) Jv_a[:, j] and (L_a^T R_a^T z_j), link
        # a >= j, from the rows [l, i n + a] = (R_a L_a)[l, i].
        RL = self._T.take(chain.rot_index).dot(chain.chol)
        At = np.concatenate(
            [(self._Jv[:, :n] * chain.sqrt_m).reshape(n, -1),
             self.axes.dot(RL) * chain.link_support],
            axis=1,
        )
        zdot_RL = zdot.dot(RL)
        y = np.empty((2, 3, n))
        # COM accelerations at qdd = 0 (the COMs are the first tracked points)
        y[0] = point_bias[:, :n] * chain.sqrt_m
        # L^T alpha_b = sum_j qdot_j L_a^T R_a^T zdot_j, and w_b x I w_b from
        # u = L^T w_b, the angular rows of A qdot
        u = qd.dot(At)[3 * n :].reshape(3, n)
        y[1] = (
            qd.dot(zdot_RL * chain.link_support)
            + (u[:, None] * u).ravel().dot(chain.gyro)
        ).reshape(3, n)

        self._rates = omega, Jv_dot, skew_zdot, z_x_o_dot
        self._RL_rows = RL
        self._zdot_RL = zdot_RL
        self._At = At
        self.M = At.dot(At.T)
        self.h = At.dot(y.ravel() + chain.gravity_load)
        self.v_t = point_vel[:, n + 1]
        self.abias_t = point_bias[:, n + 1]
        self.omega_r = omega[-1]

    @lazy
    def Mdot(self) -> np.ndarray:
        n, chain = self.chain.n, self.chain
        omega, Jv_dot, *_ = self._rates
        # d/dt (L_a^T R_a^T z_j) = L_a^T R_a^T (zdot_j + z_j x w_a), and
        # (z_j x w_a) . R_a L_a e_i = z_j . (w_a x R_a L_a e_i)
        RL = self._RL_rows
        w_x_RL = _SKEW.dot((RL.reshape(3, 1, 3, n) * omega.T[None, :, None]).reshape(9, -1))
        At_dot = np.concatenate(
            [(Jv_dot[:, :n] * chain.sqrt_m).reshape(n, -1),
             (self._zdot_RL + self.axes.dot(w_x_RL)) * chain.link_support],
            axis=1,
        )
        AtAd = self._At.dot(At_dot.T)
        return AtAd + AtAd.T
