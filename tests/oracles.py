"""Independent reference implementations the tests check the program against.

* Loop-form forward kinematics, point Jacobians, the composite-rigid-body
  inertia and recursive Newton-Euler inverse dynamics (one _mdh_step/_cross
  step at a time, independent of the vectorised frame pass), forward dynamics
  from the pass's M and h, and central-difference stencils for every time
  derivative the pass computes exactly: Jdot, the constraint rate and
  acceleration bias, and Mdot.
* The pivot constraint in its skew form (the residual Jacobian
  J_p + skew(p_cr) J_w) and the pivot point on the tool axis (the
  orthogonal projection of the trocar), each written apart from
  ``rcm.constraint_from_kin`` and the recorded trace.
* The SVD pseudoinverse, the symmetric matrix square root, the two-row
  projector in exact rational arithmetic and the textbook projection
  operators (P, Pdot, M_f, task-space terms, the Gauss acceleration split)
  in their general form.
* Controller references: the model-based PD task force, the unconstrained
  operational-space PD law, the projected controller in its
  orthogonal-projector (P) form, the published inertia-square-root form of
  the Udwadia-Kalaba controller and the extended-Jacobian controller in its
  basis form, with an explicit
  null-space basis (the SVD one or any rotation of it), Procrustes basis
  alignment and exact d/dt(Z^#).
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from rcmsim.controllers import ControlSnapshot, GainSet, nullspace_torque
from rcmsim.errors import RankDeficientConstraint, RcmSimError, SingularExtendedJacobian
from rcmsim.kernels import skew_stack
from rcmsim.numerics import DEFAULT_RTOL, row_factor
from rcmsim.projection import sym_inv
from rcmsim.rcm import ConstraintState
from rcmsim.robot import Pose, kinematics
from rcmsim.scenarios import TaskReference

FD_STEP = 1e-6


def _mdh_step(a, d, alpha, theta):
    """Child-frame rotation and origin in parent coordinates."""
    ca = np.cos(alpha)
    sa = np.sin(alpha)
    ct = np.cos(theta)
    st = np.sin(theta)
    R = np.empty((3, 3))
    R[0, 0] = ct
    R[0, 1] = -st
    R[0, 2] = 0.0
    R[1, 0] = ca * st
    R[1, 1] = ca * ct
    R[1, 2] = -sa
    R[2, 0] = sa * st
    R[2, 1] = sa * ct
    R[2, 2] = ca
    p = np.empty(3)
    p[0] = a
    p[1] = -sa * d
    p[2] = ca * d
    return R, p


def _cross(a, b):
    c = np.empty(3)
    c[0] = a[1] * b[2] - a[2] * b[1]
    c[1] = a[2] * b[0] - a[0] * b[2]
    c[2] = a[0] * b[1] - a[1] * b[0]
    return c


def rnea(dh, q, qd, qdd, gravity, masses, coms, inertias):
    """Recursive Newton-Euler inverse dynamics.

    Returns the joint torques that realize ``qdd`` at state (q, qd) under
    ``gravity``. Gravity enters through the standard base-acceleration trick.
    """
    n = q.shape[0]
    Rs = np.empty((n, 3, 3))
    ps = np.empty((n, 3))
    ws = np.empty((n, 3))
    wds = np.empty((n, 3))
    Fs = np.empty((n, 3))
    Ns = np.empty((n, 3))

    w = np.zeros(3)
    wd = np.zeros(3)
    vd = -gravity
    for i in range(n):
        R, pl = _mdh_step(dh[i, 0], dh[i, 1], dh[i, 2], q[i] + dh[i, 3])
        Rs[i] = R
        ps[i] = pl
        Rt = R.T
        w_in = Rt @ w
        w_new = w_in.copy()
        w_new[2] += qd[i]
        wd_new = Rt @ wd + _cross(w_in, np.array([0.0, 0.0, qd[i]]))
        wd_new[2] += qdd[i]
        vd_new = Rt @ (vd + _cross(wd, pl) + _cross(w, _cross(w, pl)))
        c = coms[i]
        vdc = vd_new + _cross(wd_new, c) + _cross(w_new, _cross(w_new, c))
        Fs[i] = masses[i] * vdc
        Iw = inertias[i] @ w_new
        Ns[i] = inertias[i] @ wd_new + _cross(w_new, Iw)
        ws[i] = w_new
        wds[i] = wd_new
        w = w_new
        wd = wd_new
        vd = vd_new

    tau = np.empty(n)
    f = np.zeros(3)
    nt = np.zeros(3)
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            f_down = Rs[i + 1] @ f
            n_down = Rs[i + 1] @ nt + _cross(ps[i + 1], f_down)
        else:
            f_down = np.zeros(3)
            n_down = np.zeros(3)
        f = f_down + Fs[i]
        nt = n_down + Ns[i] + _cross(coms[i], Fs[i])
        tau[i] = nt[2]
    return tau


def inverse_dynamics(model, q, qdot, qddot):
    """Joint torques realizing ``qddot`` at (q, qdot) including gravity
    (recursive Newton-Euler)."""
    return rnea(
        model.dh,
        np.asarray(q, dtype=float),
        np.asarray(qdot, dtype=float),
        np.asarray(qddot, dtype=float),
        model.gravity,
        model.masses,
        model.coms,
        model.inertias,
    )


def forward_dynamics(model, q, qdot, tau, tau_env=None):
    """Joint accelerations from M qdd = tau + tau_env - h (one frame pass)."""
    kin = kinematics(model, q, qdot)
    rhs = np.asarray(tau, dtype=float) - kin.h
    if tau_env is not None:
        rhs = rhs + np.asarray(tau_env, dtype=float)
    return np.linalg.solve(kin.M, rhs)


def fk_jac(dh, flange, q, l_tool):
    """Forward kinematics plus geometric Jacobians in one pass.

    Returns (origins, axes, R_r, p_r, p_t, J_r, J_t): per-joint frame origins
    and z-axes in base coordinates, the tool-reference pose, the tip position,
    and the 6xn geometric Jacobians of the reference frame and the tip
    (position rows first).
    """
    n = q.shape[0]
    origins = np.empty((n, 3))
    axes = np.empty((n, 3))
    R = np.eye(3)
    p = np.zeros(3)
    for i in range(n):
        Rs, ps = _mdh_step(dh[i, 0], dh[i, 1], dh[i, 2], q[i] + dh[i, 3])
        p = p + R @ ps
        R = R @ Rs
        for k in range(3):
            origins[i, k] = p[k]
            axes[i, k] = R[k, 2]
    Rs, ps = _mdh_step(flange[0], flange[1], flange[2], flange[3])
    p_r = p + R @ ps
    R_r = R @ Rs
    p_t = np.empty(3)
    for k in range(3):
        p_t[k] = p_r[k] + l_tool * R_r[k, 2]

    J_r = np.zeros((6, n))
    J_t = np.zeros((6, n))
    for i in range(n):
        zx = axes[i, 0]
        zy = axes[i, 1]
        zz = axes[i, 2]
        rx = p_r[0] - origins[i, 0]
        ry = p_r[1] - origins[i, 1]
        rz = p_r[2] - origins[i, 2]
        J_r[0, i] = zy * rz - zz * ry
        J_r[1, i] = zz * rx - zx * rz
        J_r[2, i] = zx * ry - zy * rx
        tx = p_t[0] - origins[i, 0]
        ty = p_t[1] - origins[i, 1]
        tz = p_t[2] - origins[i, 2]
        J_t[0, i] = zy * tz - zz * ty
        J_t[1, i] = zz * tx - zx * tz
        J_t[2, i] = zx * ty - zy * tx
        J_r[3, i] = zx
        J_r[4, i] = zy
        J_r[5, i] = zz
        J_t[3, i] = zx
        J_t[4, i] = zy
        J_t[5, i] = zz
    return origins, axes, R_r, p_r, p_t, J_r, J_t


def fk_jac3(dh, flange, q, qdot, step, l_tool):
    """fk_jac at q and at q +/- step*qdot in one call (hot loop shortcut).

    Returns (origins, axes, R_r, p_r, p_t, J_r, J_t,
             R_r_plus, J_r_plus, Jt_plus, R_r_minus, J_r_minus, Jt_minus);
    the tip blocks of the offset evaluations carry only the translational
    rows' source (full 6xn J_t is returned for uniformity).
    """
    origins, axes, R_r, p_r, p_t, J_r, J_t = fk_jac(dh, flange, q, l_tool)
    _, _, R_p, p_rp, _, J_rp, J_tp = fk_jac(dh, flange, q + step * qdot, l_tool)
    _, _, R_m, p_rm, _, J_rm, J_tm = fk_jac(dh, flange, q - step * qdot, l_tool)
    return (
        origins, axes, R_r, p_r, p_t, J_r, J_t,
        R_p, p_rp, J_rp, J_tp,
        R_m, p_rm, J_rm, J_tm,
    )


def point_jacobian(dh, q, link, point_local):
    """Translational Jacobian of a point fixed to ``link`` (0-based index).

    Columns beyond the supporting joint are zero by chain structure.
    """
    n = q.shape[0]
    origins = np.empty((n, 3))
    axes = np.empty((n, 3))
    R = np.eye(3)
    p = np.zeros(3)
    for i in range(link + 1):
        Rs, ps = _mdh_step(dh[i, 0], dh[i, 1], dh[i, 2], q[i] + dh[i, 3])
        p = p + R @ ps
        R = R @ Rs
        for k in range(3):
            origins[i, k] = p[k]
            axes[i, k] = R[k, 2]
    target = p + R @ point_local
    J = np.zeros((3, n))
    for i in range(link + 1):
        z = axes[i]
        r = target - origins[i]
        c = _cross(z, r)
        J[0, i] = c[0]
        J[1, i] = c[1]
        J[2, i] = c[2]
    return J, target


def crba(dh, q, masses, coms, inertias):
    """Joint-space inertia matrix via the composite-rigid-body algorithm."""
    n = q.shape[0]
    Rs = np.empty((n, 3, 3))
    ps = np.empty((n, 3))
    for i in range(n):
        R, pl = _mdh_step(dh[i, 0], dh[i, 1], dh[i, 2], q[i] + dh[i, 3])
        Rs[i] = R
        ps[i] = pl

    # Spatial inertia of each link about its own frame origin, (angular, linear).
    Ic = np.zeros((n, 6, 6))
    for i in range(n):
        m = masses[i]
        c = coms[i]
        ctil = np.zeros((3, 3))
        ctil[0, 1] = -c[2]
        ctil[0, 2] = c[1]
        ctil[1, 0] = c[2]
        ctil[1, 2] = -c[0]
        ctil[2, 0] = -c[1]
        ctil[2, 1] = c[0]
        Ibar = inertias[i] + m * (ctil @ ctil.T)
        for r in range(3):
            for s in range(3):
                Ic[i, r, s] = Ibar[r, s]
                Ic[i, r, 3 + s] = m * ctil[r, s]
                Ic[i, 3 + r, s] = m * ctil.T[r, s]
            Ic[i, 3 + r, 3 + r] = m

    # Composite accumulation toward the base. For the child->parent motion map
    # E = [[R,0],[px R, R]], inertia transforms as G I E^-1 with the force map
    # G = [[R, px R],[0, R]].
    for i in range(n - 1, 0, -1):
        R = Rs[i]
        pl = ps[i]
        ptil = np.zeros((3, 3))
        ptil[0, 1] = -pl[2]
        ptil[0, 2] = pl[1]
        ptil[1, 0] = pl[2]
        ptil[1, 2] = -pl[0]
        ptil[2, 0] = -pl[1]
        ptil[2, 1] = pl[0]
        pR = ptil @ R
        G = np.zeros((6, 6))
        Einv = np.zeros((6, 6))
        Rt = R.T
        nRtp = -(Rt @ ptil)
        for r in range(3):
            for s in range(3):
                G[r, s] = R[r, s]
                G[r, 3 + s] = pR[r, s]
                G[3 + r, 3 + s] = R[r, s]
                Einv[r, s] = Rt[r, s]
                Einv[3 + r, s] = nRtp[r, s]
                Einv[3 + r, 3 + s] = Rt[r, s]
        Ic[i - 1] = Ic[i - 1] + G @ (Ic[i] @ Einv)

    M = np.zeros((n, n))
    for i in range(n - 1, -1, -1):
        F = Ic[i][:, 2].copy()
        M[i, i] = F[2]
        for j in range(i, 0, -1):
            R = Rs[j]
            pl = ps[j]
            Fa = np.empty(3)
            Fl = np.empty(3)
            for k in range(3):
                Fa[k] = F[k]
                Fl[k] = F[3 + k]
            RFl = R @ Fl
            Fa_new = R @ Fa + _cross(pl, RFl)
            for k in range(3):
                F[k] = Fa_new[k]
                F[3 + k] = RFl[k]
            M[i, j - 1] = F[2]
            M[j - 1, i] = F[2]
    return M


def mass_matrix_crba(model, q):
    q = np.asarray(q, dtype=float)
    return crba(model.dh, q, model.masses, model.coms, model.inertias)


def jacobians(model, q):
    """(R_r, p_r, J_r, J_t) from the loop-form pass."""
    q = np.asarray(q, dtype=float)
    _, _, R_r, p_r, _, J_r, J_t = fk_jac(model.dh, model.flange, q, model.l_tool)
    return R_r, p_r, J_r, J_t


def jacobian_dot_fd(model, q, qdot, step=FD_STEP):
    """Central difference of (J_r, J_t) along qdot."""
    (_, _, _, _, _, _, _, _, _, J_rp, J_tp, _, _, J_rm, J_tm) = fk_jac3(
        model.dh, model.flange, q, qdot, step, model.l_tool
    )
    return (J_rp - J_rm) / (2.0 * step), (J_tp - J_tm) / (2.0 * step)


def residual_jacobian(pose_r, J_r, p_c, rows=2):
    """Constraint Jacobian in its skew form: the trocar-point translational
    Jacobian J_pc = J_pr + skew(p_cr) J_wr, premultiplied by the first
    ``rows`` rows of R_r^T (2: the lateral residual; 3: the trace's res3d)."""
    p_cr = pose_r.p - np.asarray(p_c, dtype=float)
    J_pc = J_r[:3] + skew_stack(p_cr) @ J_r[3:]
    return pose_r.R.T[:rows] @ J_pc


class InconsistentTool(RcmSimError):
    """Reference and tip positions do not agree with the tool length."""


def rcm_point(p_r, p_t, p_c, l_tool, tol=1e-6):
    """Orthogonal projection of the trocar point onto the tool axis:
    p_rcm = p_r + (p_rt . p_rc / l_tool^2) p_rt."""
    p_r = np.asarray(p_r, dtype=float)
    p_t = np.asarray(p_t, dtype=float)
    p_c = np.asarray(p_c, dtype=float)
    p_rt = p_t - p_r
    if abs(np.linalg.norm(p_rt) - l_tool) > tol:
        raise InconsistentTool(
            f"|p_t - p_r| = {np.linalg.norm(p_rt):.9f} does not match l_tool = {l_tool}"
        )
    p_rc = p_c - p_r
    return p_r + (p_rt @ p_rc / (l_tool * l_tool)) * p_rt


def constraint_rate_fd(model, q, qdot, trocar, step=FD_STEP):
    """(J_dot, b) of the RCM constraint, configuration part by central difference.

    The trocar-motion part of J_dot is the analytic -B^T skew(pdot_c) J_w; the
    configuration part of J_dot and d/dt(B^T) are differenced along qdot.
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    R_r, _, J_r, _ = jacobians(model, q)

    def at(qs):
        R, p, J, _ = jacobians(model, qs)
        return R.T[:2], residual_jacobian(Pose(p=p, R=R), J, trocar.p)

    Bt_p, Jc_p = at(q + step * qdot)
    Bt_m, Jc_m = at(q - step * qdot)
    Bt = R_r.T[:2]
    pv = trocar.pdot
    skew_pv = np.array([[0.0, -pv[2], pv[1]], [pv[2], 0.0, -pv[0]], [-pv[1], pv[0], 0.0]])
    J_dot = (Jc_p - Jc_m) / (2.0 * step) - Bt @ (skew_pv @ J_r[3:])
    Bt_dot = (Bt_p - Bt_m) / (2.0 * step)
    b = J_dot @ qdot - Bt_dot @ trocar.pdot - Bt @ trocar.pddot
    return J_dot, b


def mass_matrix_dot_fd(model, q, qdot, step=FD_STEP):
    """Central difference of the CRBA inertia along qdot."""
    q = np.asarray(q, dtype=float)
    M_p = mass_matrix_crba(model, q + step * qdot)
    M_m = mass_matrix_crba(model, q - step * qdot)
    return (M_p - M_m) / (2.0 * step)


# --- linear algebra -----------------------------------------------------------


class NotPositiveDefinite(ValueError):
    """Symmetric positive-definite input expected."""


class InvalidMatrix(RcmSimError):
    """Matrix input contains non-finite entries."""


@dataclass(frozen=True)
class PinvOptions:
    """Pseudoinverse behaviour.

    relative_tolerance: singular values below ``tol * sigma_max`` are treated
        as zero.
    damping: when positive, return the damped inverse A^T (A A^T + d^2 I)^-1
        instead of truncating small singular values.
    """

    relative_tolerance: float = 1e-10
    damping: float = 0.0


def pinv(A: np.ndarray, opts: PinvOptions | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD, with optional damping."""
    opts = opts or PinvOptions()
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise InvalidMatrix("pinv input contains non-finite entries")
    if A.size == 0:
        return np.zeros((A.shape[1], A.shape[0]))
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if opts.damping > 0.0:
        inv_s = s / (s * s + opts.damping * opts.damping)
    else:
        cutoff = opts.relative_tolerance * (s[0] if s.size else 0.0)
        inv_s = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (Vt.T * inv_s) @ U.T


def matrix_sqrt(M: np.ndarray, sym_tol: float = 1e-8) -> np.ndarray:
    """Symmetric square root of a symmetric positive-definite matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotPositiveDefinite("matrix_sqrt expects a square matrix")
    scale = max(1.0, float(np.max(np.abs(M))))
    if np.max(np.abs(M - M.T)) > sym_tol * scale:
        raise NotPositiveDefinite("matrix_sqrt input is not symmetric")
    w, Q = np.linalg.eigh(0.5 * (M + M.T))
    if w[0] <= 0.0:
        raise NotPositiveDefinite(f"matrix_sqrt input has eigenvalue {w[0]:.3e} <= 0")
    S = (Q * np.sqrt(w)) @ Q.T
    return 0.5 * (S + S.T)


def exact_projector(Jc: np.ndarray) -> np.ndarray:
    """I - Jc^T (Jc Jc^T)^-1 Jc of a two-row ``Jc`` in exact rational
    arithmetic on its float entries, rounded once at the end."""
    J = [[Fraction(x) for x in row] for row in Jc.tolist()]
    g = [[sum(x * y for x, y in zip(r, c)) for c in J] for r in J]
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    g_inv = [[g[1][1] / det, -g[0][1] / det], [-g[1][0] / det, g[0][0] / det]]
    n = Jc.shape[1]
    return np.array([
        [float((i == j) - sum(J[a][i] * g_inv[a][b] * J[b][j] for a in (0, 1) for b in (0, 1)))
         for j in range(n)]
        for i in range(n)
    ])


def any_row_factor(Jc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, Q) with Jc = L Q and Q's rows orthonormal, for any row count: the
    program's ``numerics.row_factor`` for two rows, the thin SVD L = U S
    otherwise. Raises RankDeficientConstraint for more rows than columns or
    for s_min <= DEFAULT_RTOL s_max; no rows give empty factors."""
    k, n = Jc.shape
    if k == 2:
        return row_factor(Jc)
    if k > n:
        raise RankDeficientConstraint(f"more constraints ({k}) than joints ({n})")
    U, s, Vt = np.linalg.svd(Jc, full_matrices=False)
    if k and s[-1] <= DEFAULT_RTOL * s[0]:
        raise RankDeficientConstraint(
            f"constraint Jacobian rank < {k} (sigma_min={s[-1]:.3e}, sigma_max={s[0]:.3e})"
        )
    return U * s, Vt


def orth_projector(Jc: np.ndarray) -> np.ndarray:
    """The null-space projector P = I - Q^T Q, with Q from ``any_row_factor``:
    for two rows, as p_approach applies it."""
    Q = any_row_factor(Jc)[1]
    return np.eye(Jc.shape[1]) - Q.T @ Q


def projector_and_pinv(Jc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, Jc^+): the program's null-space projector and the SVD pseudoinverse."""
    return orth_projector(Jc), pinv(Jc)


# --- projection operators -----------------------------------------------------


class SingularTaskInertia(RcmSimError):
    """Task-space inertia is singular at this configuration."""


@dataclass(frozen=True)
class ProjectionState:
    """Constraint-side projection quantities at one control tick.

    ``Pdot`` is -Jc^+ Jdot_c, the projector rate restricted to its use in the
    dynamics: it equals d/dt(P) acting on admissible (constraint-null-space)
    velocities; the full matrix derivative carries an extra transposed term
    that vanishes on that subspace.
    """

    P: np.ndarray
    Pdot: np.ndarray
    M_f: np.ndarray
    Lambda_c: np.ndarray
    Jc_pinv: np.ndarray


@dataclass(frozen=True)
class TaskSpaceTerms:
    """Task-side operators built on top of a ProjectionState."""

    Lambda_f: np.ndarray
    h_f: np.ndarray
    J_sharp_T: np.ndarray
    N_bar: np.ndarray
    damped: bool


def projection_state(
    M: np.ndarray,
    Jc: np.ndarray,
    Jc_dot: np.ndarray | None = None,
) -> ProjectionState:
    """P, Pdot, free-motion inertia M_f and constraint-space inertia Lambda_c.

    M_f = P M + (I - P) is nonsingular by construction. With an empty
    constraint (k = 0) this degenerates to P = I, M_f = M.
    """
    M = np.asarray(M, dtype=float)
    Jc = np.asarray(Jc, dtype=float)
    n = M.shape[0]
    k = Jc.shape[0] if Jc.ndim == 2 else 0
    P, Jc_pinv = projector_and_pinv(Jc.reshape(k, n))
    if Jc_dot is None or k == 0:
        Pdot = np.zeros((n, n))
    else:
        Pdot = -Jc_pinv @ np.asarray(Jc_dot, dtype=float)
    M_f = P @ M + (np.eye(n) - P)
    if k == 0:
        Lambda_c = np.zeros((0, 0))
    else:
        Lambda_c = np.linalg.inv(Jc @ np.linalg.solve(M, Jc.T))
        Lambda_c = 0.5 * (Lambda_c + Lambda_c.T)
    return ProjectionState(P=P, Pdot=Pdot, M_f=M_f, Lambda_c=Lambda_c, Jc_pinv=Jc_pinv)


def task_space_terms(
    M_f: np.ndarray,
    P: np.ndarray,
    J: np.ndarray,
    Jdot_qd: np.ndarray,
    h: np.ndarray,
    constraint_feedforward: np.ndarray | None = None,
    on_singular: str = "raise",
) -> TaskSpaceTerms:
    """Task-space inertia, bias, dynamically consistent inverse, null projector.

    Lambda_f = (J M_f^-1 P J^T)^-1
    J#T      = Lambda_f J M_f^-1 P
    N_bar    = I - J^T J#T
    h_f      = Lambda_f (J M_f^-1 P h - Jdot_qd - J M_f^-1 u)

    where ``Jdot_qd`` is the task's bias acceleration J_dot qdot and
    u = ``constraint_feedforward`` is the constrained joint-acceleration
    component Jc^+ (xddot_c - b_c); with u = Pdot qdot the bias reduces exactly
    to the time-invariant-constraint operational-space form, and u defaults to
    zero (no constraint). A singular Lambda_f^-1 raises SingularTaskInertia,
    or with ``on_singular="damp"`` takes the program's damped inverse, which
    ``damped`` reports.
    """
    n = M_f.shape[0]
    J = np.asarray(J, dtype=float)
    u = (
        np.zeros(n)
        if constraint_feedforward is None
        else np.asarray(constraint_feedforward, dtype=float)
    )
    # One LU of M_f serves both the projector image and the feedforward image.
    right = np.concatenate([P, u[:, None]], axis=1)
    sol = np.linalg.solve(M_f, right)
    W = sol[:, :n]  # M_f^-1 P  (symmetric in exact arithmetic)
    Minv_u = sol[:, n]
    B = J @ W
    Lambda_f, damped = sym_inv(B @ J.T)
    if damped and on_singular == "raise":
        raise SingularTaskInertia("task-space inertia is singular")
    J_sharp_T = Lambda_f @ B
    N_bar = np.eye(n) - J.T @ J_sharp_T
    h_f = Lambda_f @ (B @ h - Jdot_qd - J @ Minv_u)
    return TaskSpaceTerms(
        Lambda_f=Lambda_f, h_f=h_f, J_sharp_T=J_sharp_T, N_bar=N_bar, damped=damped
    )


def gauss_acceleration_split(
    M: np.ndarray,
    Jc: np.ndarray,
    xddot_c: np.ndarray,
    b_c: np.ndarray,
    tau: np.ndarray,
    tau_ext: np.ndarray,
    h: np.ndarray,
    P: np.ndarray | None = None,
) -> np.ndarray:
    """Joint acceleration split into constrained and free parts.

    qddot = Jc^+ (xddot_c - b_c) + P M^-1 (tau + tau_ext - h); the constrained
    component satisfies Jc qddot = xddot_c - b_c exactly, the free component
    follows the projected unconstrained dynamics (minimum-deviation sense).
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    Jc = np.asarray(Jc, dtype=float).reshape(-1, n)
    if P is None:
        P, Jc_pinv = projector_and_pinv(Jc)
    else:
        _, Jc_pinv = projector_and_pinv(Jc)
    free = P @ np.linalg.solve(M, np.asarray(tau) + np.asarray(tau_ext) - np.asarray(h))
    if Jc.shape[0] == 0:
        return free
    return Jc_pinv @ (np.asarray(xddot_c) - np.asarray(b_c)) + free


# --- controllers --------------------------------------------------------------


def without_constraint(snap: ControlSnapshot) -> ControlSnapshot:
    """Snapshot variant with an empty (k = 0) constraint, for the
    unconstrained-reduction limit."""
    n = snap.kin.M.shape[0]
    empty = ConstraintState(
        np.zeros(0), np.zeros((0, n)), np.zeros(0), lambda: (np.zeros((0, n)), np.zeros(0))
    )
    return snap._replace(constraint=empty)


def free_space_force(
    Lambda_f: np.ndarray,
    h_f: np.ndarray,
    ref: TaskReference,
    x: np.ndarray,
    xdot: np.ndarray,
    gains: GainSet,
) -> np.ndarray:
    """Model-based PD task force: Lambda_f xdd_d + Kd ed + Kp e + h_f."""
    e = ref.x - x
    edot = ref.xdot - xdot
    return Lambda_f.dot(ref.xddot) + gains.kd_task * edot + gains.kp_task * e + h_f


def unconstrained_pd_torque(
    snap: ControlSnapshot, ref: TaskReference, gains: GainSet, q_init: np.ndarray
) -> np.ndarray:
    """Standard operational-space PD torque with no constraint (k = 0 limit)."""
    kin = snap.kin
    tst = task_space_terms(
        kin.M,
        np.eye(kin.M.shape[0]),
        kin.Jp_t,
        kin.abias_t,
        kin.h,
        on_singular="damp",
    )
    f_f = free_space_force(tst.Lambda_f, tst.h_f, ref, kin.p_t, kin.v_t, gains)
    tau_0 = nullspace_torque(kin.q, kin.qdot, q_init, gains)
    return kin.Jp_t.T @ f_f + tst.N_bar @ tau_0


def p_approach_reference(
    snap: ControlSnapshot, ref: TaskReference, gains: GainSet, q_init: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Projected controller in its P form: (tau, constraint_accel_cmd).

    The free torque tau_f, the operational-space PD tip torque on the
    constrained tip mobility B J^T (B = J N, N = M^-1 - M^-1 Jc^T Lambda_c
    Jc M^-1) plus the null-space term through I - J^T Lambda_f B, is
    projected by the orthogonal P = I - Jc^+ Jc, and the completion
    Jc^T Lambda_c (a_cmd + Jc M^-1 (h - P tau_f)) enforces the pivot command
    a_cmd = -Jc M^-1 Jc^T (Kd xdot_c + Kp x_c) - b_c.
    """
    cs = snap.constraint
    kin = snap.kin
    Minv, J, h = snap.Minv, kin.Jp_t, kin.h
    P = orth_projector(cs.J)
    Minv_JcT = Minv @ cs.J.T
    mobility_c = cs.J @ Minv_JcT
    Lambda_c = np.linalg.inv(mobility_c)
    pd = gains.kd_rcm * cs.xdot + gains.kp_rcm * cs.x
    a_cmd = -mobility_c @ pd - cs.b
    JG = J @ Minv_JcT @ Lambda_c
    B = J @ Minv - JG @ Minv_JcT.T
    Lambda_f = np.linalg.inv(B @ J.T)
    h_f = Lambda_f @ (B @ h - kin.abias_t - JG @ a_cmd)
    f = free_space_force(Lambda_f, h_f, ref, kin.p_t, kin.v_t, gains)
    tau_0 = nullspace_torque(kin.q, kin.qdot, q_init, gains)
    tau_par = P @ (J.T @ (f - Lambda_f @ (B @ tau_0)) + tau_0)
    f_c = Lambda_c @ (a_cmd + cs.J @ (Minv @ (h - tau_par)))
    return tau_par + cs.J.T @ f_c, a_cmd


def uk_sqrt_reference(
    snap: ControlSnapshot, ref: TaskReference, gains: GainSet, q_init: np.ndarray
) -> np.ndarray:
    """Udwadia-Kalaba torque in its published inertia-square-root form.

    Q = tau_sharp - h with tau_sharp the unconstrained operational-space PD
    tip torque plus the null-space term N_x (tau_0 + h); with S = M^1/2,
    Pi = Jc S^-1, b_ic = -(Jc M^-1 Jc^T)(Kd xdot_c + Kp x_c) - b_c (the pivot
    command of the other two controllers) and tau_nic = Jc^T b_ic:

        tau = Q + S Pi^+ (b_ic - Jc M^-1 Q) + S (I - Pi^+ Pi) S^-1 tau_nic + h
    """
    cs = snap.constraint
    kin = snap.kin
    n = kin.M.shape[0]
    M, h = kin.M, kin.h
    Minv = np.linalg.inv(M)
    S = matrix_sqrt(M)
    S_inv = np.linalg.solve(S, np.eye(n))
    J = kin.Jp_t
    Lambda_tip = np.linalg.inv(J @ Minv @ J.T)
    h_tip = Lambda_tip @ (J @ (Minv @ h) - kin.abias_t)
    f_pd = free_space_force(Lambda_tip, h_tip, ref, kin.p_t, kin.v_t, gains)
    tau_0 = nullspace_torque(kin.q, kin.qdot, q_init, gains)
    N_x = np.eye(n) - J.T @ (Lambda_tip @ (J @ Minv))
    Q = J.T @ f_pd + N_x @ (tau_0 + h) - h
    b_ic = -(cs.J @ Minv @ cs.J.T) @ (gains.kd_rcm * cs.xdot + gains.kp_rcm * cs.x) - cs.b
    Pi = cs.J @ S_inv
    Pi_pinv = pinv(Pi)
    Q_ic = S @ (Pi_pinv @ (b_ic - cs.J @ (Minv @ Q)))
    Q_nic = S @ ((np.eye(n) - Pi_pinv @ Pi) @ (S_inv @ (cs.J.T @ b_ic)))
    return Q + Q_ic + Q_nic + h


def null_basis(Jc: np.ndarray) -> np.ndarray:
    """Orthonormal null-space basis of a full-row-rank ``Jc``, from its full SVD."""
    return np.linalg.svd(Jc, full_matrices=True)[2][Jc.shape[0]:].T


def procrustes_align(Z: np.ndarray, Z_ref: np.ndarray) -> np.ndarray:
    """Rotate an orthonormal basis to best match a reference basis:
    orthogonal Procrustes on Z^T Z_ref."""
    U, _, Vt = np.linalg.svd(Z.T @ Z_ref)
    return Z @ (U @ Vt)


def null_sharp_rate(
    M: np.ndarray,
    Mdot: np.ndarray,
    Z: np.ndarray,
    Z_dot: np.ndarray,
    Lambda_n: np.ndarray,
    Z_sharp: np.ndarray,
) -> np.ndarray:
    """d/dt of Z^# = Lambda_n^-1 Z^T M with Lambda_n = Z^T M Z, exact."""
    Lambda_n_dot = Z_dot.T @ M @ Z + Z.T @ Mdot @ Z + Z.T @ M @ Z_dot
    return np.linalg.solve(Lambda_n, Z_dot.T @ M + Z.T @ Mdot - Lambda_n_dot @ Z_sharp)


def z_approach_reference(
    snap: ControlSnapshot,
    ref: TaskReference,
    gains: GainSet,
    q_init: np.ndarray,
    Z: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Extended-Jacobian controller in its basis form: (tau,
    constraint_accel_cmd), with the null basis ``Z`` (default: the SVD one),
    an SVD pseudoinverse and the torque formed through the stacked Jacobian
    J_E = [Jc; Z^#]. The gauge-locked rate Zdot = -Jc^+ Jdot_c Z holds the
    basis still along null(Jc)."""
    cs = snap.constraint
    kin = snap.kin
    M, h, Minv = kin.M, kin.h, snap.Minv
    if Z is None:
        Z = null_basis(cs.J)
    Lambda_n = Z.T @ M @ Z
    Z_sharp = np.linalg.solve(Lambda_n, Z.T @ M)
    Lambda_c = np.linalg.inv(cs.J @ Minv @ cs.J.T)
    Z_dot = -pinv(cs.J) @ (cs.J_dot @ Z)
    Zs_dot = null_sharp_rate(M, kin.Mdot, Z, Z_dot, Lambda_n, Z_sharp)
    J_E = np.concatenate([cs.J, Z_sharp], axis=0)
    sv = np.linalg.svd(J_E, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise SingularExtendedJacobian(f"stacked Jacobian near singular (sigma_min={sv[-1]:.3e})")
    Minv_h = Minv @ h
    H_top = Lambda_c @ (cs.J @ Minv_h - cs.b)
    H_bot = Lambda_n @ (Z_sharp @ Minv_h - Zs_dot @ kin.qdot)
    f_c = -(gains.kd_rcm * cs.xdot + gains.kp_rcm * cs.x)
    J = kin.Jp_t
    Lambda_zn = np.linalg.inv(J @ Z @ np.linalg.solve(Lambda_n, Z.T @ J.T))
    e = ref.x - kin.p_t
    edot = ref.xdot - kin.v_t
    f_f = Lambda_zn @ ref.xddot + gains.kd_task * edot + gains.kp_task * e
    f_n = Z.T @ (J.T @ f_f) + Z.T @ nullspace_torque(kin.q, kin.qdot, q_init, gains)
    accel_cmd = np.linalg.solve(Lambda_c, f_c) - cs.b
    return J_E.T @ np.concatenate([f_c + H_top, f_n + H_bot]), accel_cmd

