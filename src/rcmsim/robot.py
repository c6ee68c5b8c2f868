"""Serial-chain robot model: the model file and its one frame pass.

``kinematics`` builds the frame pass (``kernels.KinFrames``) at a joint
state; tool poses, Jacobians and their rates, the inertia matrix and the
bias torques are all read from it, so the plant, the controllers and the
constraint share one code path for each quantity.

The model is fully data-driven from a JSON file (see ``load_model``). The
chain uses modified-DH parameters with revolute joints only; a rigid, massless
tool of length ``l_tool`` extends along the tool-reference frame's z-axis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import kernels
from .errors import ModelError
from .kernels import KinFrames, Pose

DEFAULT_HOME = np.array(
    [0.0, -np.pi / 4, 0.0, -3 * np.pi / 4, 0.0, np.pi / 2, np.pi / 4]
)


@dataclass(frozen=True)
class RobotModel:
    """Kinematic and inertial description of an n-DOF chain plus tool.

    dh: (n, 4) rows of (a [m], d [m], alpha [rad], theta_offset [rad]).
    flange: (4,) fixed transform (a, d, alpha, theta) after the last joint;
        the resulting frame is the tool-reference frame.
    masses/coms/inertias: per-link mass [kg], COM [m] and rotational inertia
        about the COM [kg m^2], all in the link frame.
    """

    n: int
    dh: np.ndarray
    masses: np.ndarray
    coms: np.ndarray
    inertias: np.ndarray
    gravity: np.ndarray
    l_tool: float
    flange: np.ndarray = field(default_factory=lambda: np.zeros(4))
    description: str = ""
    chain: kernels.Chain = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        chain = kernels.Chain.build(
            self.dh, self.flange, self.l_tool, self.masses, self.coms, self.inertias,
            self.gravity,
        )
        object.__setattr__(self, "chain", chain)


@dataclass
class JointState:
    q: np.ndarray
    qdot: np.ndarray


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ModelError(f"missing field: {path}{key}")
    return d[key]


def _vec(value, length: int, path: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (length,):
        raise ModelError(f"{path}: expected {length} numbers")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{path}: non-finite value")
    return arr


def model_from_dict(data: dict) -> RobotModel:
    """Build and validate a RobotModel from parsed JSON."""
    n = _require(data, "n", "")
    if not isinstance(n, int) or n < 1:
        raise ModelError("n: expected a positive integer")
    joints = _require(data, "joints", "")
    links = _require(data, "links", "")
    if len(joints) != n:
        raise ModelError(f"joints: expected {n} entries, got {len(joints)}")
    if len(links) != n:
        raise ModelError(f"links: expected {n} entries, got {len(links)}")

    dh = np.zeros((n, 4))
    for i, j in enumerate(joints):
        path = f"joints[{i}]."
        dh[i, 0] = float(_require(j, "a", path))
        dh[i, 1] = float(_require(j, "d", path))
        dh[i, 2] = float(_require(j, "alpha", path))
        dh[i, 3] = float(_require(j, "theta_offset", path))

    masses = np.zeros(n)
    coms = np.zeros((n, 3))
    inertias = np.zeros((n, 3, 3))
    for i, link in enumerate(links):
        path = f"links[{i}]."
        masses[i] = float(_require(link, "mass", path))
        if masses[i] <= 0:
            raise ModelError(f"links[{i}].mass: must be positive")
        coms[i] = _vec(_require(link, "com", path), 3, f"links[{i}].com")
        inrt = np.asarray(_require(link, "inertia", path), dtype=float)
        if inrt.shape != (3, 3):
            raise ModelError(f"links[{i}].inertia: expected a 3x3 matrix")
        if np.max(np.abs(inrt - inrt.T)) > 1e-9:
            raise ModelError(f"links[{i}].inertia: not symmetric")
        if np.linalg.eigvalsh(inrt)[0] <= 0:
            raise ModelError(f"links[{i}].inertia: not positive-definite")
        inertias[i] = inrt

    gravity = _vec(_require(data, "gravity", ""), 3, "gravity")
    l_tool = float(_require(data, "l_tool", ""))
    if l_tool <= 0:
        raise ModelError("l_tool: must be positive")

    flange = np.zeros(4)
    if "flange" in data:
        f = data["flange"]
        for k, key in enumerate(("a", "d", "alpha", "theta")):
            flange[k] = float(_require(f, key, "flange."))

    return RobotModel(
        n=n,
        dh=dh,
        masses=masses,
        coms=coms,
        inertias=inertias,
        gravity=gravity,
        l_tool=l_tool,
        flange=flange,
        description=str(data.get("description", "")),
    )


def load_model(path: str) -> RobotModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"invalid JSON in {path}: {exc}") from exc
    return model_from_dict(data)


def default_model_path() -> str:
    return str(resources.files("rcmsim.data").joinpath("default_7dof.json"))


def load_default_model() -> RobotModel:
    return load_model(default_model_path())


def _check_q(model: RobotModel, q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (model.n,):
        raise ValueError(f"expected q of length {model.n}, got shape {q.shape}")
    return q


def kinematics(model: RobotModel, q: np.ndarray, qdot: np.ndarray | None = None) -> KinFrames:
    """The frame pass at ``q`` (and ``qdot``, for rates and bias torques):
    joint frames, tool poses, geometric Jacobians, their rates and the
    joint-space dynamics terms (see ``kernels.KinFrames``)."""
    q = _check_q(model, q)
    if qdot is not None:
        qdot = _check_q(model, qdot)
    return KinFrames(model.chain, q, qdot)
