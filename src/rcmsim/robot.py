"""Serial-chain robot model: the model file and its one frame pass.

``kinematics`` builds the frame pass (``kernels.KinFrames``) at a joint
state; tool poses, Jacobians and their rates, the inertia matrix and the
bias torques are all read from it, so the plant, the controllers and the
constraint share one code path for each quantity.

The model is fully data-driven from a JSON file (``ModelFile``). The
chain uses modified-DH parameters with revolute joints only; a rigid, massless
tool of length ``l_tool`` extends along the tool-reference frame's z-axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import kernels
from .kernels import KinFrames, Pose
from .schema import POSITIVE, Rule, Schema, fail, join, length, naming_file, read_json, setting

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
    n: the joint count, derived from the rows of ``dh``.
    """

    dh: np.ndarray
    masses: np.ndarray
    coms: np.ndarray
    inertias: np.ndarray
    gravity: np.ndarray
    l_tool: float
    flange: np.ndarray = field(default_factory=lambda: np.zeros(4))
    description: str = ""
    n: int = field(init=False)
    chain: kernels.Chain = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", self.dh.shape[0])
        chain = kernels.Chain.build(
            self.dh, self.flange, self.l_tool, self.masses, self.coms, self.inertias,
            self.gravity,
        )
        object.__setattr__(self, "chain", chain)


@dataclass
class JointState:
    q: np.ndarray
    qdot: np.ndarray


@dataclass
class _DHRow(Schema):
    """A modified-DH transform's a, d [m] and alpha [rad]; the subclass adds
    its angle [rad]."""

    a: float
    d: float
    alpha: float


@dataclass
class JointSpec(_DHRow):
    theta_offset: float


@dataclass
class FlangeSpec(_DHRow):
    """The fixed transform after the last joint."""

    theta: float


@dataclass
class LinkSpec(Schema):
    """A link's mass [kg], COM [m] and inertia about the COM [kg m^2], in
    the link frame."""

    mass: float = setting(rule=POSITIVE)
    com: list[float] = setting(rule=length(3))
    inertia: list[list[float]] = setting(
        rule=Rule(lambda v: [len(row) for row in v] == [3, 3, 3], "expected a 3x3 matrix")
    )

    def check(self, path: str):
        inertia = np.array(self.inertia)
        if np.max(np.abs(inertia - inertia.T)) > 1e-9:
            fail(join(path, "inertia"), "not symmetric")
        if np.linalg.eigvalsh(inertia)[0] <= 0:
            fail(join(path, "inertia"), "not positive-definite")


@dataclass
class ModelFile(Schema):
    """The model file (see ``RobotModel`` for the units)."""

    n: int = setting(rule=Rule(lambda v: v >= 1, "expected a positive integer"))
    joints: list[JointSpec]
    links: list[LinkSpec]
    gravity: list[float] = setting(rule=length(3))
    l_tool: float = setting(rule=POSITIVE)
    flange: FlangeSpec | None = None
    description: str = ""

    def check(self, path: str):
        for name in ("joints", "links"):
            count = len(getattr(self, name))
            if count != self.n:
                fail(join(path, name), f"expected {self.n} entries, got {count}")


def model_from_dict(data: dict) -> RobotModel:
    """Build and validate a RobotModel from parsed JSON; a ConfigError names the field."""
    spec = ModelFile.from_dict(data)
    spec.validate()
    f, links = spec.flange, spec.links
    return RobotModel(
        dh=np.array([[j.a, j.d, j.alpha, j.theta_offset] for j in spec.joints]),
        masses=np.array([link.mass for link in links]),
        coms=np.array([link.com for link in links]),
        inertias=np.array([link.inertia for link in links]),
        gravity=np.array(spec.gravity),
        l_tool=spec.l_tool,
        flange=np.zeros(4) if f is None else np.array([f.a, f.d, f.alpha, f.theta]),
        description=spec.description,
    )


def load_model(path: str) -> RobotModel:
    """The model file at ``path``; a ConfigError names the file (and the field)."""
    data = read_json(path)
    with naming_file(path, "model"):
        return model_from_dict(data)


def default_model_path() -> str:
    return str(resources.files("rcmsim.data").joinpath("default_7dof.json"))


def load_default_model() -> RobotModel:
    return load_model(default_model_path())


def _check_q(model: RobotModel, q: np.ndarray, name: str = "q") -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (model.n,):
        raise ValueError(f"expected {name} of length {model.n}, got shape {q.shape}")
    return q


def kinematics(model: RobotModel, q: np.ndarray, qdot: np.ndarray | None = None) -> KinFrames:
    """The frame pass at ``q`` (and ``qdot``, for rates and bias torques):
    joint frames, tool poses, geometric Jacobians, their rates and the
    joint-space dynamics terms (see ``kernels.KinFrames``)."""
    q = _check_q(model, q)
    if qdot is not None:
        qdot = _check_q(model, qdot, "qdot")
    return KinFrames(model.chain, q, qdot)
