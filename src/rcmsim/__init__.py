"""Torque-level remote-center-of-motion control: constrained rigid-body
simulation and controller benchmarking."""

from .robot import (
    DEFAULT_HOME,
    JointState,
    Pose,
    RobotModel,
    default_model_path,
    load_default_model,
    load_model,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_HOME",
    "JointState",
    "Pose",
    "RobotModel",
    "default_model_path",
    "load_default_model",
    "load_model",
    "__version__",
]
