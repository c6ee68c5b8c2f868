import numpy as np
import pytest

from rcmsim.rcm import TrocarState
from rcmsim.robot import KinFrames, RobotModel, load_default_model, model_from_dict
from rcmsim.sim import SEMI_IMPLICIT, plant_accel, step


@pytest.fixture(scope="session")
def model() -> RobotModel:
    return load_default_model()


# Planar 2R chain in the base x-y plane, l1 = l2 = 1. The reference frame
# sits at the end of the second link (flange a = l2); joint axes are base z,
# so gravity acts out of plane (-y keeps it planar).
PLANAR_MODEL = {
    "n": 2,
    "joints": [
        {"a": 0.0, "d": 0.0, "alpha": 0.0, "theta_offset": 0.0},
        {"a": 1.0, "d": 0.0, "alpha": 0.0, "theta_offset": 0.0},
    ],
    "links": [
        {"mass": 1.0, "com": [0.5, 0.0, 0.0],
         "inertia": [[1e-3, 0, 0], [0, 1e-3, 0], [0, 0, 1e-3]]},
        {"mass": 1.0, "com": [0.5, 0.0, 0.0],
         "inertia": [[1e-3, 0, 0], [0, 1e-3, 0], [0, 0, 1e-3]]},
    ],
    "gravity": [0.0, -9.81, 0.0],
    "l_tool": 0.2,
    "flange": {"a": 1.0, "d": 0.0, "alpha": 0.0, "theta": 0.0},
}

PENDULUM_MASS = 1.3
PENDULUM_LENGTH = 0.7

# Point-mass pendulum about the base +y axis; q measures the angle from
# hanging straight down (so the gravity torque is m g l sin q). The inertia
# must be SPD; a point mass gets a negligible tensor.
_EPS = 1e-12
PENDULUM_MODEL = {
    "n": 1,
    "joints": [
        {"a": 0.0, "d": 0.0, "alpha": -np.pi / 2, "theta_offset": np.pi / 2},
    ],
    "links": [
        {"mass": PENDULUM_MASS, "com": [PENDULUM_LENGTH, 0.0, 0.0],
         "inertia": [[_EPS, 0, 0], [0, _EPS, 0], [0, 0, _EPS]]},
    ],
    "gravity": [0.0, 0.0, -9.81],
    "l_tool": 0.1,
}


@pytest.fixture(scope="session")
def planar_model() -> RobotModel:
    return model_from_dict(PLANAR_MODEL)


@pytest.fixture(scope="session")
def pendulum_model() -> RobotModel:
    return model_from_dict(PENDULUM_MODEL)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def random_states(rng, n, count, spread=0.8):
    """Joint states around the default home pose."""
    from rcmsim.robot import DEFAULT_HOME

    qs = DEFAULT_HOME[None, :] + rng.uniform(-spread, spread, size=(count, n))
    qds = rng.uniform(-1.0, 1.0, size=(count, n))
    return qs, qds


def static_trocar(p) -> TrocarState:
    """A trocar resting at ``p``."""
    return TrocarState(np.asarray(p, dtype=float), np.zeros(3), np.zeros(3))


def plant_step(model, state, tau, dt, integrator=SEMI_IMPLICIT, env=None, trocar=None):
    """``sim.step`` with no scripted external torque, from the acceleration
    ``sim.plant_accel`` gives at ``state`` (trocar[0] for the soft port)."""
    kin = KinFrames(model.chain, state.q, state.qdot)
    qdd, _ = plant_accel(kin, tau, None, env, trocar[0] if trocar else None)
    return step(model, state, tau, None, dt, qdd, integrator, env, trocar)
