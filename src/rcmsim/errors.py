"""Exception types raised across the package."""


class RcmSimError(Exception):
    """Base class for all package-specific errors."""


class RankDeficientConstraint(RcmSimError):
    """Constraint Jacobian lost row rank; the constraint set is ill-posed."""


class SingularExtendedJacobian(RcmSimError):
    """Stacked constraint/null-space Jacobian is not invertible."""


class ModelError(RcmSimError):
    """Robot model file is missing or malformed; message names the field path."""


class ConfigError(RcmSimError, ValueError):
    """Run configuration or library input is malformed (also a ``ValueError``);
    the message names the field path."""


class SimulationDiverged(RcmSimError):
    """Simulation state became non-finite.

    Attributes:
        tick: index of the first bad tick.
        time: simulation time of that tick in seconds.
        trace: partial trace recorded up to (not including) the bad tick,
            when available.
    """

    def __init__(self, tick: int, time: float, detail: str = "", trace=None):
        self.tick = tick
        self.time = time
        self.trace = trace
        msg = f"simulation diverged at tick {tick} (t={time:.6f} s)"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
