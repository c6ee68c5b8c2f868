"""Exception types raised across the package."""


class RcmSimError(Exception):
    """Base class for all package-specific errors."""


class RankDeficientConstraint(RcmSimError):
    """Constraint Jacobian lost row rank; the constraint set is ill-posed."""


class SingularExtendedJacobian(RcmSimError):
    """Stacked constraint/null-space Jacobian is not invertible."""


class ConfigError(RcmSimError, ValueError):
    """Malformed input (also a ``ValueError``): a run config, model, metrics or
    trace file, or a library argument; the message names the file or the
    field's path."""


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
