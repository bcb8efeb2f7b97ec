"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A configuration value violates a documented constraint."""


class TrajectoryOverflow(ArithmeticError):
    """A state update or drift evaluation produced a non-finite value.

    ``step`` is the index of the state that failed to stay finite (states
    are numbered from 0, so the first update that overflows reports 1).
    ``trajectory`` is the trajectory index when known.  One raised from
    ``integrators.evolve`` also carries ``order``, the (fine step,
    configuration index) of the update that failed.
    """

    def __init__(self, message: str, step: int | None = None,
                 trajectory: int | None = None):
        super().__init__(message)
        self.step = step
        self.trajectory = trajectory


class TamingBoundViolation(TrajectoryOverflow):
    """A tamed drift contribution reached 1, which the scheme rules out:
    dt ||F|| / (1 + dt ||F||) < 1 always, so this flags a defective step."""
