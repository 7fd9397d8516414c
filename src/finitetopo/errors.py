"""Shared exception types."""


class InputError(ValueError):
    """Malformed or inconsistent input: bad files, unknown elements, cyclic relations."""


class ValidationError(ValueError):
    """A structural invariant failed: non-regular CW data, a collapse step
    whose punctured set disagrees with the claimed local data, and the like."""


class ReplayError(ValueError):
    """A certificate step's side condition failed during replay."""


class NotCertified(RuntimeError):
    """A construction was requested whose precondition is not certified."""
