"""Shared exception types.  A failure is an `InputError` (a bad file, flag
or argument) or an internal error: an `AssertionError` from a check on a
value the package derived itself, or a `ReplayError` anywhere but a
report's replay, which records it under ``replay_failures``."""


class InputError(ValueError):
    """Malformed or inconsistent input: bad files, unknown elements, cyclic relations."""


class ReplayError(ValueError):
    """A certificate step's side condition failed during replay."""
