"""Exception types shared across the package."""


class SliceLabError(Exception):
    """Base class for all slicelab errors."""


class ConfigError(SliceLabError):
    """Invalid configuration: bad key, bad value, unmet precondition."""


class DivergedError(SliceLabError):
    """A trajectory produced non-finite values (or an overflowing transform).

    Carries the last valid state so callers can checkpoint it.
    """

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class CheckpointFormatError(SliceLabError):
    """Malformed checkpoint file; ``offset`` is the failing byte position."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DiagnosticsFormatError(SliceLabError):
    """A diagnostics CSV does not carry the fixed header or row shape."""


class LoopDomainError(SliceLabError):
    """A material-loop point left the domain; carries the offending point."""

    def __init__(self, message, point):
        super().__init__(message)
        self.point = point

