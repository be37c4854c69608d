"""Exception types shared across the package."""


class OscillentError(Exception):
    """Base class for all package errors."""


class DomainError(OscillentError, ValueError):
    """An input lies outside the operation's mathematical domain."""


class UnsupportedStateError(DomainError):
    """The requested operation does not apply to this kind of state."""


class ResourceCapError(OscillentError):
    """A fixed cost cap was exceeded: an exact-route order, a factorial that
    overflows a float, a Taylor box's or an oracle grid's predicted memory, an
    unbounded oracle window, or a sweep's number of points."""


class NumericalConsistencyError(OscillentError):
    """An internal cross-check failed (imaginary residue, determinant identity,
    a kernel form too ill-conditioned to invert, an oracle grid's bounds)."""
