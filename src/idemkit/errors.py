"""Exception types shared across the library."""


class IdemkitError(Exception):
    """Base class for all library errors."""


class PreconditionError(IdemkitError):
    """A certified operation was called outside its provable hypothesis.

    Raised e.g. when an element is not provably invertible by the geometric
    series, or when two idempotents are not provably equivalent by proximity.
    """


class TowerTooShallowError(PreconditionError):
    """No level of the tower achieves the requested approximation quality."""


class SeriesTruncationError(IdemkitError):
    """The certified series truncation index exceeded the hard cap."""


class PathError(IdemkitError):
    """An idempotent path could not be trivialized (too wild for its hint)."""


class ConfigError(IdemkitError):
    """Malformed descriptor, config or CLI input."""
