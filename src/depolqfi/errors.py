"""Exception hierarchy shared by all modules."""


class DepolQfiError(Exception):
    """Base class for all package errors."""


class DomainError(DepolQfiError, ValueError):
    """An argument is outside its allowed range."""


class CapacityError(DepolQfiError):
    """A requested dense matrix would exceed the oracle's qubit cap."""
