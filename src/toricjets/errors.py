"""Exception types shared across the package.

Each failure kind is its own subclass of ToricJetsError, and callers tell
kinds apart by class without parsing messages: the command line front end
(cli.main) exits with 3 on GuardExceededError and with 2 on any other
ToricJetsError.  Every error also carries a short stable code.
"""

from __future__ import annotations


class ToricJetsError(Exception):
    """Base class for package errors."""

    code = "error"


class InputRangeError(ToricJetsError):
    """A numeric argument is outside its documented range."""

    code = "range"


class CoprimalityError(ToricJetsError):
    """The pair (p, q) is not coprime."""

    code = "gcd"


class EmbeddingDimensionError(ToricJetsError):
    """The surface would have embedding dimension 3 or less."""

    code = "embdim"


class NonMemberError(ToricJetsError):
    """A jet required to lie on the surface fails its equations."""

    code = "nonmember"


class GuardExceededError(ToricJetsError):
    """An exhaustive enumeration would exceed the configured point budget."""

    code = "guard"

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required
