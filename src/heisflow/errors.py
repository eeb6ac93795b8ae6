"""Exception hierarchy for the heisflow package.  SpecError and its
subclasses are rejected input, on which the command line exits 2."""


class HeisflowError(Exception):
    """Base class for all errors raised by this package."""


class SpecError(HeisflowError, ValueError):
    """Surface input is malformed or describes no valid surface."""


class OutOfDomain(HeisflowError):
    """Parameter values fall outside a surface's rectangular domain."""


class NotRegular(SpecError):
    """A patch fails the sampled rank-2 regularity requirement."""


class CharacteristicPoint(HeisflowError):
    """The horizontal normal vanishes; the requested quantity is undefined."""


class BasePointMismatch(HeisflowError):
    """Frame vectors at different base points were combined."""


class ZeroSpeed(HeisflowError):
    """Signed curvature requested where the curve velocity vanishes."""


class DegenerateRuling(SpecError):
    """Ruled-surface data whose contact coefficient vanishes identically."""


class ConstantRulingDirection(HeisflowError):
    """The ruling direction never turns, so no plane contact factor exists."""


class UnknownName(HeisflowError, KeyError):
    """No catalog surface is registered under the requested name."""

    def __str__(self) -> str:
        # KeyError would print the message as its repr, in quotes
        return Exception.__str__(self)
