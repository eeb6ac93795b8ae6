"""Exception hierarchy for the heisflow package."""


class HeisflowError(Exception):
    """Base class for all errors raised by this package."""


class OutOfDomain(HeisflowError):
    """Parameter values fall outside a surface's rectangular domain."""


class NotRegular(HeisflowError):
    """A patch fails the sampled rank-2 regularity requirement."""


class CharacteristicPoint(HeisflowError):
    """The horizontal normal vanishes; the requested quantity is undefined."""


class BasePointMismatch(HeisflowError):
    """Frame vectors at different base points were combined."""


class ZeroSpeed(HeisflowError):
    """Signed curvature requested where the curve velocity vanishes."""


class TooFewSamples(HeisflowError):
    """An operation on sampled curves needs at least three samples."""


class NotHorizontal(HeisflowError):
    """A curve violates the horizontality constraint beyond tolerance."""


class DegenerateRuling(HeisflowError):
    """Ruled-surface data whose contact coefficient vanishes identically."""


class ConstantRulingDirection(HeisflowError):
    """The ruling direction never turns, so no plane contact factor exists."""


class NotUnitSpeed(HeisflowError):
    """A curve is not parametrised by unit horizontal speed."""


class StraightLine(HeisflowError):
    """A curve with vanishing curvature cannot rule a tangent surface."""


class ZeroInRange(HeisflowError):
    """The ruling range of a tangent surface must exclude zero."""


class NotRegularProfile(HeisflowError):
    """A cylinder profile curve has a point of vanishing speed."""


class UnknownName(HeisflowError, KeyError):
    """No catalog surface is registered under the requested name."""

    def __str__(self) -> str:
        # KeyError would print the message as its repr, in quotes
        return Exception.__str__(self)


class SpecError(HeisflowError, ValueError):
    """A surface specification file or dictionary is malformed."""
