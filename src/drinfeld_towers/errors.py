"""Exception hierarchy shared by all modules."""


class AlgebraError(Exception):
    """Base class for every error raised by this package."""


class NotPrime(AlgebraError):
    pass


class SizeCapExceeded(AlgebraError):
    pass


class NoIrreducibleFound(AlgebraError):
    """Internal error: exhaustive search found no irreducible polynomial."""


class DivisionByZero(AlgebraError, ZeroDivisionError):
    pass


class DegreeNotDividing(AlgebraError):
    pass


class ContextMismatch(AlgebraError):
    pass


class ZeroPoint(AlgebraError):
    pass


class BadRankPair(AlgebraError):
    pass


class AmbientTooSmall(AlgebraError):
    pass


class NotFoundWithinBound(AlgebraError):
    pass


class CharacteristicDividesK(AlgebraError):
    pass


class BracketMismatch(AlgebraError):
    """The bracket-coefficient recursion disagrees with the direct product."""


class NoMarkedPreimage(AlgebraError):
    pass


class NotCyclic(AlgebraError):
    pass


class ZeroDenominator(AlgebraError):
    pass


class NotOnCurve(AlgebraError):
    pass


class NotInSubfield(AlgebraError):
    pass
