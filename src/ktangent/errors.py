"""Exception types shared across the package."""


class KTangentError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateName(KTangentError):
    """A generator or variable name was declared twice."""


class ReducibleMinpoly(KTangentError):
    """A claimed minimal polynomial has a root in the tower built so far."""


class NonMonic(KTangentError):
    """A minimal polynomial or chart relation is not monic where required."""


class DivisionByZero(KTangentError, ZeroDivisionError):
    """Exact division by a zero element."""


class DegreeTooLarge(KTangentError):
    """A polynomial exponent would pass the 16-bit field that holds it."""


class TowerMismatch(KTangentError):
    """Two scalars (or objects) built over different towers were combined."""


class SingularRelation(KTangentError):
    """A chart relation fails the bounded smoothness probe."""


class NameClash(KTangentError):
    """Ring variable names collide with tower generator names."""


class RingMismatch(KTangentError):
    """Two elements of different function rings were combined."""


class NonUnitBody(KTangentError):
    """A dual-number operation needed an invertible body and got zero."""


class BaseIncompatible(KTangentError):
    """Forms over incompatible differential bases were combined."""


class Mismatch(KTangentError):
    """Degrees, rings, or shapes do not line up for the requested operation."""


class NoDualBase(KTangentError):
    """An operation requiring a dual-number base got a plain one (or vice versa)."""


class NotAnEnlargement(KTangentError):
    """base_change target does not contain the source base."""


class NonUnitEntry(KTangentError):
    """A symbol entry (or its body) is not a unit."""


class NotStabilized(KTangentError):
    """Truncated cohomology dimensions changed when the window grew."""


class WindowOverflow(KTangentError):
    """An exact section fell outside the truncation window."""


class WindowTooLarge(KTangentError):
    """A truncation window holds more Čech labels than the engine will enumerate."""


class NotNumberField(KTangentError):
    """The construction requires a number field but the tower has a transcendental step."""


class VacuousCheck(KTangentError):
    """A suite's weight leaves every form it compares identically zero."""


class Unsupported(KTangentError):
    """The instance falls outside the modeled family (shape, sheaf, or cover)."""


class InstanceSyntaxError(KTangentError):
    """Parse failure in an instance file; carries line and column."""

    def __init__(self, msg, line, col):
        super().__init__(f"{msg} (line {line}, col {col})")
        self.line = line
        self.col = col


class UnknownIdentifier(KTangentError):
    """An expression referenced a name the instance never declared."""
