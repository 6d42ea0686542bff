"""Error taxonomy shared across the package.

ConfigError / NumericError / IOFailure map onto the CLI exit codes
2 / 3 / 4 respectively; fmt_point writes the points their messages name.
"""

from __future__ import annotations


def fmt_point(p) -> str:
    """A point as a message shows it: (x, y) in plain floats."""
    return "(" + ", ".join(repr(float(v)) for v in p) + ")"


class SigmapolyError(Exception):
    """Base class."""


class ConfigError(SigmapolyError):
    """Bad input: malformed files, unknown keys, invalid knobs."""


class NumericError(SigmapolyError):
    """Numerical failure with context."""


class IOFailure(SigmapolyError):
    """Filesystem trouble."""


# -- core ----------------------------------------------------------------

class OutOfDomain(NumericError):
    pass


class NotOnSigma(NumericError):
    pass


class DegenerateContact(NumericError):
    pass


class EquilibriumOnSigmaError(NumericError):
    pass


class NotSliding(NumericError):
    pass


class DenominatorNearZero(NumericError):
    pass


class NearDegenerate(NumericError):
    """Raised only in strict mode; otherwise carried as a flag."""


class UnsupportedSingularity(NumericError):
    pass


# -- flow ------------------------------------------------------------------

class NoHit(NumericError):
    pass


class TangentialHit(NumericError):
    pass


class NoReturn(NumericError):
    pass


class NonDeterministicExit(NumericError):
    pass


# -- maps --------------------------------------------------------------------

class IllConditioned(NumericError):
    pass


class WindowTooSmall(NumericError):
    pass


class InExclusionSet(NumericError):
    pass


class OrbitHitsSliding(NumericError):
    pass


# -- polycycle ----------------------------------------------------------------

class NoConvergence(NumericError):
    pass


class PeriodAnnulus(NumericError):
    """The displacement vanishes identically: the cycles fill the window."""


# -- bifurcation ---------------------------------------------------------------

class NegativeLambda(NumericError):
    pass
