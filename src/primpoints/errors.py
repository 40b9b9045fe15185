"""Typed errors shared across the package.

Every domain precondition failure raises one of these, so callers (and the
CLI exit-code map) can distinguish bad input from genuine bugs.  An exact
check that a computed result fails raises VerificationFailed, which no
domain handler should absorb.
"""


class PrimpointsError(Exception):
    """Base class for all domain errors raised by this package."""


class ZeroPolynomial(PrimpointsError):
    pass


class RamifiedBranch(PrimpointsError):
    pass


class BadInput(PrimpointsError):
    pass


class ReduciblePolynomial(PrimpointsError):
    def __init__(self, message, factors=None):
        super().__init__(message)
        self.factors = factors


class NotInert(PrimpointsError):
    pass


class Degenerate(PrimpointsError):
    pass


class NotTransitive(PrimpointsError):
    pass


class NotSquarefree(PrimpointsError):
    pass


class DegreeTooSmall(PrimpointsError):
    pass


class IrrationalInfinitePlaces(PrimpointsError):
    pass


class ZeroFunction(PrimpointsError):
    pass


class UnsupportedDivisorShape(PrimpointsError):
    pass


class NotInLinearSeries(PrimpointsError):
    pass


class InfinitePlace(PrimpointsError):
    pass


class ConstantFunction(PrimpointsError):
    pass


class NotPrimitive(PrimpointsError):
    pass


class ParseError(PrimpointsError):
    pass


# The largest exponent, permutation degree or point that parsed text may
# name, far above every input the package finishes on; a larger one raises
# ParseError before anything of its size is allocated.
SIZE_BOUND = 10_000


class VerificationFailed(PrimpointsError):
    """An exact re-check rejected a computed result: an internal fault."""
