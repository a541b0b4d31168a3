"""Exception types shared across the package.

Everything derives from ShortPresError so callers can catch the package's
failures in one clause; the finer-grained classes exist because several of
them carry context (the offending point, symbol, or size) that tests and the
CLI want to surface.
"""


class ShortPresError(ValueError):
    """Base class for all errors raised by this package."""


class DomainMismatch(ShortPresError):
    """Two permutations with different domains were combined."""


class PointOutOfDomain(ShortPresError):
    """A cycle or lookup referenced a point outside the permutation's domain."""

    def __init__(self, point, lo, hi):
        super().__init__(f"point {point} outside domain [{lo}, {hi}]")
        self.point = point
        self.lo = lo
        self.hi = hi

    def __reduce__(self):
        return type(self), (self.point, self.lo, self.hi)


class OverlappingCycles(ShortPresError):
    """A point appeared twice in a cycle list passed to from_cycles."""

    def __init__(self, point):
        super().__init__(f"point {point} appears more than once")
        self.point = point

    def __reduce__(self):
        return type(self), (self.point,)


class UnsupportedDegree(ShortPresError):
    """No construction covers the requested degree."""

    def __init__(self, n, why=""):
        msg = f"degree {n} is not covered"
        if why:
            msg += f": {why}"
        super().__init__(msg)
        self.degree = n
        self.why = why

    def __reduce__(self):
        return type(self), (self.degree, self.why)


class BadPrimeClass(ShortPresError):
    """A builder was given a prime outside its congruence class."""


class ParityViolation(ShortPresError):
    """The unit-generator exponent pair has the wrong parity for the diagonal form."""


class InternalInvariantViolation(ShortPresError):
    """A derived parameter failed a consistency check that should always hold."""


class MalformedText(ShortPresError):
    """Text given as a word or an SLP is not one that the text format
    admits."""


class UnboundSymbol(ShortPresError):
    """A word referenced a symbol with no image and no earlier definition."""

    def __init__(self, name):
        super().__init__(f"no image or definition for symbol {name!r}")
        self.name = name

    def __reduce__(self):
        return type(self), (self.name,)


class EnumerationTooLarge(ShortPresError):
    """An enumeration would exceed its configured bound: a matrix-group
    closure past its prime, or an order certificate that finds no Jordan
    witness on more than 64 points (where the stabilizer chain stops)."""


class DegreeTooLarge(ShortPresError):
    """A degree is above a bound the package can check or prove at: the
    size limit of a verification step, or the range where is_prime is
    proven exact."""
