"""Exception types shared across the package.

Every error raised by the library derives from WolstenholmeError, so callers
can catch one base class.  Most also subclass ValueError because they signal
bad argument values; ZeroDenominatorError subclasses ZeroDivisionError.
Every broken hypothesis of a formula or an identity raises a
HypothesisViolationError, or one of its subclasses that names the hypothesis.
"""


class WolstenholmeError(Exception):
    pass


class NotPrimeError(WolstenholmeError, ValueError):
    """Modulus failed trial-division primality."""


class TooSmallError(WolstenholmeError, ValueError):
    """Modulus below the supported range (p >= 5)."""


class NotInvertibleError(WolstenholmeError, ValueError):
    """gcd(a, modulus) != 1; no modular inverse exists."""


class TopOutOfRangeError(WolstenholmeError, ValueError):
    """Binomial coefficient requested with top argument outside [0, p)."""


class ZeroDenominatorError(WolstenholmeError, ZeroDivisionError):
    """A base vanished mod p where it must not: a negative-exponent base at a
    k the sum did not exclude, or the base of pow_nonzero."""


class HypothesisViolationError(WolstenholmeError, ValueError):
    """Parameters outside the hypothesis domain of the requested formula, or
    data that breaks a function's or a polynomial's stated invariants."""


class OffsetZeroError(HypothesisViolationError):
    """An offset is 0 mod p where the formula's k factor has offset 0."""


class EqualOffsetsError(HypothesisViolationError):
    """Two offsets of a pair or triple formula are equal mod p."""


class DuplicateOffsetsError(HypothesisViolationError):
    """Two offsets of a general n-term sum are equal."""


class IndexNotInvertibleError(WolstenholmeError, ValueError):
    """The esp recurrence would divide by an index that is 0 mod p."""


class ModulusMismatchError(WolstenholmeError, ValueError):
    """Operands live over different moduli."""


class RangeViolationError(HypothesisViolationError):
    """Identity parameters outside their stated ranges."""


class ExpressionError(WolstenholmeError, ValueError):
    """Sum expression failed to parse or uses out-of-range exponents."""


class StrategyInapplicableError(WolstenholmeError, ValueError):
    """The requested evaluation strategy does not cover this sum shape."""


class DisagreementError(WolstenholmeError):
    """Two evaluation strategies returned different residues (always a bug)."""


class UnknownTheoremError(WolstenholmeError, ValueError):
    """Verification requested for an id not in the registry."""


class BadParamsError(WolstenholmeError, ValueError):
    """Invalid command parameters: a table's for its kind, verify's budget,
    primes or mode, or an -o file that cannot be written."""
