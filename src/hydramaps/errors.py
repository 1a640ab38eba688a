"""Exception hierarchy and process exit codes.

Every failure the library can report falls into one of four buckets:
malformed input (a map spec or value that does not satisfy a type
invariant), a violated mathematical precondition (an operation was asked
to run outside the regime where its defining identity holds), a
resource guard (a computation whose cost would exceed a configured cap),
or a failed numerical check (a float result missed its stated
tolerance).  Each concrete class carries the CLI's exit code for it as
the class attribute exit_code.
"""

EXIT_OK = 0
EXIT_SPEC_ERROR = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4
EXIT_NUMERICAL = 5

# the most states (truncations, frequencies, coefficients, scanned
# words) an exponential enumeration may visit
ENUMERATION_CAP = 2 ** 24


class HydraError(Exception):
    """Base class for all library-specific errors."""


class MapSpecError(HydraError, ValueError):
    """A map specification or serialized value is structurally invalid."""

    exit_code = EXIT_SPEC_ERROR


class NotPIntegralError(HydraError, ValueError):
    """A rational with denominator not coprime to p was passed where a
    p-integral value is required."""

    exit_code = EXIT_PRECONDITION


class PreconditionError(HydraError, ValueError):
    """A mathematical precondition of the requested operation fails.

    The message names the violated condition (e.g. ``requires rho < 1``)
    so callers can see which hypothesis broke rather than just that one
    did.
    """

    exit_code = EXIT_PRECONDITION


class ResourceLimitError(HydraError, RuntimeError):
    """The requested computation exceeds a resource guard."""

    exit_code = EXIT_RESOURCE


class NumericalCheckError(HydraError, RuntimeError):
    """A floating-point result missed the tolerance it is checked
    against (a solver residual, the imaginary mass of an inversion)."""

    exit_code = EXIT_NUMERICAL


def _guard_size(base: int, exponent: int, what: str,
                allow_large: bool | None = None) -> None:
    """Refuse a negative exponent, and more than ENUMERATION_CAP
    base**exponent states unless allow_large is set (None when the
    caller offers no override); called before anything is allocated.
    From |base| >= 2 and 2**exponent > ENUMERATION_CAP on, the sign of
    base**exponent decides, so the power is built only below that."""
    if exponent < 0:
        raise ValueError(
            f"need {base}**n {what} with n >= 0, got n = {exponent}")
    if allow_large:
        return
    if abs(base) >= 2 and exponent >= ENUMERATION_CAP.bit_length():
        too_many = base > 0 or exponent % 2 == 0
    else:
        too_many = base ** exponent > ENUMERATION_CAP
    if too_many:
        hint = "" if allow_large is None else "; pass allow_large to override"
        raise ResourceLimitError(
            f"{base}**{exponent} {what} exceed the {ENUMERATION_CAP} cap{hint}")
