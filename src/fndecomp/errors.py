"""Exception hierarchy shared across the package.

The CLI maps these onto its exit codes: ParseError exits 2,
InternalConsistencyError exits 4, and every other FnDecompError (precondition,
argument, shape, domain, coverage and resource errors) exits 3.

MAX_CELLS is the one size budget, and ``charge`` the one check against it:
tables, calculus, oddsupport and identities each count what a call would
build, in its unit (cells, words, bits or binomial products), and hand the
count to ``charge``, which raises ResourceError past the budget and reads
MAX_CELLS at call time.  The width of a packed cell (packing.PACKED_BITS)
and the pair enumeration's cap (identities.PAIR_COUNT_MAX_M) are separate
limits.
"""


class FnDecompError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(FnDecompError, ValueError):
    """An element or value sequence has the wrong length for its group."""


class DomainError(FnDecompError, ValueError):
    """A tuple component or residue lies outside its allowed range."""


class ArgumentError(FnDecompError, ValueError):
    """Arguments are structurally invalid for the requested operation."""


class PreconditionError(FnDecompError, ValueError):
    """A documented operation precondition does not hold.

    ``witness`` optionally carries the concrete object that violates the
    precondition (e.g. a derivative witness refuting decomposability).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CoverageError(FnDecompError, LookupError):
    """A phi map was queried outside its declared key domain."""


class ResourceError(FnDecompError, ValueError):
    """The requested computation exceeds a documented size guardrail."""


# Cells one table, or one Taylor materialization in all, may allocate: about
# 32 MB of value codes as a tuple, and at most 16 MB as a packed table
# (packing.Packing takes at most four bytes per cell).  The mask words, the
# product bits and the binomial products of the other guards are held to
# the same number.
MAX_CELLS = 1 << 22


# characters of its input an error message may quote
EXCERPT = 40


def excerpt(text: str) -> str:
    """text itself when it has at most EXCERPT characters, else its first
    EXCERPT characters and '...'."""
    return text if len(text) <= EXCERPT else text[:EXCERPT] + "..."


def excerpt_int(n: int) -> str:
    """excerpt(str(n)) for an int of any size.  str() refuses more than
    4 300 digits, so the trailing digits of a long n are divided off first,
    keeping at least EXCERPT + 1 of them."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    # n has more than (bit_length - 1) * 0.30102 digits
    drop = (n.bit_length() - 1) * 30102 // 100000 - EXCERPT
    if drop > 0:
        n //= 10**drop
    return sign + excerpt(str(n))


def charge(count: int, unit: str, what: str, *numbers: int) -> None:
    """ResourceError "<what> exceeds the budget of MAX_CELLS <unit>" when
    count > MAX_CELLS.  what is a str.format template, a singular noun
    phrase, filled with excerpt_int of numbers on refusal only."""
    if count > MAX_CELLS:
        what = what.format(*map(excerpt_int, numbers))
        raise ResourceError(f"{what} exceeds the budget of {MAX_CELLS} {unit}")


class ParseError(FnDecompError, ValueError):
    """Malformed text input; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InternalConsistencyError(FnDecompError, RuntimeError):
    """A mathematically guaranteed invariant failed; this indicates a bug."""
