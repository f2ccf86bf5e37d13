"""Exception types shared across the package.

The CLI maps these onto exit codes: InputError and DomainError exit 2,
ResourceLimitError exits 3, and a failed fixture claim exits 1.
"""


class OracleGamesError(Exception):
    """Base class for all package errors."""


class InputError(OracleGamesError):
    """Malformed file, label, or argument."""


class DomainError(OracleGamesError):
    """Operation applied outside its mathematical domain."""


class ResourceLimitError(OracleGamesError):
    """An enumeration exceeded its configured cap, or a number has too many
    digits to print."""
