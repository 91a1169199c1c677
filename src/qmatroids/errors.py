"""Shared exception types.

The CLI maps these onto exit codes: bad input documents or arguments
raise InputError (exit 2), computations that would exceed the
configured enumeration budget raise BudgetError (exit 3) instead of
silently grinding, and a failed internal consistency check raises
InvariantError (exit 4), never a false verdict.
"""


class InputError(ValueError):
    """Malformed or inconsistent input (documents, arguments, fields)."""


class BudgetError(RuntimeError):
    """The requested computation exceeds the configured budget."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, not a verdict."""
