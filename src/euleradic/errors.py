"""Exception types and resource budgets shared across the package."""

#: Default cap on the number of cells a single table may hold.
DEFAULT_CELL_BUDGET = 10**7

#: Default cap on the number of paths an exhaustive operation may visit.
DEFAULT_ENUM_BUDGET = 10**7


class BudgetError(RuntimeError):
    """A computation was refused because it exceeds a configured resource budget."""


class PathValidationError(ValueError):
    """A step sequence does not describe a valid walk in the Euler graph."""


class DecodeError(ValueError):
    """An encoding sequence matches no path from the given base vertex."""


class MaximalPathError(Exception):
    """The successor map is undefined: the path is already maximal."""
