"""Exception types shared across the package, and the scalar argument rules.
Every package error but SolverFailure is a ValueError, an input the package
cannot use, and exits 2; a SolverFailure exits 3."""

import numpy as np


class MedianForgeError(Exception):
    """Base class for all package-specific errors."""


class ZeroVector(MedianForgeError, ValueError):
    """Derivative of a norm requested at the origin, where only a subgradient set exists."""


class DimensionMismatch(MedianForgeError, ValueError):
    """Operands have incompatible dimensions."""


class NotSPD(MedianForgeError, ValueError):
    """Matrix is not symmetric positive definite."""


class AtVoterPoint(MedianForgeError, ValueError):
    """Loss derivative requested at (or numerically on top of) a voter's point."""


class DegenerateDimension(MedianForgeError, ValueError):
    """Profile spans an affine subspace of dimension <= 1; the operation needs dim >= 2."""


class MajorityAttack(MedianForgeError, ValueError):
    """Strategic voters are not a strict minority; the resilience bound is vacuous."""


class BracketFailure(MedianForgeError, ValueError):
    """Root bracketing failed: no sign change of the bracketed function was
    found, e.g. a gradient-norm level the loss never reaches along a ray."""


class SolverFailure(MedianForgeError):
    """Iterative solver did not reach the requested tolerance."""


def check_count(value, name: str, low: int = None) -> int:
    """A count: an int, numpy's too, or a float with no fraction; never a bool.
    Below low, if given, it is refused. A seed is a count with low 0."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) or
                                       isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    if low is not None and value < low:
        bound = "a nonnegative integer" if low == 0 else f">= {low}"
        raise ValueError(f"{name} must be {bound}, got {int(value)}")
    return int(value)


def check_number(value, name: str) -> float:
    """A number as a float: an int or a float, numpy's too; never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name}: {value!r} overflows a float") from None


def check_each(values, rule, name: str, *args) -> tuple:
    """rule(v, name, *args) for each item v of a list; a non-list is named."""
    try:
        return tuple(rule(v, name, *args) for v in values)
    except TypeError:  # the rules raise only ValueErrors
        raise ValueError(f"{name}: expected a list, got {values!r}") from None


def check_v_grid(values) -> tuple:
    """A V_grid: voter counts, each >= 1, non-empty and strictly ascending."""
    grid = check_each(values, check_count, "V_grid", 1)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"V_grid must be non-empty and strictly ascending, got {list(grid)}")
    return grid
