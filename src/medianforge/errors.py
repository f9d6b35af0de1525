"""Exception types shared across the package. Every package error but
SolverFailure is a ValueError, an input the package cannot use, and exits 2;
a SolverFailure exits 3."""


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
