"""Exception types shared across the package."""


class MedianForgeError(Exception):
    """Base class for all package-specific errors."""


class ZeroVector(MedianForgeError):
    """Derivative of a norm requested at the origin, where only a subgradient set exists."""


class DimensionMismatch(MedianForgeError):
    """Operands have incompatible dimensions."""


class NotSPD(MedianForgeError):
    """Matrix is not symmetric positive definite."""


class AtVoterPoint(MedianForgeError):
    """Loss derivative requested at (or numerically on top of) a voter's point."""


class DegenerateDimension(MedianForgeError):
    """Profile spans an affine subspace of dimension <= 1; the operation needs dim >= 2."""


class MajorityAttack(MedianForgeError):
    """Strategic voters are not a strict minority; the resilience bound is vacuous."""


class BracketFailure(MedianForgeError):
    """Root bracketing failed: no sign change of the bracketed function was
    found, e.g. a gradient-norm level the loss never reaches along a ray."""


class SolverFailure(MedianForgeError):
    """Iterative solver did not reach the requested tolerance."""
