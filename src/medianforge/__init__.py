"""medianforge: geometric-median vote aggregation and manipulability analysis."""

from .errors import (
    AtVoterPoint,
    BracketFailure,
    DegenerateDimension,
    DimensionMismatch,
    MajorityAttack,
    MedianForgeError,
    NotSPD,
    SolverFailure,
    ZeroVector,
)
from .profiles import WeightedProfile, uniform_profile
from .solvers import (
    MedianResult,
    average,
    coordinatewise_median,
    geometric_median,
    loss_eval,
    loss_gradient,
    loss_hessian,
    loss_third_deriv,
    skewed_geometric_median,
)
from .vectorcalc import lp_gradient

__version__ = "0.1.0"

__all__ = [
    "AtVoterPoint",
    "BracketFailure",
    "DegenerateDimension",
    "DimensionMismatch",
    "MajorityAttack",
    "MedianForgeError",
    "MedianResult",
    "NotSPD",
    "SolverFailure",
    "WeightedProfile",
    "ZeroVector",
    "__version__",
    "average",
    "coordinatewise_median",
    "geometric_median",
    "loss_eval",
    "loss_gradient",
    "loss_hessian",
    "loss_third_deriv",
    "lp_gradient",
    "skewed_geometric_median",
    "uniform_profile",
]
