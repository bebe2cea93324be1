"""Exception types shared across the package."""


class UlambdaError(Exception):
    """Base class for all package errors."""


class NearZeroConstantTerm(UlambdaError):
    """Reciprocal of a series whose constant term is (numerically) zero."""


class OutsideDisk(UlambdaError):
    """Evaluation point outside the allowed disk."""


class BasePointOutsideClosedDisk(UlambdaError, ValueError):
    """Moebius base point must satisfy |a| <= 1 (an invalid argument)."""


class ZeroOnOrOutsideBoundary(UlambdaError, ValueError):
    """Blaschke zeros must lie strictly inside the unit disk (an invalid argument)."""


class BasePointNotZero(UlambdaError):
    """A function required to fix the origin does not."""


class NotBoundaryMax(UlambdaError):
    """Boundary point is not a point of maximal modulus."""


class HypothesisViolated(UlambdaError):
    """A theorem hypothesis fails at the given input."""


class BranchPointSingularity(UlambdaError):
    """Evaluation at the logarithmic branch point."""


class NotContractive(UlambdaError):
    """Contraction estimate fails; fixed-point iteration not justified."""


class NoConvergence(UlambdaError):
    """Iteration did not converge within the cap."""


class OutOfRange(UlambdaError, ValueError):
    """Scalar argument outside its admissible interval (an invalid argument)."""


class ConfigError(UlambdaError):
    """Malformed experiment configuration."""
