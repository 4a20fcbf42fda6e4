"""Exception types shared across the package."""


class AbsFefError(Exception):
    """Base class for all package errors."""


class MatrixShapeError(AbsFefError):
    """Operands have incompatible or unexpected shapes."""


class DensityValidationError(AbsFefError):
    """A matrix failed a density-matrix invariant.

    Attributes
    ----------
    invariant : str
        Name of the violated invariant ("finiteness", "hermiticity", "trace",
        "positivity").
    magnitude : float
        Size of the violation.
    """

    def __init__(self, invariant, magnitude, message=None):
        self.invariant = invariant
        self.magnitude = magnitude
        if message is None:
            message = f"{invariant} violation of magnitude {magnitude:.3e}"
        super().__init__(message)


class DomainError(AbsFefError):
    """A parameter lies outside the validity domain of a state family."""
