"""Exception types shared across the package.

Numerical-failure exceptions all derive from CatGateError so callers (and the
command line driver) can distinguish them from programming errors.
"""

__all__ = [
    "CatGateError",
    "ConvergenceError",
    "GridCoverageError",
    "PhaseDomainError",
    "SingularShearError",
    "ZeroProbabilityError",
    "ZeroStateError",
]


class CatGateError(Exception):
    """Base class for runtime failures of the simulation routines."""


class ConvergenceError(CatGateError):
    """An adaptive integral did not reach its tolerance, or went non-finite."""


class GridCoverageError(CatGateError):
    """A grid does not cover the window a construction needs.

    The message names the required window so the caller can enlarge the grid.
    """


class PhaseDomainError(CatGateError):
    """Momentum-phase function evaluated outside the classically allowed band."""


class SingularShearError(CatGateError):
    """Taylor expansion requested at or beyond the turning point of the resource."""


class ZeroProbabilityError(CatGateError):
    """Homodyne outcome so unlikely that the conditional state is undefined."""


class ZeroStateError(CatGateError):
    """A state vanishes identically and cannot be normalized."""
