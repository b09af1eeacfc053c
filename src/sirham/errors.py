"""Exception types raised by the simulation library.

The hierarchy separates three failure families so that callers (and the
command-line front end) can map them onto distinct outcomes:

* ``ScenarioError``   -- bad configuration, rejected before any stepping.
* ``RhsDomainError``  -- a model evaluation was asked for a point outside
  the chart it is defined on.  These are raised eagerly rather than letting
  NaNs propagate.
* numerical failures -- the run itself broke down (``NewtonDivergence``,
  ``StepAcrossSingularity``, ``ConstraintViolation``).
"""

from __future__ import annotations

__all__ = [
    "ConstraintViolation",
    "InvalidFractions",
    "MissingDiagnostic",
    "NewtonDivergence",
    "NoEpidemic",
    "NonFiniteInput",
    "NonPositiveCoordinate",
    "OutsideLegendreDomain",
    "RhsDomainError",
    "ScenarioError",
    "SingularDenominator",
    "SirhamError",
    "StepAcrossSingularity",
]


class SirhamError(Exception):
    """Base class for everything this package raises deliberately."""


class ScenarioError(SirhamError):
    """A scenario file or run configuration is malformed or unsupported."""


class RhsDomainError(SirhamError, ValueError):
    """A right-hand side or energy evaluation left its domain of validity."""


class NonFiniteInput(RhsDomainError):
    """An input coordinate or parameter was NaN or infinite."""


class NonPositiveCoordinate(RhsDomainError):
    """A coordinate that must be strictly positive was zero or negative.

    Raised by the logarithmic chart transforms and by direct-chart energy
    evaluations, which need ``ln S``.  Exact zeros are rejected, never
    silently floored.
    """


class InvalidFractions(RhsDomainError):
    """Compartment fractions outside [0, 1] or not summing to one."""


class SingularDenominator(RhsDomainError):
    """A denominator in a model expression vanished (for example gamma / S)."""


class OutsideLegendreDomain(RhsDomainError):
    """A rate was outside the open domain of the Legendre transform."""


class NoEpidemic(SirhamError, ValueError):
    """An outbreak-only diagnostic was requested for a subcritical state."""


class NewtonDivergence(SirhamError, RuntimeError):
    """The Newton iteration inside an implicit step failed to converge."""


class StepAcrossSingularity(SirhamError, RuntimeError):
    """A rescaled-time run reached the S*I -> 0 singularity of the time map."""


class ConstraintViolation(SirhamError, RuntimeError):
    """An extended-phase-space state drifted off the constraint manifold."""


class MissingDiagnostic(SirhamError, ValueError):
    """A diagnostic was asked for data the trajectory does not carry."""
