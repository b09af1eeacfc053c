"""Right-hand sides of the epidemic flow that are not canonical flows.

The basic model for the infectious and susceptible fractions reads

    dI/dt = beta*S*I - gamma*I,      dS/dt = -beta*S*I,

with the recovered fraction closed by R = 1 - S - I; :func:`sir_rhs`
evaluates it.  The canonical reshapings of the same flow live in
:mod:`sirham.hamiltonian` only: the rescaled-clock rates
``dI/dtau = beta - gamma/S``, ``dS/dtau = -beta`` (with ``dtau = S*I dt``)
are ``hamilton_rhs_direct``, and the logarithmic-chart rates
``di/dt = beta*exp(s) - gamma``, ``ds/dt = -beta*exp(i)`` are
``hamilton_rhs_log``.  What remains here are the *second-order
reductions*: eliminating the partner variable gives one scalar equation
per chart, whose right-hand sides are the ``*_accel`` functions below.

All functions take plain float arguments and already-resolved
parameters, and are pure: schedule lookup happens in the caller.
"""

from __future__ import annotations

import math

from .core import EpidemicParams
from .errors import NonFiniteInput

__all__ = [
    "log_accel",
    "rescaled_accel",
    "sir_rhs",
]


def sir_rhs(
    state: tuple[float, float], params: EpidemicParams
) -> tuple[float, float]:
    """Ordinary-time rates ``(dI/dt, dS/dt)`` at ``state = (I, S)``."""
    i, s = state
    if not (math.isfinite(i) and math.isfinite(s)):
        raise NonFiniteInput(f"state must be finite, got {state}")
    flux = params.beta * s * i
    return (flux - params.gamma * i, -flux)


def rescaled_accel(i_rate: float, params: EpidemicParams) -> float:
    """Second derivative of I in rescaled time, given its first derivative.

    This is the right-hand side of the scalar reduction in the direct
    chart: the partner variable has been eliminated, so the acceleration
    depends on the rate alone.
    """
    if not math.isfinite(i_rate):
        raise NonFiniteInput(f"rate must be finite, got {i_rate}")
    beta = params.beta
    d = beta - i_rate
    # r0 spelled out: the property would cost a frame per stage
    return -(beta / params.gamma) * d * d


def log_accel(i_log: float, i_rate: float, params: EpidemicParams) -> float:
    """Second derivative of ln I in ordinary time: scalar reduction, log chart."""
    if not (math.isfinite(i_log) and math.isfinite(i_rate)):
        raise NonFiniteInput(f"inputs must be finite, got ({i_log}, {i_rate})")
    return -params.beta * math.exp(i_log) * (i_rate + params.gamma)
