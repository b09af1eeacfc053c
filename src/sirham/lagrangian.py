"""Lagrangian side of the epidemic flow: minimal and extended state spaces.

Each chart admits a one-degree-of-freedom Lagrangian in the infectious
variable alone, obtained by eliminating the susceptible variable through a
Legendre transform.  The eliminated variable *is* the conjugate momentum:

* direct chart:  momentum  S(rate) = gamma / (beta - rate),  rate < beta;
* log chart:     momentum  s(rate) = ln((rate + gamma) / beta),  rate > -gamma.

In both cases the rate-derivative of the minimal Lagrangian equals that
momentum, the transforms invert each other on their open domains, and the
Euler-Lagrange equation reproduces the scalar second-order reduction of
the flow (``el_residual_*`` evaluates its left-hand side, zero on
solutions).

The extended state space instead keeps both chart coordinates and uses the
first-order Lagrangian

    L(Q, dQ) = (1/2) Q . J^T dQ - H(Q),

which is linear in the rates: its rate-gradient ``(1/2) J Q`` contains no
velocity at all.  That degeneracy is what produces the momentum constraint
of the extended Hamiltonian picture, and it is also why the discrete
variational midpoint scheme built from this Lagrangian collapses to a
one-step method (see ``integrators``).
"""

from __future__ import annotations

import math

from .core import Chart, EpidemicParams
from .dynamics import log_accel, rescaled_accel
from .errors import (
    NonFiniteInput,
    NonPositiveCoordinate,
    OutsideLegendreDomain,
    ScenarioError,
)
from .hamiltonian import _DIRECT_CHART, _LOG_CHART, _chart_energy, _domain_error

__all__ = [
    "el_residual_direct",
    "el_residual_log",
    "extended_lagrangian_gradients",
    "lagrangian_extended",
    "lagrangian_minimal_direct",
    "lagrangian_minimal_log",
    "legendre_check_minimal",
    "momentum_from_rate_direct",
    "momentum_from_rate_log",
    "rate_from_momentum_direct",
    "rate_from_momentum_log",
]


def _check_finite(**values: float) -> None:
    for name, x in values.items():
        if not math.isfinite(x):
            raise NonFiniteInput(f"{name} must be finite, got {x!r}")


# ---------------------------------------------------------------------------
# minimal state space, direct chart

def momentum_from_rate_direct(i_rate: float, params: EpidemicParams) -> float:
    """Susceptible fraction conjugate to an infectious rate, direct chart."""
    _check_finite(i_rate=i_rate)
    if i_rate >= params.beta:
        raise OutsideLegendreDomain(
            f"rate must satisfy rate < beta = {params.beta}, got {i_rate}"
        )
    return params.gamma / (params.beta - i_rate)


def rate_from_momentum_direct(s: float, params: EpidemicParams) -> float:
    """Infectious rate generated by a susceptible fraction, direct chart."""
    _check_finite(s=s)
    if s <= 0.0:
        raise NonPositiveCoordinate(f"susceptible fraction must be positive, got {s}")
    return params.beta - params.gamma / s


def lagrangian_minimal_direct(
    i_value: float, i_rate: float, params: EpidemicParams
) -> float:
    """Minimal-chart Lagrangian ``L(I, dI/dtau)`` for the rescaled flow."""
    _check_finite(i_value=i_value)
    s = momentum_from_rate_direct(i_rate, params)
    return (
        -params.beta * i_value
        - params.gamma
        + params.gamma * math.log(s)
    )


def el_residual_direct(
    i_rate: float, i_accel: float, params: EpidemicParams
) -> float:
    """Euler-Lagrange residual of the direct-chart reduction.

    Zero exactly when ``accel = -r0*(beta - rate)**2``; the infectious
    value itself drops out of the stationarity condition.
    """
    _check_finite(i_rate=i_rate, i_accel=i_accel)
    return i_accel - rescaled_accel(i_rate, params)


# ---------------------------------------------------------------------------
# minimal state space, logarithmic chart

def momentum_from_rate_log(i_rate: float, params: EpidemicParams) -> float:
    """Log-susceptible conjugate to a log-infectious rate."""
    _check_finite(i_rate=i_rate)
    if i_rate <= -params.gamma:
        raise OutsideLegendreDomain(
            f"rate must satisfy rate > -gamma = {-params.gamma}, got {i_rate}"
        )
    return math.log((i_rate + params.gamma) / params.beta)


def rate_from_momentum_log(s_log: float, params: EpidemicParams) -> float:
    """Log-infectious rate generated by a log-susceptible value."""
    _check_finite(s_log=s_log)
    return params.beta * math.exp(s_log) - params.gamma


def lagrangian_minimal_log(
    i_log: float, i_rate: float, params: EpidemicParams
) -> float:
    """Minimal-chart Lagrangian ``l(ln I, d(ln I)/dt)`` in ordinary time.

    Its rate-derivative is exactly ``momentum_from_rate_log``, which the
    tests verify by finite differences.
    """
    _check_finite(i_log=i_log)
    s_log = momentum_from_rate_log(i_rate, params)
    return -params.beta * math.exp(i_log) - (i_rate + params.gamma) * (1.0 - s_log)


def el_residual_log(
    i_log: float, i_rate: float, i_accel: float, params: EpidemicParams
) -> float:
    """Euler-Lagrange residual of the log-chart reduction."""
    _check_finite(i_log=i_log, i_rate=i_rate, i_accel=i_accel)
    return i_accel - log_accel(i_log, i_rate, params)


def legendre_check_minimal(
    rate: float, momentum: float, params: EpidemicParams, chart: Chart
) -> float:
    """Absolute defect of the rate/momentum pairing in the given chart.

    Zero means the pair sits on the graph of the Legendre transform.
    """
    if chart is Chart.DIRECT:
        return abs(rate - rate_from_momentum_direct(momentum, params))
    if chart is Chart.LOGARITHMIC:
        return abs(rate - rate_from_momentum_log(momentum, params))
    raise ScenarioError(f"unknown chart {chart!r}")


# ---------------------------------------------------------------------------
# extended state space (both charts)

def lagrangian_extended(
    coords: tuple[float, float],
    rates: tuple[float, float],
    params: EpidemicParams,
    chart: Chart,
) -> float:
    """First-order Lagrangian ``(1/2) Q . J^T dQ - H(Q)`` of the given chart."""
    q0, q1 = coords
    r0, r1 = rates
    _check_finite(q0=q0, q1=q1, r0=r0, r1=r1)
    skew = 0.5 * (q1 * r0 - q0 * r1)
    return skew - _chart_energy(chart)[0](coords, params)


def extended_lagrangian_gradients(
    coords: tuple[float, float],
    rates: tuple[float, float],
    params: EpidemicParams,
    chart: Chart,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Analytic partials ``(dL/dQ, dL/d(dQ))`` of the extended Lagrangian.

    The rate block ``(1/2) J Q`` is independent of the rates: the
    Lagrangian is degenerate, and this pair of gradients is all the
    discrete variational scheme needs.  The variational step calls this
    once per Newton residual, so the chart gradient, with the tests of
    ``gradient_*``, is computed here in one frame rather than looked up.
    """
    q0, q1 = coords
    r0, r1 = rates
    beta = params.beta
    if chart is _DIRECT_CHART:
        if not (math.isfinite(q0) and math.isfinite(q1) and q1 > 0.0):
            raise _domain_error(coords)
        g0, g1 = beta, beta - params.gamma / q1
    elif chart is _LOG_CHART:
        if not (math.isfinite(q0) and math.isfinite(q1)):
            raise _domain_error(coords)
        g0, g1 = beta * math.exp(q0), beta * math.exp(q1) - params.gamma
    else:
        raise ScenarioError(f"unknown chart {chart!r}")
    # d/dQ of the skew term is (1/2) J^T dQ = -(1/2) J dQ, and J (a, b) = (b, -a)
    return (-0.5 * r1 - g0, 0.5 * r0 - g1), (0.5 * q1, -0.5 * q0)
