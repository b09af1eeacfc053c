"""Conserved energies and canonical right-hand sides of the epidemic flow.

Both charts carry the same first integral.  In the direct chart

    H(I, S) = beta*(I + S) - gamma*ln(S),

which is conserved by the ordinary-time flow and is the canonical
Hamiltonian of the rescaled-time flow: with ``J = [[0, 1], [-1, 0]]``,

    d(I, S)/dtau = J grad H.

In the logarithmic chart ``(i, s) = (ln I, ln S)`` the conserved quantity

    h(i, s) = beta*(exp(i) + exp(s)) - gamma*s

generates the flow in *ordinary* time with the same constant J, which is
what makes that chart attractive for structure-preserving stepping.

Both energies are separable, so their Hessians are diagonal and closed
form (``hessian_direct``, ``hessian_log``); every Newton Jacobian of the
implicit integrators is built from them.

The extended phase space doubles each chart with conjugate momenta.  The
price of the doubling is a constraint: momenta are not free but pinned to
the coordinates by ``C(Q, P) = Q + 2 J P = 0``.  The flow

    dQ = J grad H(Q),      dP = -(1/2) grad H(Q)

keeps C exactly constant, so a consistent start stays consistent; the
Lagrange multiplier enforcing this is ``-(1/2) grad H`` and is recomputed
on demand rather than stored.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Chart, EpidemicParams, ExtendedPhasePoint, apply_J
from .errors import (
    ConstraintViolation,
    NonFiniteInput,
    NonPositiveCoordinate,
    RhsDomainError,
    ScenarioError,
    SingularDenominator,
)

__all__ = [
    "consistent_momenta",
    "dirac_constraint",
    "dirac_multiplier",
    "extended_hamiltonian",
    "extended_rhs",
    "gradient_direct",
    "gradient_log",
    "hamilton_rhs_direct",
    "hamilton_rhs_log",
    "hamiltonian_direct",
    "hamiltonian_log",
    "hessian_direct",
    "hessian_log",
]

#: default ceiling on the constraint norm accepted by extended_rhs
DEFAULT_CONSTRAINT_TOL = 1e-9

#: looking a member up on its Enum class costs a descriptor call per stage
_DIRECT_CHART = Chart.DIRECT
_LOG_CHART = Chart.LOGARITHMIC


def _domain_error(z: tuple[float, float]) -> RhsDomainError:
    """Why a chart point failed the test of the rate evaluated there.

    A NaN or infinite coordinate comes first; a finite point fails only in
    the direct chart, at S = 0, where gamma/S is singular, or below it.
    """
    i, s = z
    if not (math.isfinite(i) and math.isfinite(s)):
        return NonFiniteInput(f"state must be finite, got {z}")
    if s == 0.0:
        return SingularDenominator("gamma/S undefined at S = 0")
    return NonPositiveCoordinate(f"susceptible fraction must be positive, got {s}")


# ---------------------------------------------------------------------------
# direct chart

def hamiltonian_direct(z: tuple, params: EpidemicParams) -> float | np.ndarray:
    """Conserved energy at ``z = (I, S)``, one state or a pair of sample
    columns elementwise, refused for any value that is not finite or any
    S <= 0.  A run's H column and its per-segment drifts call it."""
    i, s = z
    if not (np.all(np.isfinite(i)) and np.all(np.isfinite(s))):
        raise NonFiniteInput(f"state must be finite, got {z}")
    if np.any(s <= 0.0):
        raise NonPositiveCoordinate(f"ln(S) undefined for S = {s}")
    return params.beta * (i + s) - params.gamma * np.log(s)


def gradient_direct(
    z: tuple[float, float], params: EpidemicParams
) -> tuple[float, float]:
    """Gradient of the direct-chart energy, ``(beta, beta - gamma/S)``:
    ``-J`` applied to :func:`hamilton_rhs_direct`, exactly."""
    rate_i, rate_s = hamilton_rhs_direct(z, params)
    return (-rate_s, rate_i)


def hessian_direct(
    z: tuple[float, float], params: EpidemicParams
) -> tuple[float, float]:
    """Diagonal of the direct-chart energy's Hessian, ``(0, gamma/S**2)``.

    The energy is separable, so the off-diagonal entries vanish.  Defined
    where :func:`gradient_direct` is; callers evaluate that first.
    """
    s = z[1]
    return (0.0, params.gamma / (s * s))


def hamilton_rhs_direct(
    z: tuple[float, float], params: EpidemicParams
) -> tuple[float, float]:
    """Canonical rescaled-time rates ``J grad H`` at ``z = (I, S)``.

    The one place the chart's gradient and its domain test are written.
    """
    i, s = z
    if not (math.isfinite(i) and math.isfinite(s) and s > 0.0):
        raise _domain_error(z)
    beta = params.beta
    return (beta - params.gamma / s, -beta)


# ---------------------------------------------------------------------------
# logarithmic chart

def hamiltonian_log(z: tuple[float, float], params: EpidemicParams) -> float:
    """Conserved energy at ``z = (ln I, ln S)``; equals the direct-chart value."""
    li, ls = z
    if not (math.isfinite(li) and math.isfinite(ls)):
        raise NonFiniteInput(f"state must be finite, got {z}")
    return params.beta * (math.exp(li) + math.exp(ls)) - params.gamma * ls


def gradient_log(
    z: tuple[float, float], params: EpidemicParams
) -> tuple[float, float]:
    """Gradient of the log-chart energy, ``(beta*I, beta*S - gamma)``:
    ``-J`` applied to :func:`hamilton_rhs_log`, exactly."""
    rate_li, rate_ls = hamilton_rhs_log(z, params)
    return (-rate_ls, rate_li)


def hessian_log(
    z: tuple[float, float], params: EpidemicParams
) -> tuple[float, float]:
    """Diagonal of the log-chart energy's Hessian, ``(beta*I, beta*S)``.

    The energy is separable, so the off-diagonal entries vanish.
    """
    beta = params.beta
    return (beta * math.exp(z[0]), beta * math.exp(z[1]))


def hamilton_rhs_log(
    z: tuple[float, float], params: EpidemicParams
) -> tuple[float, float]:
    """Canonical ordinary-time rates ``J grad h`` at ``z = (ln I, ln S)``.

    The one place the chart's gradient and its domain test are written.
    """
    li, ls = z
    if not (math.isfinite(li) and math.isfinite(ls)):
        raise _domain_error(z)
    beta = params.beta
    return (beta * math.exp(ls) - params.gamma, -beta * math.exp(li))


def _chart_energy(chart: Chart) -> tuple:
    """The energy of ``chart`` and its gradient, ``(hamiltonian_*, gradient_*)``.

    The one place a chart picks its pair; any value that is not a
    :class:`Chart` member is refused.
    """
    if chart is _DIRECT_CHART:
        return hamiltonian_direct, gradient_direct
    if chart is _LOG_CHART:
        return hamiltonian_log, gradient_log
    raise ScenarioError(f"unknown chart {chart!r}")


# ---------------------------------------------------------------------------
# extended phase space

def consistent_momenta(coords: tuple[float, float]) -> tuple[float, float]:
    """Momenta pinned to the coordinates, ``P = (1/2) J Q``.

    Works in either chart; the degenerate structure is the same.
    """
    jq = apply_J(coords)
    return (0.5 * jq[0], 0.5 * jq[1])


def _constraint_residual(q0, q1, p0, p1) -> tuple:
    """``C = Q + 2 J P`` from its four components, floats or sample columns."""
    return (q0 + 2.0 * p1, q1 - 2.0 * p0)


def dirac_constraint(point: ExtendedPhasePoint) -> tuple[float, float]:
    """Constraint residual ``C = Q + 2 J P``; zero on the physical manifold."""
    return _constraint_residual(*point.coords, *point.momenta)


def dirac_multiplier(
    coords: tuple[float, float], params: EpidemicParams, chart: Chart
) -> tuple[float, float]:
    """Multiplier enforcing the constraint, ``-(1/2) grad H`` at the point."""
    g = _chart_energy(chart)[1](coords, params)
    return (-0.5 * g[0], -0.5 * g[1])


def extended_hamiltonian(
    point: ExtendedPhasePoint,
    multiplier: tuple[float, float],
    params: EpidemicParams,
) -> float:
    """Energy of the extended space, ``H(Q) + multiplier . C(Q, P)``.

    On the constraint manifold the second term vanishes and the value
    reduces to the chart energy.
    """
    h = _chart_energy(point.chart)[0](point.coords, params)
    c = dirac_constraint(point)
    return h + multiplier[0] * c[0] + multiplier[1] * c[1]


def _extended_rates(
    y: tuple[float, float, float, float],
    params: EpidemicParams,
    chart: Chart,
    constraint_tol: float,
) -> tuple[float, float, float, float]:
    """Rates for the flattened extended state ``(q0, q1, p0, p1)``, behind
    :func:`extended_rhs`: ``J grad H`` and ``-(1/2) grad H`` from the chart
    gradient.

    First refuses a state further than ``constraint_tol`` off C = 0.  Both
    residuals must be within the tolerance, so a NaN is refused; the norm
    reported is the larger residual, or NaN if either is NaN.  The march
    never calls this: an extended run marches its chart's coordinates.
    """
    c0, c1 = map(abs, _constraint_residual(*y))
    if not (c0 <= constraint_tol and c1 <= constraint_tol):
        norm = math.nan if math.isnan(c0) or math.isnan(c1) else max(c0, c1)
        raise ConstraintViolation(
            f"constraint norm {norm:.3e} exceeds "
            f"tolerance {constraint_tol:.3e} at coords {(y[0], y[1])}"
        )
    g0, g1 = _chart_energy(chart)[1]((y[0], y[1]), params)
    return (g1, -g0, -0.5 * g0, -0.5 * g1)


def extended_rhs(
    point: ExtendedPhasePoint,
    params: EpidemicParams,
    constraint_tol: float = DEFAULT_CONSTRAINT_TOL,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Extended-space rates ``(dQ, dP) = (J grad H, -(1/2) grad H)``.

    The coordinate block is closed in Q, and the momentum rate is J applied
    to the coordinate rate halved, so the constraint residual is constant
    along the flow.  Evaluation refuses points that have already drifted
    off the manifold further than ``constraint_tol``.
    """
    y = (*point.coords, *point.momenta)
    r = _extended_rates(y, params, point.chart, constraint_tol)
    return ((r[0], r[1]), (r[2], r[3]))
