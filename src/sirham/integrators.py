"""Fixed-step time integrators and the trajectory march.

All steppers advance one step of an autonomous system given as a callable
on plain float tuples.  They realise the one-parameter update family

    y_next = y + dt * f(y_alpha),    y_alpha = (1 - alpha) y + alpha y_next,

at alpha = 0 (explicit Euler), alpha = 1/2 (implicit midpoint and its
variational and Galerkin relatives), and a per-component mix of 0 and 1
(symplectic Euler); classical RK4 is the reference non-conservative
high-order scheme.  Each scheme is written once: the implicit midpoint
rule is the one-stage Gauss collocation method, so the Galerkin step
takes the two-point Gauss rule only.  Implicit equations are solved by
Newton iteration from an explicit-Euler predictor, with the exact Jacobian
each scheme assembles from the analytic Jacobian of the rhs.
:func:`_newton` is the one Newton loop: it iterates a 2-d unknown on
scalar locals and solves each update by 2x2 elimination; symplectic
Euler's 1-d momentum equation is posed to it padded to two.

Only what is implicit is solved.  Symplectic Euler is explicit wherever
the momentum rate does not read the momenta (the separable canonical
charts), so Newton runs only on ``basic_t`` and the ``single_ode_*``
reductions.  The constraint ``C = Q + 2 J P = 0`` pins an extended run's
momenta to its coordinates, so its record is its chart's canonical one: the
march steps the 2-d coordinates as a ``rescaled_tau`` or ``log_t`` run does,
and the trajectory build appends the momenta ``(1/2) J Q``.  Every step
function steps 2-d states, and no step reads or checks the constraint.

:func:`integrate` marches a :class:`RunSpec` over a parameter schedule and
returns a :class:`Trajectory` carrying both clocks (ordinary time t and
the intrinsic epidemic clock tau with d(tau) = S*I dt), the compartment
fractions, and the conserved energy at every sample.  Runs whose native
clock is tau obtain the ordinary-time column by trapezoidal accumulation
of 1/(S*I) during the march; :func:`reconstruct_ordinary_time` performs
the same quadrature on an existing trajectory's samples.

Each :class:`Formulation` is defined in one place, its private record in
``_RECORDS``: initial state, rhs and rhs-Jacobian lookups, S*I dilation,
map from sampled coordinates to (I, S), and state remap at a parameter
switch.  The march and the trajectory build read only the record and name
no formulation.

Every rate and Jacobian is called ``f(y, params)``, and a step scheme
``step(rhs[, jac], params, y, dt)`` hands each call the parameters of the
active segment.  The rhs kernels, the chart Hessians of the Jacobians and
the step scheme are looked up by name once per parameter segment, when
:func:`_make_stepper` builds that segment's stepper, and are bound into it;
a wrapper put in their place before :func:`integrate` is called sees every
step and every stage.  An explicit stage is one flat kernel call, and on
the ``single_ode_*`` reductions that call goes through the record's
closure.  Every step works on scalar locals, the implicit ones building
their residual and Jacobian there too, with the arithmetic, in the same
order, of the zip and tuple bodies the kernel tests keep as their
references.

The march keeps each sample as six numbers in one flat list, own clock,
other clock, segment, step and the two state components, which
:func:`_build_trajectory` converts to one float array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import dynamics, hamiltonian, lagrangian
from .core import (
    FRACTION_TOL,
    Chart,
    CompartmentState,
    EpidemicParams,
    ParamSchedule,
    PhasePoint2,
    _require_int,
    _require_real,
    to_log,
)
from .errors import (
    InvalidFractions,
    MissingDiagnostic,
    NewtonDivergence,
    NonFiniteInput,
    NonPositiveCoordinate,
    OutsideLegendreDomain,
    RhsDomainError,
    ScenarioError,
    StepAcrossSingularity,
)

#: what the package re-exports; the one-step schemes ``step_*`` are
#: imported from this module by name
__all__ = [
    "Formulation",
    "Method",
    "RunSpec",
    "Trajectory",
    "integrate",
    "reconstruct_ordinary_time",
]

#: the rates at a state, with the parameters of the active segment
Rhs = Callable[[tuple, EpidemicParams], tuple]
#: the Jacobian of an Rhs at a state, as a tuple of rows
Jac = Callable[[tuple, EpidemicParams], tuple]

#: a rescaled-clock run refuses to start below this dilation
START_DILATION_FLOOR = 1e-10
#: and aborts once the dilation falls below this during the march
RUN_DILATION_FLOOR = 1e-14
#: the most steps a run may ask for: beyond, the clock (k + 1) * dt of the
#: march no longer tells consecutive step indices k apart
MAX_STEPS = 2.0**53
#: the defaults of every Newton solve: both residuals within NEWTON_TOL, in
#: at most NEWTON_MAX_ITER updates
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50

_GAUSS2_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
#: the stages of the Galerkin step: node sigma, 1 - sigma, weight w and w * sigma
_CG1_STAGES = tuple((sigma, 1.0 - sigma, 0.5, 0.5 * sigma) for sigma in _GAUSS2_NODES)


class Method(Enum):
    """Stepping scheme, with its formal order."""

    def __new__(cls, label: str, order: int):
        obj = object.__new__(cls)
        obj._value_ = label
        obj.order = order
        return obj

    EXPLICIT_EULER = ("explicit_euler", 1)
    RK4 = ("rk4", 4)
    SYMPLECTIC_EULER = ("symplectic_euler", 1)
    IMPLICIT_MIDPOINT = ("implicit_midpoint", 2)
    VARIATIONAL_MIDPOINT = ("variational_midpoint", 2)
    TIME_FE_CG1_GAUSS2 = ("time_fe_cg1_gauss2", 2)


class Formulation(Enum):
    """Which face of the model is integrated, in which clock and chart."""

    def __new__(cls, label: str, clock: str, chart: Chart, dim: int):
        obj = object.__new__(cls)
        obj._value_ = label
        obj.clock = clock
        obj.chart = chart
        obj.dim = dim
        return obj

    #: (I, S) in ordinary time; the plain model
    BASIC_T = ("basic_t", "t", Chart.DIRECT, 2)
    #: (I, S) in the intrinsic clock; canonical Hamiltonian flow
    RESCALED_TAU = ("rescaled_tau", "tau", Chart.DIRECT, 2)
    #: (ln I, ln S) in ordinary time; canonical with constant J
    LOG_T = ("log_t", "t", Chart.LOGARITHMIC, 2)
    #: (I, dI/dtau): scalar second-order reduction, direct chart
    SINGLE_ODE_DIRECT = ("single_ode_direct", "tau", Chart.DIRECT, 2)
    #: (ln I, d ln I/dt): scalar second-order reduction, log chart
    SINGLE_ODE_LOG = ("single_ode_log", "t", Chart.LOGARITHMIC, 2)
    #: coordinates plus constrained momenta, direct chart
    EXTENDED_4D_DIRECT = ("extended_4d_direct", "tau", Chart.DIRECT, 4)
    #: coordinates plus constrained momenta, log chart
    EXTENDED_4D_LOG = ("extended_4d_log", "t", Chart.LOGARITHMIC, 4)


class _Record(NamedTuple):
    """What the march knows about one formulation.

    ``start(i0, s0, params)`` is the initial state; ``rhs()`` looks up the
    rates ``f(y, params)`` and ``jac()`` their exact Jacobian, which the
    implicit schemes' Newton solves use.  Both lookups run once per
    parameter segment, and the step scheme hands each call the segment's
    parameters, so an explicit stage is one call of the kernel itself
    (one closure and its kernel on the ``single_ode_*`` reductions).
    ``dilation(y, params)`` is S*I, the rate of the intrinsic
    clock, and ``fractions(coords, beta, gamma)`` maps sampled coordinates to
    the (I, S) columns.  ``remap(y, old, new)`` carries the state across a
    parameter switch: the chart point is continuous, so only reductions
    that carry a parameter-dependent rate as state need more than the
    identity.  ``separable`` says that the rate of the second half of the
    state (the momenta) does not depend on that half, which makes
    symplectic Euler explicit.  An extended formulation has no record of
    its own: it is its chart's canonical record, whose 2-d state holds all
    an extended run carries, since the constraint pins the momenta.
    """

    start: Callable[[float, float, EpidemicParams], tuple]
    rhs: Callable[[], Rhs]
    jac: Callable[[], Jac]
    dilation: Callable[[tuple, EpidemicParams], float]
    fractions: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]
    remap: Callable[[tuple, EpidemicParams, EpidemicParams], tuple] = lambda y, old, new: y
    separable: bool = False


def _log_start(i0: float, s0: float, params: EpidemicParams) -> tuple:
    z = to_log(PhasePoint2(i0, s0, Chart.DIRECT))
    return (z.q, z.p)


def _canonical_jac(hessian: Callable[[tuple, EpidemicParams], tuple]) -> Jac:
    """``J Hess``: the Jacobian of ``J grad H`` for a diagonal Hessian, from
    a ``hessian`` the caller looked up once.  A call costs this closure's
    frame and the Hessian's."""

    def jac(y: tuple, params: EpidemicParams) -> tuple:
        h0, h1 = hessian(y, params)
        return ((0.0, h1), (-h0, 0.0))

    return jac


#: the canonical flow of each chart; the other formulations reuse its pieces.
#: The energy is separable, so the second rate, -dH/dq0, reads only q0.
_DIRECT = _Record(
    start=lambda i0, s0, params: (i0, s0),
    rhs=lambda: hamiltonian.hamilton_rhs_direct,
    jac=lambda: _canonical_jac(hamiltonian.hessian_direct),
    dilation=lambda y, params: y[0] * y[1],
    fractions=lambda coords, beta, gamma: (coords[:, 0], coords[:, 1]),
    separable=True,
)
_LOG = _Record(
    start=_log_start,
    rhs=lambda: hamiltonian.hamilton_rhs_log,
    jac=lambda: _canonical_jac(hamiltonian.hessian_log),
    dilation=lambda y, params: math.exp(y[0] + y[1]),
    fractions=lambda coords, beta, gamma: (np.exp(coords[:, 0]), np.exp(coords[:, 1])),
    separable=True,
)


def _single_ode(
    base: _Record, to_rate, to_momentum, rhs, jac, dilation, fractions
) -> _Record:
    """Scalar reduction: the chart's S slot carries the rate of I instead."""

    def start(i0: float, s0: float, params: EpidemicParams) -> tuple:
        q, p = base.start(i0, s0, params)
        return (q, to_rate(p, params))

    def remap(y: tuple, old: EpidemicParams, new: EpidemicParams) -> tuple:
        return (y[0], to_rate(to_momentum(y[1], old), new))

    return _Record(start, rhs, jac, dilation, fractions, remap)


def _rate_rhs_direct() -> Rhs:
    accel = dynamics.rescaled_accel
    return lambda y, params: (y[1], accel(y[1], params))


def _rate_rhs_log() -> Rhs:
    accel = dynamics.log_accel
    return lambda y, params: (y[1], accel(y[0], y[1], params))


def _rate_dilation_direct(y: tuple, params: EpidemicParams) -> float:
    beta = params.beta
    if y[1] >= beta:
        raise OutsideLegendreDomain(
            f"rate {y[1]} reached beta = {beta}; susceptible fraction undefined"
        )
    return y[0] * params.gamma / (beta - y[1])


def _rate_dilation_log(y: tuple, params: EpidemicParams) -> float:
    gamma = params.gamma
    if y[1] <= -gamma:
        raise OutsideLegendreDomain(
            f"rate {y[1]} reached -gamma = {-gamma}; susceptible fraction undefined"
        )
    return math.exp(y[0]) * (y[1] + gamma) / params.beta


#: the one place each formulation is defined; the march reads only this
_RECORDS = {
    Formulation.BASIC_T: _DIRECT._replace(
        rhs=lambda: dynamics.sir_rhs,
        jac=lambda: lambda y, params: (
            (params.beta * y[1] - params.gamma, params.beta * y[0]),
            (-params.beta * y[1], -params.beta * y[0]),
        ),
        separable=False,
    ),
    Formulation.RESCALED_TAU: _DIRECT,
    Formulation.LOG_T: _LOG,
    Formulation.SINGLE_ODE_DIRECT: _single_ode(
        _DIRECT,
        lagrangian.rate_from_momentum_direct,
        lagrangian.momentum_from_rate_direct,
        _rate_rhs_direct,
        lambda: lambda y, params: ((0.0, 1.0), (0.0, 2.0 * params.r0 * (params.beta - y[1]))),
        _rate_dilation_direct,
        lambda coords, beta, gamma: (coords[:, 0], gamma / (beta - coords[:, 1])),
    ),
    Formulation.SINGLE_ODE_LOG: _single_ode(
        _LOG,
        lagrangian.rate_from_momentum_log,
        lagrangian.momentum_from_rate_log,
        _rate_rhs_log,
        lambda: lambda y, params: (
            (0.0, 1.0),
            (-params.beta * math.exp(y[0]) * (y[1] + params.gamma), -params.beta * math.exp(y[0])),
        ),
        _rate_dilation_log,
        lambda coords, beta, gamma: (np.exp(coords[:, 0]), (coords[:, 1] + gamma) / beta),
    ),
    Formulation.EXTENDED_4D_DIRECT: _DIRECT,
    Formulation.EXTENDED_4D_LOG: _LOG,
}


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one integration run.

    ``dt`` and ``t_end`` are measured in the formulation's own clock
    (ordinary time or the intrinsic epidemic clock).  ``sample_stride``
    keeps every n-th step in the trajectory, and the last step of every
    parameter segment, the run's final state among them, is always kept;
    clock accumulation still uses every step.  ``label`` names the run in
    file names and the manifest, so it must be printable: no tab, newline
    or other control character.  ``extended_mode`` ("direct4d" or
    "reconstruct") is validated and kept, so that scenario files that set
    it still parse, but the march does not read it: a 4-d run in either
    mode marches exactly as the chart's ``rescaled_tau`` or ``log_t`` run
    does, and its trajectory appends the momenta the constraint pins to the
    coordinates, so both modes give one trajectory.  The one method a
    formulation refuses is ``variational_midpoint``, which steps only those
    two canonical charts.
    """

    method: Method
    formulation: Formulation
    dt: float
    t_end: float
    label: str | None = None
    sample_stride: int = 1
    extended_mode: str = "direct4d"
    newton_tol: float = NEWTON_TOL
    newton_max_iter: int = NEWTON_MAX_ITER

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", Method(self.method))
        object.__setattr__(self, "formulation", Formulation(self.formulation))
        for name in ("dt", "t_end", "newton_tol"):
            object.__setattr__(self, name, _require_real(name, getattr(self, name)))
        for name in ("sample_stride", "newton_max_iter"):
            object.__setattr__(self, name, _require_int(name, getattr(self, name)))
        if self.label is not None and not isinstance(self.label, str):
            raise ScenarioError(f"label must be a string, got {self.label!r}")
        if self.label is not None and not self.label.isprintable():
            raise ScenarioError(f"label must be printable, got {self.label!r}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ScenarioError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ScenarioError(f"t_end must be non-negative, got {self.t_end}")
        if self.sample_stride < 1:
            raise ScenarioError(f"sample_stride must be >= 1, got {self.sample_stride}")
        if self.extended_mode not in ("direct4d", "reconstruct"):
            raise ScenarioError(
                f"extended_mode must be 'direct4d' or 'reconstruct', got {self.extended_mode!r}"
            )
        if not (self.newton_tol > 0.0 and math.isfinite(self.newton_tol)):
            raise ScenarioError(f"newton_tol must be positive, got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise ScenarioError("newton_max_iter must be >= 1")
        if self.method is Method.VARIATIONAL_MIDPOINT and self.formulation not in (
            Formulation.RESCALED_TAU,
            Formulation.LOG_T,
        ):
            raise ScenarioError(
                "variational midpoint steps the 2-d canonical charts only "
                f"(rescaled_tau or log_t), not {self.formulation.value}"
            )
        if not self.t_end / self.dt <= MAX_STEPS:
            raise ScenarioError(
                f"dt = {self.dt!r} asks for t_end / dt = {self.t_end / self.dt:.3e} "
                f"steps; the march counts at most 2**53"
            )

    @property
    def name(self) -> str:
        return self.label or f"{self.formulation.value}-{self.method.value}"


@dataclass
class Trajectory:
    """Sampled run: both clocks, fractions, energy, and raw chart state.

    ``coords`` holds the integrated variables, one row per sample, and on
    an extended formulation the momenta the constraint pins to them (2 or 4
    columns); ``s``, ``i``, ``r`` are the compartment fractions recovered
    from them, and ``h`` the conserved energy evaluated with the parameters
    active at each sample.
    ``chart`` and ``clock`` are the formulation's.
    """

    formulation: Formulation
    t: np.ndarray
    tau: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    h: np.ndarray
    coords: np.ndarray
    schedule: ParamSchedule
    spec: RunSpec | None = None

    @property
    def chart(self) -> Chart:
        return self.formulation.chart

    @property
    def clock(self) -> str:
        return self.formulation.clock

    @property
    def n_samples(self) -> int:
        return len(self.t)


# ---------------------------------------------------------------------------
# Newton iteration for the implicit schemes

def _solve2(a00, a01, a10, a11, b0, b1) -> tuple:
    """Solve the 2x2 Newton system ``a x = b`` by elimination with partial
    pivoting; ``a`` is given row by row, as :func:`_newton`'s Jacobian
    returns it.  A zero pivot refuses the system as singular."""
    if abs(a10) > abs(a00):
        a00, a01, b0, a10, a11, b1 = a10, a11, b1, a00, a01, b0
    if a00 == 0.0:
        raise NewtonDivergence("singular Jacobian in Newton iteration: zero pivot")
    m = a10 / a00
    u11 = a11 - m * a01
    if u11 == 0.0:
        raise NewtonDivergence("singular Jacobian in Newton iteration: zero pivot")
    x1 = (b1 - m * b0) / u11
    return ((b0 - a01 * x1) / a00, x1)


def _newton(
    residual: Callable[[float, float], tuple],
    jacobian: Callable[[float, float], tuple],
    u0: float,
    u1: float,
    tol: float,
    max_iter: int,
    width: int = 2,
) -> tuple:
    """Solve ``residual(u0, u1) = (0, 0)`` by Newton iteration from ``(u0, u1)``.

    ``jacobian(u0, u1)`` returns the residual's Jacobian row by row, ``(a00,
    a01, a10, a11)``; each update is one :func:`_solve2`.  The iterate is
    converged once both residuals are within ``tol``, so a NaN in either
    is not.  A 1-d equation in ``u1`` is posed with ``width=1`` and padded
    in front by ``u0 = 0``, started at 0.0: residual ``u0`` and Jacobian row
    ``(1, 0)``, so ``u0`` stays 0.0, each update is ``r1 / a11`` and a
    refusal reports the iterate as ``(u1,)``.
    """
    r0, r1 = residual(u0, u1)
    for _ in range(max_iter):
        if abs(r0) <= tol and abs(r1) <= tol:
            return u0, u1
        a00, a01, a10, a11 = jacobian(u0, u1)
        x0, x1 = _solve2(a00, a01, a10, a11, r0, r1)
        u0 -= x0
        u1 -= x1
        if not (math.isfinite(u0) and math.isfinite(u1)):
            raise NewtonDivergence(
                f"Newton iterate left the finite range: {(u0, u1)[2 - width:]}"
            )
        r0, r1 = residual(u0, u1)
    if abs(r0) <= tol and abs(r1) <= tol:
        return u0, u1
    norm = math.nan if math.isnan(r0) or math.isnan(r1) else max(abs(r0), abs(r1))
    raise NewtonDivergence(
        f"no convergence after {max_iter} iterations, residual norm {norm:.3e}"
    )


# ---------------------------------------------------------------------------
# one-step schemes

def step_explicit_euler(rhs: Rhs, params: EpidemicParams, y: tuple, dt: float) -> tuple:
    """Forward Euler on a 2-d state: first order, conserves nothing; the
    baseline."""
    f0, f1 = rhs(y, params)
    return (y[0] + dt * f0, y[1] + dt * f1)


def step_rk4(rhs: Rhs, params: EpidemicParams, y: tuple, dt: float) -> tuple:
    """Classical fourth-order Runge-Kutta step of a 2-d state."""
    half = 0.5 * dt
    y0, y1 = y
    a0, a1 = rhs(y, params)
    b0, b1 = rhs((y0 + half * a0, y1 + half * a1), params)
    c0, c1 = rhs((y0 + half * b0, y1 + half * b1), params)
    d0, d1 = rhs((y0 + dt * c0, y1 + dt * c1), params)
    sixth = dt / 6.0
    return (
        y0 + sixth * (a0 + 2.0 * (b0 + c0) + d0),
        y1 + sixth * (a1 + 2.0 * (b1 + c1) + d1),
    )


def step_symplectic_euler(
    rhs: Rhs,
    jac: Jac,
    params: EpidemicParams,
    y: tuple,
    dt: float,
    *,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
    separable: bool = False,
) -> tuple:
    """Mixed-endpoint Euler on a state split into (coordinates, momenta).

    The first half of the state advances explicitly with the old second
    half; the second half then advances with the updated first half.  With
    ``separable`` set the momentum rate does not read the momenta, as on
    the canonical charts of the separable energy, and that update is
    explicit too: two rhs evaluations and no solve.  Otherwise it is an
    implicit equation, as on ``basic_t`` (dS/dt = -beta*S*I) and both
    ``single_ode_*`` reductions, solved by Newton with the momentum block
    of ``jac``.  First order; symplectic on the canonical charts.

    Steps a 2-d state on scalar locals; the momentum equation is the 1-d
    Newton solve.
    """
    y0, y1 = y
    f0, f1 = rhs(y, params)
    q = y0 + dt * f0
    if separable:
        return (q, y1 + dt * rhs((q, y1), params)[1])

    def residual(pad: float, p: float) -> tuple:
        return (pad, p - y1 - dt * rhs((q, p), params)[1])

    def jacobian(pad: float, p: float) -> tuple:
        return (1.0, 0.0, 0.0, 1.0 - dt * jac((q, p), params)[1][1])

    return (q, _newton(residual, jacobian, 0.0, y1 + dt * f1, tol, max_iter, width=1)[1])


def step_implicit_midpoint(
    rhs: Rhs,
    jac: Jac,
    params: EpidemicParams,
    y: tuple,
    dt: float,
    *,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
) -> tuple:
    """Implicit midpoint rule: second order, symplectic with constant J.

    Steps a 2-d state, from the explicit-Euler predictor.
    """
    y0, y1 = y
    c = 0.5 * dt

    def residual(u0: float, u1: float) -> tuple:
        f0, f1 = rhs((0.5 * (y0 + u0), 0.5 * (y1 + u1)), params)
        return (u0 - y0 - dt * f0, u1 - y1 - dt * f1)

    def jacobian(u0: float, u1: float) -> tuple:
        (d00, d01), (d10, d11) = jac((0.5 * (y0 + u0), 0.5 * (y1 + u1)), params)
        return (1.0 - c * d00, -c * d01, -c * d10, 1.0 - c * d11)

    f0, f1 = rhs(y, params)
    return _newton(residual, jacobian, y0 + dt * f0, y1 + dt * f1, tol, max_iter)


def step_variational_midpoint(
    rhs: Rhs,
    jac: Jac,
    params: EpidemicParams,
    y: tuple,
    dt: float,
    *,
    chart: Chart,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
) -> tuple:
    """Discrete variational step from the extended first-order Lagrangian.

    The discrete Lagrangian is the midpoint quadrature

        L_d(a, b) = dt * L((a + b)/2, (b - a)/dt),

    and the update enforces discrete momentum matching: the continuous
    momentum at the current point plus the left-slot derivative of L_d
    must vanish.  Because the Lagrangian is degenerate (linear in the
    rates), the two-point scheme closes after a single step and the
    discrete momentum stays pinned to the coordinates, so no momentum
    state is carried.  For this Lagrangian the update coincides with the
    implicit midpoint rule applied to the canonical flow; the test suite
    asserts that coincidence rather than assuming it.

    Steps a 2-d canonical state: ``rhs`` gives the explicit-Euler predictor
    and ``jac = J Hess`` the Hessian in Newton's Jacobian; the residual
    reads the Lagrangian gradients, which it looks up at each step.
    """
    gradients = lagrangian.extended_lagrangian_gradients
    y0, y1 = y
    half = 0.5 * dt
    c = 0.25 * dt
    # the continuous momentum now: the rate block (1/2) J Q of the gradients
    p0, p1 = 0.5 * y1, -0.5 * y0

    def residual(u0: float, u1: float) -> tuple:
        d_mid, d_rate = gradients(
            (0.5 * (y0 + u0), 0.5 * (y1 + u1)), ((u0 - y0) / dt, (u1 - y1) / dt), params, chart
        )
        # d/da of L_d(a, b): half a step of the midpoint slot minus the rate slot
        return (p0 + half * d_mid[0] - d_rate[0], p1 + half * d_mid[1] - d_rate[1])

    def jacobian(u0: float, u1: float) -> tuple:
        # the residual is p_now - (1/2) J q_new - (dt/2) grad H(mid), and
        # jac(mid) = J Hess = ((0, h1), (-h0, 0))
        (_, d01), (d10, _) = jac((0.5 * (y0 + u0), 0.5 * (y1 + u1)), params)
        return (c * d10, -0.5, 0.5, -c * d01)

    f0, f1 = rhs(y, params)
    return _newton(residual, jacobian, y0 + dt * f0, y1 + dt * f1, tol, max_iter)


def step_time_fe_cg1(
    rhs: Rhs,
    jac: Jac,
    params: EpidemicParams,
    y: tuple,
    dt: float,
    *,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
) -> tuple:
    """Continuous-Galerkin step: linear trial state, constant test functions.

    The two-point Gauss rule integrates the right-hand side exactly for
    quadratic integrands along the linear segment.  With the one-point
    midpoint rule instead, the step would be the implicit midpoint rule,
    the one-stage Gauss collocation method, which
    :func:`step_implicit_midpoint` already is.

    Steps a 2-d state, from the explicit-Euler predictor.  The quadrature
    sums start from 0.0 and add the nodes in order.
    """
    y0, y1 = y

    def residual(u0: float, u1: float) -> tuple:
        a0 = a1 = 0.0
        for sigma, rest, w, _ in _CG1_STAGES:
            f0, f1 = rhs((rest * y0 + sigma * u0, rest * y1 + sigma * u1), params)
            a0 += w * f0
            a1 += w * f1
        return (u0 - y0 - dt * a0, u1 - y1 - dt * a1)

    def jacobian(u0: float, u1: float) -> tuple:
        # a stage moves with weight sigma as the endpoint u does
        a00 = a01 = a10 = a11 = 0.0
        for sigma, rest, _, ws in _CG1_STAGES:
            (d00, d01), (d10, d11) = jac((rest * y0 + sigma * u0, rest * y1 + sigma * u1), params)
            a00 += ws * d00
            a01 += ws * d01
            a10 += ws * d10
            a11 += ws * d11
        return (1.0 - dt * a00, -dt * a01, -dt * a10, 1.0 - dt * a11)

    f0, f1 = rhs(y, params)
    return _newton(residual, jacobian, y0 + dt * f0, y1 + dt * f1, tol, max_iter)


# ---------------------------------------------------------------------------
# plumbing for the march

def _make_stepper(
    spec: RunSpec, rec: _Record, params: EpidemicParams
) -> Callable[[tuple, float], tuple]:
    """The one-step update ``y, h -> y_next`` of one parameter segment.

    The step scheme and the rhs kernels are looked up by name here, when
    the segment's stepper is built, and bound into it, so a stage costs
    no lookup; a wrapper put in their place before the march starts sees
    every step and every stage.
    """
    m = spec.method
    kw = {"tol": spec.newton_tol, "max_iter": spec.newton_max_iter}
    rhs = rec.rhs()
    if m is Method.EXPLICIT_EULER:
        return partial(step_explicit_euler, rhs, params)
    if m is Method.RK4:
        return partial(step_rk4, rhs, params)
    jac = rec.jac()
    if m is Method.SYMPLECTIC_EULER:
        return partial(step_symplectic_euler, rhs, jac, params, separable=rec.separable, **kw)
    if m is Method.IMPLICIT_MIDPOINT:
        return partial(step_implicit_midpoint, rhs, jac, params, **kw)
    if m is Method.VARIATIONAL_MIDPOINT:
        chart = spec.formulation.chart
        return partial(step_variational_midpoint, rhs, jac, params, chart=chart, **kw)
    # the last Method, TIME_FE_CG1_GAUSS2: RunSpec coerces every method to one
    return partial(step_time_fe_cg1, rhs, jac, params, **kw)


def _check_schedule(spec: RunSpec, schedule: ParamSchedule) -> None:
    """Refuse switches for a run in the intrinsic clock: switch times are
    ordinary-time quantities."""
    if spec.formulation.clock == "tau" and not schedule.is_constant:
        raise ScenarioError(
            "rescaled-clock formulations do not support parameter switches "
            "scheduled in ordinary time"
        )


def _segment_steps(span: float, dt: float) -> tuple[int, float]:
    """Number of steps in a segment and the length of its last: full dt
    steps, then a short closing step where dt does not divide the span."""
    n_full = int(math.floor(span / dt + 1e-9))
    tail = span - n_full * dt
    if tail <= 1e-9 * dt:
        return n_full, dt
    return n_full + 1, tail


# ---------------------------------------------------------------------------
# the march

def integrate(
    spec: RunSpec, init: CompartmentState, schedule: ParamSchedule
) -> Trajectory:
    """March one run and return its sampled trajectory.

    The step grid is laid segment by segment, so parameter switches always
    land on step boundaries (the closing step of a segment is shortened as
    needed).  Switch times are ordinary-time quantities, which is why
    formulations living in the intrinsic clock accept only constant
    schedules.  Runs in the intrinsic clock also refuse to start closer to
    the S*I = 0 singularity of the time map than 1e-10, and abort if the
    dilation falls below 1e-14 along the way.  A domain failure of the
    start keeps its type and names the initial state.  A Newton, domain or
    singularity failure inside the march keeps its type and names the step
    and the clock it started from; an overflow becomes NonFiniteInput.
    Every switch is a kept sample, whatever the stride.  An extended run
    marches its chart's record, whatever its ``extended_mode``.
    """
    if not isinstance(spec, RunSpec):
        raise ScenarioError(f"spec must be a RunSpec, got {type(spec).__name__}")
    if not isinstance(init, CompartmentState):
        raise ScenarioError(f"init must be a CompartmentState, got {type(init).__name__}")
    if not isinstance(schedule, ParamSchedule):
        raise ScenarioError(f"schedule must be a ParamSchedule, got {type(schedule).__name__}")

    form = spec.formulation
    clock_is_t = form.clock == "t"
    _check_schedule(spec, schedule)
    segments = schedule.segments(spec.t_end)

    rec = _RECORDS[form]
    dilation = rec.dilation
    try:
        y = rec.start(init.i, init.s, segments[0][2])
        dil_prev = dilation(y, segments[0][2])
    except RhsDomainError as exc:
        # a fraction the chart cannot express, such as ln of a zero
        raise type(exc)(f"initial state: {exc}") from exc
    if not clock_is_t and dil_prev < START_DILATION_FLOOR:
        raise StepAcrossSingularity(
            f"S*I = {dil_prev:.3e} at the initial state; the intrinsic clock "
            f"is degenerate below {START_DILATION_FLOOR:.0e}"
        )

    dt, stride = spec.dt, spec.sample_stride
    grid = [_segment_steps(b - a, dt) for a, b, _ in segments]
    # six entries per kept sample, (own clock, other clock, segment, step,
    # y0, y1), kept flat: a tuple per row gives the garbage collector one more
    # object to track per sample, which slowed a stride-1 march measurably,
    # and a flat row of numbers is one float array in a single conversion
    samples = [0.0, 0.0, 0, 0, *y]
    sec = 0.0
    step_no = 0
    t_now = 0.0
    try:
        for seg_id, ((a, b, pars), (n, h_last)) in enumerate(zip(segments, grid)):
            if seg_id > 0:
                # the boundary sample keeps the outgoing segment's representation;
                # only the state marched onward is re-expressed
                y = rec.remap(y, segments[seg_id - 1][2], pars)
            stepper = _make_stepper(spec, rec, pars)
            dil_prev = dilation(y, pars)
            n_last = n - 1
            for k in range(n):
                h = h_last if k == n_last else dt
                y = stepper(y, h)
                # before the clock moves on, so that a failure names the step's start
                dil_now = dilation(y, pars)
                if clock_is_t:
                    sec += 0.5 * h * (dil_prev + dil_now)
                else:
                    if dil_now < RUN_DILATION_FLOOR:
                        raise StepAcrossSingularity(
                            f"S*I fell to {dil_now:.3e}; the run crossed the "
                            "singularity of the time map"
                        )
                    sec += 0.5 * h * (1.0 / dil_prev + 1.0 / dil_now)
                dil_prev = dil_now
                t_now = b if k == n_last else a + (k + 1) * dt
                step_no += 1
                if step_no % stride == 0 or k == n_last:
                    samples += (t_now, sec, seg_id, step_no, y[0], y[1])
    except (NewtonDivergence, RhsDomainError, StepAcrossSingularity) as exc:
        raise type(exc)(f"step {step_no + 1} from clock {t_now:.6g}: {exc}") from exc
    except OverflowError as exc:
        # math.exp of a runaway log-chart coordinate, in a rate or the dilation
        raise NonFiniteInput(
            f"step {step_no + 1} from clock {t_now:.6g}: a value overflowed ({exc})"
        ) from exc

    return _build_trajectory(spec, schedule, segments, samples)


def _build_trajectory(
    spec: RunSpec,
    schedule: ParamSchedule,
    segments: Sequence[tuple[float, float, EpidemicParams]],
    samples: list,
) -> Trajectory:
    """Sampled columns of a finished march, from its flat list of rows
    ``own clock, other clock, segment, step, y0, y1``.

    The list becomes one ``(n, 6)`` float array in a single conversion, and
    every column is a view of it: segment and step numbers are exact in a
    float, and a marched state is always 2-d.

    Refuses, with :class:`InvalidFractions`, a trajectory whose fractions
    leave [0, 1] by more than ``FRACTION_TOL`` or are not finite, and with
    :class:`NonPositiveCoordinate` one with a sample at S <= 0, where the
    energy's ln S is undefined; either names the first such sample's step
    and clock value.
    """
    form = spec.formulation
    rows = np.array(samples, dtype=float).reshape(-1, 6)
    prim, sec, coords = rows[:, 0], rows[:, 1], rows[:, 4:]
    seg_arr = rows[:, 2].astype(np.intp)
    if coords.shape[1] < form.dim:
        # an extended run marched the coordinate block alone
        coords = np.column_stack((coords, *hamiltonian.consistent_momenta(coords.T)))
    if form.clock == "t":
        t_col, tau_col = prim, sec
    else:
        t_col, tau_col = sec, prim

    beta = np.array([pars.beta for _, _, pars in segments])[seg_arr]
    gamma = np.array([pars.gamma for _, _, pars in segments])[seg_arr]

    # a runaway sample may be inf - inf here; the test below reads every value
    with np.errstate(all="ignore"):
        i_col, s_col = _RECORDS[form].fractions(coords, beta, gamma)
        r_col = 1.0 - s_col - i_col
    fractions = np.stack((s_col, i_col, r_col))
    # a NaN fails both comparisons
    inside = (fractions >= -FRACTION_TOL) & (fractions <= 1.0 + FRACTION_TOL)
    bad = np.flatnonzero(~inside.all(axis=0) | (s_col <= 0.0))
    if bad.size:
        k = bad[0]
        where = f"step {int(rows[k, 3])} at clock {prim[k]:.6g}"
        if not inside[:, k].all():
            raise InvalidFractions(
                f"{where}: S = {s_col[k]:.6g}, I = {i_col[k]:.6g}, "
                f"R = {r_col[k]:.6g} left [0, 1]"
            )
        raise NonPositiveCoordinate(f"{where}: ln(S) undefined for S = {s_col[k]:.6g}")
    h_col = beta * (i_col + s_col) - gamma * np.log(s_col)

    return Trajectory(
        formulation=form,
        t=t_col,
        tau=tau_col,
        s=s_col,
        i=i_col,
        r=r_col,
        h=h_col,
        coords=coords,
        schedule=schedule,
        spec=spec,
    )


def reconstruct_ordinary_time(traj: Trajectory) -> Trajectory:
    """Rebuild ordinary time from a rescaled-clock trajectory's samples.

    Trapezoidal quadrature of dt/dtau = 1/(S*I) over the stored tau grid;
    second-order accurate under step refinement.  :func:`integrate` already
    fills the ordinary-time column at full step resolution, so this is
    only needed for trajectories built by other means (or to check the
    quadrature itself).
    """
    if traj.clock != "tau":
        raise MissingDiagnostic("trajectory already lives in ordinary time")
    dil = traj.s * traj.i
    if traj.n_samples and (np.min(dil) < RUN_DILATION_FLOOR):
        raise StepAcrossSingularity(
            f"S*I reaches {np.min(dil):.3e}; time map undefined"
        )
    if traj.n_samples < 2:
        t = np.zeros(traj.n_samples)
    else:
        inv = 1.0 / dil
        steps = np.diff(traj.tau) * 0.5 * (inv[1:] + inv[:-1])
        t = np.concatenate(([0.0], np.cumsum(steps)))
    return replace(traj, t=t)
