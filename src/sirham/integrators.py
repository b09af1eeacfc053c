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
each scheme assembles from the analytic Jacobian of the rhs.  Each
implicit step runs its own iteration on scalar locals, its residual and
Jacobian written inline: a 2-d unknown is updated by one 2x2 elimination,
:func:`_solve2`, and symplectic Euler's 1-d momentum equation by a scalar
division.

Only what is implicit is solved.  Symplectic Euler is explicit wherever
the momentum rate does not read the momenta (the separable canonical
charts), so Newton runs only on ``basic_t`` and the ``single_ode_*``
reductions.  The constraint ``C = Q + 2 J P = 0`` pins an extended run's
momenta to its coordinates, so its record is its chart's canonical one: the
march steps the 2-d coordinates as a ``rescaled_tau`` or ``log_t`` run does,
and the walk that builds the trajectory appends the momenta ``(1/2) J Q``.
Every step function steps 2-d states, and no step reads or checks the
constraint.

:func:`integrate` marches a :class:`RunSpec` over a parameter schedule and
returns a :class:`Trajectory` carrying both clocks (ordinary time t and
the intrinsic epidemic clock tau with d(tau) = S*I dt), the compartment
fractions, and the conserved energy at every sample.  Runs whose native
clock is tau obtain the ordinary-time column by the trapezoid rule on
1/(S*I) over every step; :func:`reconstruct_ordinary_time` applies the
same rule to an existing trajectory's samples.

Each :class:`Formulation` is defined in one place, its private record in
``_RECORDS``: initial state, rhs and rhs-Jacobian lookups, S*I dilation,
map from sampled coordinates to (I, S), and state remap at a parameter
switch.  The march and the walk after it read only the record and name no
formulation.  So two runs whose formulations share a record, and whose
other settings that the march reads are equal, march the same states: the
command line marches each distinct :func:`_march_key` once, and
:func:`_shared_march` gives a later run its trajectory from the first's.

Every rate and Jacobian is called ``f(y, params)``, and a step scheme
``step(rhs[, jac], params, y, dt)`` hands each call the parameters of the
active segment.  The rhs kernels, the chart Hessians of the Jacobians and
the step scheme are looked up by name once per parameter segment, when
:func:`_make_stepper` builds that segment's stepper, and are bound into it;
a wrapper put in their place before :func:`integrate` is called sees every
step and every stage.  An explicit stage is one flat kernel call, and on
the ``single_ode_*`` reductions that call goes through the record's
closure.  Every step works on scalar locals, the implicit ones building
their residual and Jacobian there too, with no closure built per step,
and with the arithmetic, in the same order, of the zip and tuple bodies
the kernel tests keep as their references.

The step grid is laid out once, one ``_Segment`` a parameter segment: its
ends, parameters, step count, closing step and the steps before it.  Each
segment is marched, tested and kept in turn.  The march loop only steps,
keeping the segment's states, two floats a step in one flat list, as one
float array when the segment ends; its walk then tests them and builds
its kept rows, numpy over the segment's states, and they are released
before the next segment is marched.  A walk takes from the one before it
only both clocks of the state its segment starts from, and gives each
state its own clock once, for the kept rows and every failure message.
A run raises its first failing state in step order, and a failure of the
march itself only once every state it stored passes.  The walk reads each
record's ``fractions`` and ``dilation`` elementwise over columns of states;
the dilation's exponentials stay ``math.exp`` over the array, bit for bit
the scalar values; the array holds only states the fractions place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple

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
    clock, of one state or elementwise of a pair of state columns, and
    ``fractions(coords, params)`` maps marched coordinates to the
    (I, S) columns.  The dilation does not raise where the walk places a
    state, its fractions within ``FRACTION_TOL`` of [0, 1] at S > 0, as a
    reduction's Legendre map is defined where S > 0; the walk's array of
    dilations reads no other state.  ``remap(y, old, new)`` carries the state across a
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
    fractions: Callable[[np.ndarray, EpidemicParams], tuple]
    remap: Callable[[tuple, EpidemicParams, EpidemicParams], tuple] = lambda y, old, new: y
    separable: bool = False


def _exp(x):
    """``math.exp`` of a number, or of each entry of an array: ``np.exp``
    rounds a few percent of float64 inputs differently.  An overflow raises
    OverflowError either way."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(math.exp, x), float, x.size)
    return math.exp(x)


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
    fractions=lambda coords, params: (coords[:, 0], coords[:, 1]),
    separable=True,
)
_LOG = _Record(
    start=_log_start,
    rhs=lambda: hamiltonian.hamilton_rhs_log,
    jac=lambda: _canonical_jac(hamiltonian.hessian_log),
    dilation=lambda y, params: _exp(y[0] + y[1]),
    fractions=lambda coords, params: (np.exp(coords[:, 0]), np.exp(coords[:, 1])),
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
    if np.any(y[1] >= beta):
        raise OutsideLegendreDomain(
            f"rate {y[1]} reached beta = {beta}; susceptible fraction undefined"
        )
    return y[0] * params.gamma / (beta - y[1])


def _rate_dilation_log(y: tuple, params: EpidemicParams) -> float:
    gamma = params.gamma
    if np.any(y[1] <= -gamma):
        raise OutsideLegendreDomain(
            f"rate {y[1]} reached -gamma = {-gamma}; susceptible fraction undefined"
        )
    return _exp(y[0]) * (y[1] + gamma) / params.beta


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
        lambda coords, params: (coords[:, 0], params.gamma / (params.beta - coords[:, 1])),
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
        lambda coords, params: (np.exp(coords[:, 0]), (coords[:, 1] + params.gamma) / params.beta),
    ),
    Formulation.EXTENDED_4D_DIRECT: _DIRECT,
    Formulation.EXTENDED_4D_LOG: _LOG,
}


#: the ``RunSpec`` fields that the march does not read
_UNMARCHED = ("label", "extended_mode")


def _march_key(spec: RunSpec) -> tuple:
    """What the march of ``spec`` reads: its formulation's record, the
    object itself, with the formulation's clock and chart, and every other
    ``RunSpec`` field except the :data:`_UNMARCHED` and, on an explicit
    method, the Newton settings, which :func:`_make_stepper` does not read
    for it.  Two runs whose keys are equal march the same states from one
    start and schedule: an extended run and its chart's canonical run at
    one ``dt``, horizon and stride, say, or two ``rk4`` runs that differ
    only in ``newton_tol``."""
    form = spec.formulation
    unread = ("formulation", *_UNMARCHED)
    if spec.method in (Method.EXPLICIT_EULER, Method.RK4):
        unread += ("newton_tol", "newton_max_iter")
    rest = tuple(getattr(spec, field.name) for field in fields(spec) if field.name not in unread)
    return (id(_RECORDS[form]), form.clock, form.chart, *rest)


def _shared_march(traj: Trajectory, spec: RunSpec) -> Trajectory:
    """The trajectory of ``spec`` taken from ``traj``, the trajectory of a
    run whose :func:`_march_key` equals that of ``spec``.

    It carries the formulation of ``spec``, and the marched coordinate
    block of ``traj`` with the momenta appended again where ``spec`` is
    extended, as :func:`_walk` appends them.  It holds the other columns of
    ``traj`` themselves, not copies, and on a 2-d run a view of its
    coordinates.
    """
    coords = _with_momenta(traj.coords[:, :2], spec.formulation)
    return replace(traj, formulation=spec.formulation, coords=coords)


def _with_momenta(coords: np.ndarray, form: Formulation) -> np.ndarray:
    """Marched 2-d coordinates as ``form`` carries them: on an extended
    formulation, with the momenta the constraint pins to them appended."""
    if coords.shape[1] < form.dim:
        return np.column_stack((coords, *hamiltonian.consistent_momenta(coords.T)))
    return coords


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one integration run.

    ``dt`` and ``t_end`` are measured in the formulation's own clock
    (ordinary time or the intrinsic epidemic clock).  ``sample_stride``
    keeps every n-th step in the trajectory, and the last step of every
    parameter segment, the run's final state among them, is always kept;
    the clock quadrature still uses every step, and every step's state is
    tested against the simplex.  ``label`` names the run in
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
        if self.sample_stride > MAX_STEPS:
            raise ScenarioError(f"sample_stride must be at most 2**53, got {self.sample_stride}")
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
# one-step schemes
#
# Each implicit step runs its own Newton iteration on scalar locals: from
# the explicit-Euler predictor, the residual at the iterate, then, until
# it is within ``tol`` (a NaN is not) or ``max_iter`` updates are spent,
# one exact-Jacobian update and the residual again.  It refuses a zero
# pivot, an iterate that is not finite, and a residual still outside
# ``tol`` after ``max_iter`` updates, each with its message below.

_ZERO_PIVOT = "singular Jacobian in Newton iteration: zero pivot"


def _solve2(a00, a01, a10, a11, b0, b1) -> tuple:
    """Solve the 2x2 Newton system ``a x = b`` by elimination with partial
    pivoting; ``a`` is given row by row.  A zero pivot refuses the system
    as singular."""
    if abs(a10) > abs(a00):
        a00, a01, b0, a10, a11, b1 = a10, a11, b1, a00, a01, b0
    if a00 == 0.0:
        raise NewtonDivergence(_ZERO_PIVOT)
    m = a10 / a00
    u11 = a11 - m * a01
    if u11 == 0.0:
        raise NewtonDivergence(_ZERO_PIVOT)
    x1 = (b1 - m * b0) / u11
    return ((b0 - a01 * x1) / a00, x1)


def _left_finite_range(iterate: tuple) -> NewtonDivergence:
    """The refusal of an iterate, a 1- or 2-tuple, that is not finite."""
    return NewtonDivergence(f"Newton iterate left the finite range: {iterate}")


def _not_converged(max_iter: int, r0: float, r1: float = 0.0) -> NewtonDivergence:
    """The refusal of a residual still outside the tolerance after
    ``max_iter`` updates; its norm is NaN where either entry is."""
    norm = math.nan if math.isnan(r0) or math.isnan(r1) else max(abs(r0), abs(r1))
    return NewtonDivergence(
        f"no convergence after {max_iter} iterations, residual norm {norm:.3e}"
    )


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

    Steps a 2-d state on scalar locals; the momentum equation is a scalar
    Newton iteration, each update ``p -= r / a`` with ``a = 1 - dt *
    J11``, and a refusal reports its iterate as ``(p,)``.
    """
    y0, y1 = y
    f0, f1 = rhs(y, params)
    q = y0 + dt * f0
    if separable:
        return (q, y1 + dt * rhs((q, y1), params)[1])
    p = y1 + dt * f1
    n = 0
    while True:
        r = p - y1 - dt * rhs((q, p), params)[1]
        if abs(r) <= tol:
            return (q, p)
        if n == max_iter:
            raise _not_converged(max_iter, r)
        n += 1
        a = 1.0 - dt * jac((q, p), params)[1][1]
        if a == 0.0:
            raise NewtonDivergence(_ZERO_PIVOT)
        p -= r / a
        if not math.isfinite(p):
            raise _left_finite_range((p,))


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
    f0, f1 = rhs(y, params)
    u0, u1 = y0 + dt * f0, y1 + dt * f1
    n = 0
    while True:
        mid = (0.5 * (y0 + u0), 0.5 * (y1 + u1))
        f0, f1 = rhs(mid, params)
        r0, r1 = u0 - y0 - dt * f0, u1 - y1 - dt * f1
        if abs(r0) <= tol and abs(r1) <= tol:
            return (u0, u1)
        if n == max_iter:
            raise _not_converged(max_iter, r0, r1)
        n += 1
        (d00, d01), (d10, d11) = jac(mid, params)
        x0, x1 = _solve2(1.0 - c * d00, -c * d01, -c * d10, 1.0 - c * d11, r0, r1)
        u0 -= x0
        u1 -= x1
        if not (math.isfinite(u0) and math.isfinite(u1)):
            raise _left_finite_range((u0, u1))


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
    f0, f1 = rhs(y, params)
    u0, u1 = y0 + dt * f0, y1 + dt * f1
    n = 0
    while True:
        mid = (0.5 * (y0 + u0), 0.5 * (y1 + u1))
        d_mid, d_rate = gradients(mid, ((u0 - y0) / dt, (u1 - y1) / dt), params, chart)
        # d/da of L_d(a, b): half a step of the midpoint slot minus the rate slot
        r0, r1 = p0 + half * d_mid[0] - d_rate[0], p1 + half * d_mid[1] - d_rate[1]
        if abs(r0) <= tol and abs(r1) <= tol:
            return (u0, u1)
        if n == max_iter:
            raise _not_converged(max_iter, r0, r1)
        n += 1
        # the residual is p_now - (1/2) J q_new - (dt/2) grad H(mid), and
        # jac(mid) = J Hess = ((0, h1), (-h0, 0))
        (_, d01), (d10, _) = jac(mid, params)
        x0, x1 = _solve2(c * d10, -0.5, 0.5, -c * d01, r0, r1)
        u0 -= x0
        u1 -= x1
        if not (math.isfinite(u0) and math.isfinite(u1)):
            raise _left_finite_range((u0, u1))


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
    f0, f1 = rhs(y, params)
    u0, u1 = y0 + dt * f0, y1 + dt * f1
    n = 0
    while True:
        a0 = a1 = 0.0
        for sigma, rest, w, _ in _CG1_STAGES:
            f0, f1 = rhs((rest * y0 + sigma * u0, rest * y1 + sigma * u1), params)
            a0 += w * f0
            a1 += w * f1
        r0, r1 = u0 - y0 - dt * a0, u1 - y1 - dt * a1
        if abs(r0) <= tol and abs(r1) <= tol:
            return (u0, u1)
        if n == max_iter:
            raise _not_converged(max_iter, r0, r1)
        n += 1
        # a stage moves with weight sigma as the endpoint u does
        a00 = a01 = a10 = a11 = 0.0
        for sigma, rest, _, ws in _CG1_STAGES:
            (d00, d01), (d10, d11) = jac((rest * y0 + sigma * u0, rest * y1 + sigma * u1), params)
            a00 += ws * d00
            a01 += ws * d01
            a10 += ws * d10
            a11 += ws * d11
        x0, x1 = _solve2(1.0 - dt * a00, -dt * a01, -dt * a10, 1.0 - dt * a11, r0, r1)
        u0 -= x0
        u1 -= x1
        if not (math.isfinite(u0) and math.isfinite(u1)):
            raise _left_finite_range((u0, u1))


# ---------------------------------------------------------------------------
# plumbing for the march

def _make_stepper(
    spec: RunSpec, rec: _Record, params: EpidemicParams
) -> Callable[[tuple, float], tuple]:
    """The one-step update ``y, h -> y_next`` of one parameter segment.

    The step scheme and the rhs kernels are looked up by name here, when
    the segment's stepper is built, and bound into it, so a stage costs
    no lookup; a wrapper put in their place before the march starts sees
    every step and every stage.  An implicit step's Newton settings are
    closure locals, passed by keyword with no dictionary built per step;
    an explicit stepper is returned before either is read, so
    :func:`_march_key` leaves them out of its key.
    """
    m = spec.method
    rhs = rec.rhs()
    if m is Method.EXPLICIT_EULER:
        return partial(step_explicit_euler, rhs, params)
    if m is Method.RK4:
        return partial(step_rk4, rhs, params)
    jac = rec.jac()
    tol, max_iter = spec.newton_tol, spec.newton_max_iter
    if m is Method.SYMPLECTIC_EULER:
        step, separable = step_symplectic_euler, rec.separable
        return lambda y, h: step(
            rhs, jac, params, y, h, tol=tol, max_iter=max_iter, separable=separable
        )
    if m is Method.VARIATIONAL_MIDPOINT:
        step, chart = step_variational_midpoint, spec.formulation.chart
        return lambda y, h: step(rhs, jac, params, y, h, chart=chart, tol=tol, max_iter=max_iter)
    # TIME_FE_CG1_GAUSS2 is the last Method: RunSpec coerces every method to one
    step = step_implicit_midpoint if m is Method.IMPLICIT_MIDPOINT else step_time_fe_cg1
    return lambda y, h: step(rhs, jac, params, y, h, tol=tol, max_iter=max_iter)


def _check_schedule(spec: RunSpec, schedule: ParamSchedule) -> None:
    """Refuse switches for a run in the intrinsic clock: switch times are
    ordinary-time quantities."""
    if spec.formulation.clock == "tau" and not schedule.is_constant:
        raise ScenarioError(
            "rescaled-clock formulations do not support parameter switches "
            "scheduled in ordinary time"
        )


class _Segment(NamedTuple):
    """One parameter segment of the step grid: from ``a`` to ``b`` under
    ``params``, in ``n`` steps after the ``off`` steps of the segments
    before it, its closing step ``h_last`` long.  State j is the state
    after step j, so the segment marches states ``off + 1`` to ``off + n``,
    whose own clock is ``a + k * dt`` k steps in and ``b`` after the closing
    step, from state ``off``, which keeps the clock it was marched to."""

    a: float
    b: float
    params: EpidemicParams
    n: int
    h_last: float
    off: int


def _segment_steps(span: float, dt: float) -> tuple[int, float]:
    """Number of steps in a segment and the length of its last: full dt
    steps, then a short closing step where dt does not divide the span."""
    n_full = int(math.floor(span / dt + 1e-9))
    tail = span - n_full * dt
    if tail <= 1e-9 * dt:
        return n_full, dt
    return n_full + 1, tail


def _trapezoid(h, f):
    """The trapezoid rule over consecutive values of ``f`` a step ``h``
    apart: one sum per step.  Halving is exact, so the sums do not depend
    on whether ``h`` or the pair is halved."""
    return 0.5 * h * (f[:-1] + f[1:])


def _at_step(exc: Exception, step: int, clock: float) -> Exception:
    """``exc`` renamed for the march: its step and ``clock``, the own clock
    of state ``step - 1``, which the step started from.  An overflow
    becomes NonFiniteInput."""
    where = f"step {step} from clock {clock:.6g}"
    if isinstance(exc, OverflowError):
        # math.exp of a runaway log-chart coordinate, in a rate or the dilation
        return NonFiniteInput(f"{where}: a value overflowed ({exc})")
    return type(exc)(f"{where}: {exc}")


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
    Every switch is a kept sample, whatever the stride, and every marched
    state, kept or not, must stay in the simplex.  An extended run marches
    its chart's record, whatever its ``extended_mode``.

    The grid is laid once, one :class:`_Segment` a segment, and each is
    marched, tested and kept in turn: the march loop only steps, keeping
    the segment's states, two floats each in one flat list, and then
    :func:`_walk` tests them, raises the first failing one and builds the
    segment's kept rows.  Each walk hands the next both clocks of its last
    state, or those it was handed where it holds none, so a failure after a
    switch at 1e-12 starts from clock 0.  The march's own failure is raised
    only once every state it stored passes, so neither stride nor horizon
    changes which failure a run reports, and no segment after a failing
    state is marched.
    """
    if not isinstance(spec, RunSpec):
        raise ScenarioError(f"spec must be a RunSpec, got {type(spec).__name__}")
    if not isinstance(init, CompartmentState):
        raise ScenarioError(f"init must be a CompartmentState, got {type(init).__name__}")
    if not isinstance(schedule, ParamSchedule):
        raise ScenarioError(f"schedule must be a ParamSchedule, got {type(schedule).__name__}")

    form = spec.formulation
    _check_schedule(spec, schedule)
    dt = spec.dt
    grid, off = [], 0
    for a, b, params in schedule.segments(spec.t_end):
        n, h_last = _segment_steps(b - a, dt)
        grid.append(_Segment(a, b, params, n, h_last, off))
        off += n

    rec = _RECORDS[form]
    try:
        y = rec.start(init.i, init.s, grid[0].params)
        dil = rec.dilation(y, grid[0].params)
    except RhsDomainError as exc:
        # a fraction the chart cannot express, such as ln of a zero
        raise type(exc)(f"initial state: {exc}") from exc
    if form.clock == "tau" and dil < START_DILATION_FLOOR:
        raise StepAcrossSingularity(
            f"S*I = {dil:.3e} at the initial state; the intrinsic clock "
            f"is degenerate below {START_DILATION_FLOOR:.0e}"
        )

    # a segment's states, flat: a tuple per state would give the garbage
    # collector one more object to track per step
    ys = [*y]
    # per segment: its kept rows' own clock, other clock, (S, I, R), h and states
    parts = []
    # the own clock and the other clock of the state the segment starts from
    before = carry = 0.0
    for k, seg in enumerate(grid):
        pars = seg.params
        failure = None
        try:
            if k:
                # the boundary sample keeps the outgoing segment's representation;
                # only the state marched onward is re-expressed
                y = rec.remap(y, grid[k - 1].params, pars)
                # the left end of the segment's first trapezoid
                dil = rec.dilation(y, pars)
            stepper = _make_stepper(spec, rec, pars)
            for _ in range(seg.n - 1):
                y = stepper(y, dt)
                ys += y
            if seg.n:
                y = stepper(y, seg.h_last)
                ys += y
        except (NewtonDivergence, RhsDomainError, OverflowError) as exc:
            # the walk over the segment's states may find an earlier failure
            failure = exc
        # the list holds four times the array's memory
        states, ys = np.array(ys, dtype=float).reshape(-1, 2), []
        # the first segment holds the start, state 0, before its marched states
        lo = seg.off + (k > 0)
        before, carry, part = _walk(spec, rec, seg, states, lo, dil, before, carry)
        parts.append(part)
        if failure is not None:
            raise _at_step(failure, lo + len(states), before) from failure
        # released before the next segment is marched
        del states
    *cols, coords = zip(*parts)
    prim, sec, (s, i, r), h = (np.concatenate(col, axis=-1) for col in cols)
    t, tau = (prim, sec) if form.clock == "t" else (sec, prim)
    # an extended run marched the coordinate block alone
    coords = _with_momenta(np.concatenate(coords), form)
    return Trajectory(form, t, tau, s, i, r, h, coords, schedule)


def _walk(
    spec: RunSpec,
    rec: _Record,
    seg: _Segment,
    states: np.ndarray,
    lo: int,
    start: float,
    before: float,
    carry: float,
) -> tuple[float, float, tuple]:
    """Test one segment's states and build its kept rows: the own clock and
    the other clock's sum at its last state, and the rows' own clock, other
    clock, (S, I, R), energy and states.

    ``states`` are the segment's from state ``lo`` on, the first segment's
    start before those it marched; ``before`` and ``carry`` are both clocks
    of state ``off``, the one the segment starts from, and come back
    unchanged where there is no state to walk.  The own clock of the states
    is written once, ``before`` and then as :class:`_Segment` says, and the
    kept rows and every failure message read it.

    The states get their S, I and R from one elementwise call of the
    record's ``fractions``, with the segment's parameters.  A state fails
    when the dilation refuses it or overflows, when its dilation is under
    the floor on a rescaled-clock run, when a fraction is not finite or
    leaves [0, 1] by more than ``FRACTION_TOL``, or at S <= 0, where the
    energy's ln S is undefined.  The marched states before the first the
    fractions fail get their dilation from one call of the record's, which
    cannot refuse them (:class:`_Record`); the first under the floor fails
    first.  The first failing state is looked at once: its own dilation,
    refused, overflowing or under the floor, names the step and the clock
    it started from; then its fraction verdict, the clock the step reached.

    The clock that is not the run's own is the trapezoid rule over every
    step of S*I on an ordinary-time run, of 1/(S*I) on a rescaled-clock
    run: the segment's first step starts from ``start``, the dilation of
    its remapped start, and ``np.cumsum`` goes on from ``carry``, adding
    the step sums in step order as a step-by-step march would have.  The
    kept rows are the start, every state whose step number is a multiple
    of the stride, and the closing step of every segment; their energy is
    :func:`~sirham.hamiltonian.hamiltonian_direct` of their (I, S) under the
    segment's own beta and gamma.
    """
    clock_is_t = spec.formulation.clock == "t"
    dt, stride = spec.dt, spec.sample_stride
    off, pars = seg.off, seg.params
    hi = lo + len(states) - 1
    closes = 0 < seg.n == hi - off
    # the own clock at states off..hi
    own = seg.a + np.arange(hi - off + 1) * dt
    own[0] = before
    if closes:
        own[-1] = seg.b
    # a runaway state may be inf - inf here; the tests read every value
    with np.errstate(all="ignore"):
        sir = np.empty((3, len(states)))
        sir[1], sir[0] = rec.fractions(states, pars)
        sir[2] = 1.0 - sir[0] - sir[1]
        # a NaN fails both comparisons
        inside = ((sir >= -FRACTION_TOL) & (sir <= 1.0 + FRACTION_TOL)).all(axis=0)
        placed = inside & (sir[0] > 0.0)
        # the dilation of the marched states before the first not placed,
        # where no record's refuses; one under the floor fails first
        marched = off + 1 - lo
        first = len(states) if placed.all() else int(np.argmin(placed))
        dil = rec.dilation(states[marched:first].T, pars)
        if not clock_is_t and (dil < RUN_DILATION_FLOOR).any():
            first = marched + int(np.argmax(dil < RUN_DILATION_FLOOR))
        if first < len(states):
            j = lo + first
            try:
                if j > off:
                    d = rec.dilation(states[first].tolist(), pars)
                    if not clock_is_t and d < RUN_DILATION_FLOOR:
                        raise StepAcrossSingularity(
                            f"S*I fell to {d:.3e}; "
                            "the run crossed the singularity of the time map"
                        )
            except (RhsDomainError, OverflowError, StepAcrossSingularity) as exc:
                raise _at_step(exc, j, own[j - 1 - off]) from exc
            s, i, r = sir[:, first]
            where = f"step {j} at clock {own[j - off]:.6g}"
            if not inside[first]:
                raise InvalidFractions(
                    f"{where}: S = {s:.6g}, I = {i:.6g}, R = {r:.6g} left [0, 1]"
                )
            raise NonPositiveCoordinate(f"{where}: ln(S) undefined for S = {s:.6g}")
        f = np.concatenate(([start], dil))
        # freed before the quadrature, the walk's peak
        del dil
        if not clock_is_t:
            f = 1.0 / f
        # the other clock at states off..hi, going on from the last segment's
        sec = np.concatenate(([carry], _trapezoid(dt, f)))
        if closes:
            sec[-1:] = _trapezoid(seg.h_last, f[-2:])
        carry = np.cumsum(sec, out=sec)[-1]
        rows = np.arange(lo + -lo % stride, hi + 1, stride)
        if closes and hi % stride:
            rows = np.append(rows, hi)
        kept = sir[:, rows - lo]
    h = hamiltonian.hamiltonian_direct((kept[1], kept[0]), pars)
    return own[-1], carry, (own[rows - off], sec[rows - off], kept, h, states[rows - lo])


def reconstruct_ordinary_time(traj: Trajectory) -> Trajectory:
    """Rebuild ordinary time from a rescaled-clock trajectory's samples.

    Trapezoidal quadrature of dt/dtau = 1/(S*I) over the stored tau grid;
    second-order accurate under step refinement.  :func:`integrate` already
    fills the ordinary-time column at full step resolution, by the same
    rule, so this is only needed for trajectories built by other means (or
    to check the quadrature itself).
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
        t = np.concatenate(([0.0], np.cumsum(_trapezoid(np.diff(traj.tau), 1.0 / dil))))
    return replace(traj, t=t)
