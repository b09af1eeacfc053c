"""The flat rhs kernels, the flat one-step schemes and the march against
references.

The references below are the bodies the kernels replaced: the zip-based
one-step schemes, the tuple Newton iteration of the implicit schemes, the
rates built as ``J grad H`` from the gradient functions, and the march
loop that took the clocks and the samples after every step.  The
arithmetic was kept in the same order, so results are compared with
``==``, and refusals by exception type and message.
"""

import math
import random
from functools import partial

import numpy as np
import pytest

from sirham import dynamics, hamiltonian, integrators, lagrangian
from sirham import (
    ConstraintViolation,
    EpidemicParams,
    Formulation,
    Method,
    NewtonDivergence,
    ParamSchedule,
    RunSpec,
    ScenarioError,
    integrate,
    recovered_from,
)
from sirham.core import Chart, apply_J
from sirham.errors import (
    NonFiniteInput,
    NonPositiveCoordinate,
    OutsideLegendreDomain,
    RhsDomainError,
    SingularDenominator,
    StepAcrossSingularity,
)
from sirham.integrators import (
    _GAUSS2_NODES,
    _RECORDS,
    step_explicit_euler,
    step_implicit_midpoint,
    step_rk4,
    step_symplectic_euler,
    step_time_fe_cg1,
    step_variational_midpoint,
)

from finite_differences import JACOBIAN_POINTS, assert_jacobian_matches

TOL = 1e-9
ALL = list(Formulation)


# ---------------------------------------------------------------------------
# references

def ref_step_explicit_euler(rhs, y, dt):
    f = rhs(y)
    return tuple(yi + dt * fi for yi, fi in zip(y, f))


def ref_step_rk4(rhs, y, dt):
    half = 0.5 * dt
    k1 = rhs(y)
    k2 = rhs(tuple(yi + half * ki for yi, ki in zip(y, k1)))
    k3 = rhs(tuple(yi + half * ki for yi, ki in zip(y, k2)))
    k4 = rhs(tuple(yi + dt * ki for yi, ki in zip(y, k3)))
    sixth = dt / 6.0
    return tuple(
        yi + sixth * (a + 2.0 * (b + c) + d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    )


def ref_gradient_direct(z, params):
    i, s = z
    if not (math.isfinite(i) and math.isfinite(s)):
        raise NonFiniteInput(f"state must be finite, got {z}")
    if s == 0.0:
        raise SingularDenominator("gamma/S undefined at S = 0")
    if s < 0.0:
        raise NonPositiveCoordinate(f"susceptible fraction must be positive, got {s}")
    return (params.beta, params.beta - params.gamma / s)


def ref_gradient_log(z, params):
    li, ls = z
    if not (math.isfinite(li) and math.isfinite(ls)):
        raise NonFiniteInput(f"state must be finite, got {z}")
    return (params.beta * math.exp(li), params.beta * math.exp(ls) - params.gamma)


REF_GRADIENT = {Chart.DIRECT: ref_gradient_direct, Chart.LOGARITHMIC: ref_gradient_log}


def ref_rescaled_accel(i_rate, params):
    if not math.isfinite(i_rate):
        raise NonFiniteInput(f"rate must be finite, got {i_rate}")
    d = params.beta - i_rate
    return -params.r0 * d * d


def ref_extended_rates(y, params, chart, tol):
    # the constraint test refuses a NaN residual in either slot
    norm = max(abs(y[0] + 2.0 * y[3]), abs(y[1] - 2.0 * y[2]))
    if math.isnan(y[0] + 2.0 * y[3]) or math.isnan(y[1] - 2.0 * y[2]):
        norm = math.nan
    if not norm <= tol:
        raise ConstraintViolation(
            f"constraint norm {norm:.3e} exceeds tolerance {tol:.3e} at coords {(y[0], y[1])}"
        )
    g = REF_GRADIENT[chart]((y[0], y[1]), params)
    return (g[1], -g[0], -0.5 * g[0], -0.5 * g[1])


def reference_rhs(formulation, params):
    """The rate closure each record built before its kernel was flattened."""
    chart = formulation.chart
    if formulation is Formulation.BASIC_T:
        return lambda y: dynamics.sir_rhs(y, params)
    if formulation in (Formulation.RESCALED_TAU, Formulation.LOG_T):
        return lambda y: apply_J(REF_GRADIENT[chart](y, params))
    if formulation is Formulation.SINGLE_ODE_DIRECT:
        return lambda y: (y[1], ref_rescaled_accel(y[1], params))
    if formulation is Formulation.SINGLE_ODE_LOG:
        return lambda y: (y[1], dynamics.log_accel(y[0], y[1], params))
    return lambda y: ref_extended_rates(y, params, chart, TOL)


def at(f, params):
    """``f(y, params)`` as the one-argument closure the reference steps take."""
    return lambda y: f(y, params)


def record_rates(formulation, params):
    """The rates of a ``formulation`` state at ``params``: the record's, or on
    a 4-d state the rates behind ``extended_rhs``."""
    if formulation.dim == 4:
        return lambda y: hamiltonian._extended_rates(y, params, formulation.chart, TOL)
    return at(_RECORDS[formulation].rhs(), params)


#: the canonical formulation whose record an extended formulation marches
CANONICAL = {Chart.DIRECT: Formulation.RESCALED_TAU, Chart.LOGARITHMIC: Formulation.LOG_T}


def marched(formulation):
    """The formulation whose record the march steps: an extended run marches
    its chart's canonical record."""
    return CANONICAL[formulation.chart] if formulation.dim == 4 else formulation


def ref_extended_lagrangian_gradients(coords, rates, params, chart):
    g = REF_GRADIENT[chart](coords, params)
    jq = apply_J(coords)
    jr = apply_J(rates)
    d_coords = (-0.5 * jr[0] - g[0], -0.5 * jr[1] - g[1])
    d_rates = (0.5 * jq[0], 0.5 * jq[1])
    return d_coords, d_rates


def ref_hessian(z, params, chart):
    if chart is Chart.DIRECT:
        return hamiltonian.hessian_direct(z, params)
    return hamiltonian.hessian_log(z, params)


def ref_solve2(a00, a01, a10, a11, b0, b1):
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


def ref_solve(a, b):
    n = len(b)
    if n == 2:
        return ref_solve2(a[0][0], a[0][1], a[1][0], a[1][1], b[0], b[1])
    if n == 1:
        if a[0][0] == 0.0:
            raise NewtonDivergence("singular Jacobian in Newton iteration: zero pivot")
        return (b[0] / a[0][0],)
    return ref_solve_gauss(a, b)


def ref_solve_gauss(a, b):
    """Gaussian elimination with partial pivoting, for the 4-d Newton systems
    of the extended state."""
    n = len(b)
    rows = [list(row) + [bk] for row, bk in zip(a, b)]
    for k in range(n):
        pivot = max(range(k, n), key=lambda j: abs(rows[j][k]))
        rows[k], rows[pivot] = rows[pivot], rows[k]
        if rows[k][k] == 0.0:
            raise NewtonDivergence("singular Jacobian in Newton iteration: zero pivot")
        for row in rows[k + 1:]:
            m = row[k] / rows[k][k]
            for j in range(k, n + 1):
                row[j] -= m * rows[k][j]
    x = [0.0] * n
    for k in reversed(range(n)):
        x[k] = (rows[k][n] - sum(rows[k][j] * x[j] for j in range(k + 1, n))) / rows[k][k]
    return tuple(x)


def ref_shifted(c, d):
    return tuple(
        tuple((1.0 - c * x) if j == k else -c * x for j, x in enumerate(row))
        for k, row in enumerate(d)
    )


def ref_newton(residual, jacobian, y0, tol, max_iter):
    # max() drops a NaN that is not first: the defect the flat test mends
    y = y0
    r = residual(y)
    for _ in range(max_iter):
        norm = max(abs(c) for c in r)
        if norm <= tol:
            return y
        delta = ref_solve(jacobian(y), r)
        y = tuple(yi - di for yi, di in zip(y, delta))
        if not all(math.isfinite(c) for c in y):
            raise NewtonDivergence(f"Newton iterate left the finite range: {y}")
        r = residual(y)
    norm = max(abs(c) for c in r)
    if norm <= tol:
        return y
    raise NewtonDivergence(
        f"no convergence after {max_iter} iterations, residual norm {norm:.3e}"
    )


def ref_step_symplectic_euler(rhs, jac, y, dt, *, tol=1e-12, max_iter=50, separable=False):
    n = len(y)
    if n % 2:
        raise ScenarioError("symplectic Euler needs an even-dimensional state")
    nq = n // 2
    f0 = rhs(y)
    q_new = tuple(y[k] + dt * f0[k] for k in range(nq))
    if separable:
        f1 = rhs(q_new + y[nq:])
        return q_new + tuple(y[k] + dt * f1[k] for k in range(nq, n))

    def residual(p):
        f = rhs(q_new + p)
        return tuple(p[k] - y[nq + k] - dt * f[nq + k] for k in range(n - nq))

    def jacobian(p):
        d = jac(q_new + p)
        return ref_shifted(dt, tuple(row[nq:] for row in d[nq:]))

    p_pred = tuple(y[nq + k] + dt * f0[nq + k] for k in range(n - nq))
    p_new = ref_newton(residual, jacobian, p_pred, tol, max_iter)
    return q_new + p_new


def ref_step_implicit_midpoint(rhs, jac, y, dt, *, tol=1e-12, max_iter=50):
    def residual(u):
        mid = tuple(0.5 * (yi + ui) for yi, ui in zip(y, u))
        f = rhs(mid)
        return tuple(ui - yi - dt * fi for ui, yi, fi in zip(u, y, f))

    def jacobian(u):
        return ref_shifted(0.5 * dt, jac(tuple(0.5 * (yi + ui) for yi, ui in zip(y, u))))

    return ref_newton(residual, jacobian, ref_step_explicit_euler(rhs, y, dt), tol, max_iter)


def ref_step_variational_midpoint(coords, dt, params, chart, *, tol=1e-12, max_iter=50):
    # the rates go through the module, so that a counting wrapper sees them
    p_now = lagrangian.extended_lagrangian_gradients(coords, (0.0, 0.0), params, chart)[1]

    def residual(q_new):
        mid = (0.5 * (coords[0] + q_new[0]), 0.5 * (coords[1] + q_new[1]))
        rate = ((q_new[0] - coords[0]) / dt, (q_new[1] - coords[1]) / dt)
        d_mid, d_rate = lagrangian.extended_lagrangian_gradients(mid, rate, params, chart)
        return (
            p_now[0] + 0.5 * dt * d_mid[0] - d_rate[0],
            p_now[1] + 0.5 * dt * d_mid[1] - d_rate[1],
        )

    def jacobian(q_new):
        mid = (0.5 * (coords[0] + q_new[0]), 0.5 * (coords[1] + q_new[1]))
        h0, h1 = ref_hessian(mid, params, chart)
        c = 0.25 * dt
        return ((-c * h0, -0.5), (0.5, -c * h1))

    if chart is Chart.DIRECT:
        flow = hamiltonian.hamilton_rhs_direct
    else:
        flow = hamiltonian.hamilton_rhs_log
    predictor = ref_step_explicit_euler(lambda z: flow(z, params), coords, dt)
    return ref_newton(residual, jacobian, predictor, tol, max_iter)


def ref_step_time_fe_cg1(rhs, jac, y, dt, *, quadrature="gauss2", tol=1e-12, max_iter=50):
    if quadrature == "gauss2":
        nodes, weights = _GAUSS2_NODES, (0.5, 0.5)
    elif quadrature == "midpoint":
        nodes, weights = (0.5,), (1.0,)
    else:
        raise ScenarioError(f"unknown quadrature {quadrature!r}")

    def residual(u):
        acc = [0.0] * len(y)
        for sigma, w in zip(nodes, weights):
            stage = tuple((1.0 - sigma) * yi + sigma * ui for yi, ui in zip(y, u))
            f = rhs(stage)
            for k, fk in enumerate(f):
                acc[k] += w * fk
        return tuple(ui - yi - dt * ak for ui, yi, ak in zip(u, y, acc))

    def jacobian(u):
        n = len(y)
        acc = [[0.0] * n for _ in range(n)]
        for sigma, w in zip(nodes, weights):
            d = jac(tuple((1.0 - sigma) * yi + sigma * ui for yi, ui in zip(y, u)))
            ws = w * sigma
            for row, drow in zip(acc, d):
                for j in range(n):
                    row[j] += ws * drow[j]
        return ref_shifted(dt, acc)

    return ref_newton(residual, jacobian, ref_step_explicit_euler(rhs, y, dt), tol, max_iter)


REF_STEP = {
    Method.SYMPLECTIC_EULER: ref_step_symplectic_euler,
    Method.IMPLICIT_MIDPOINT: ref_step_implicit_midpoint,
    Method.TIME_FE_CG1_GAUSS2: ref_step_time_fe_cg1,
}


def ref_stepper(spec, rec, params):
    """The stepper ``_make_stepper`` builds, with the reference steps."""
    kw = {"tol": spec.newton_tol, "max_iter": spec.newton_max_iter}
    if spec.method is Method.VARIATIONAL_MIDPOINT:
        chart = spec.formulation.chart
        return partial(ref_step_variational_midpoint, params=params, chart=chart, **kw)
    if spec.method is Method.SYMPLECTIC_EULER:
        kw["separable"] = rec.separable
    return partial(REF_STEP[spec.method], at(rec.rhs(), params), at(rec.jac(), params), **kw)


def outcome(f, *args, **kwargs):
    """What a call returns, or the type and message of what it raises."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:
        return (type(exc), str(exc))


def random_point(rng):
    """Parameters and an epidemic start drawn over a wide range."""
    params = EpidemicParams(beta=rng.uniform(0.05, 1.0), gamma=rng.uniform(0.02, 0.5))
    i0 = rng.uniform(1e-5, 0.6)
    s0 = rng.uniform(1e-3, 1.0 - i0)
    return params, i0, s0


# ---------------------------------------------------------------------------
# identical values


@pytest.mark.parametrize("formulation", ALL, ids=lambda f: f.value)
def test_record_rates_equal_the_reference(start_state, formulation):
    rng = random.Random(f"rates-{formulation.value}")
    for _ in range(300):
        params, i0, s0 = random_point(rng)
        y = start_state(formulation, i0, s0, params)
        if formulation.dim == 2:
            # off the start's level set too
            y = (y[0] * rng.uniform(0.5, 1.5), y[1] * rng.uniform(0.9, 1.1))
        assert record_rates(formulation, params)(y) == reference_rhs(formulation, params)(y)


@pytest.mark.parametrize(
    "method,step,reference",
    [
        ("rk4", step_rk4, ref_step_rk4),
        ("explicit_euler", step_explicit_euler, ref_step_explicit_euler),
    ],
    ids=["rk4", "explicit_euler"],
)
@pytest.mark.parametrize("formulation", ALL, ids=lambda f: f.value)
def test_marched_states_equal_the_reference(formulation, method, step, reference):
    """Forty steps of the stepper the march builds, and of the step function
    itself, against the zip-based step on the reference rates.  An extended
    formulation's record is its chart's, and so are its reference rates."""
    rng = random.Random(f"march-{formulation.value}-{method}")
    rec = _RECORDS[formulation]
    for _ in range(20):
        params, i0, s0 = random_point(rng)
        # the tau clock moves S by -beta*tau: keep 20 % of s0 in hand
        dt = 0.1 if formulation.clock == "t" else 0.02 * s0 / params.beta
        spec = RunSpec(method=method, formulation=formulation, dt=dt, t_end=40 * dt)
        stepper = integrators._make_stepper(spec, rec, params)
        new = partial(step, rec.rhs(), params)
        ref = partial(reference, reference_rhs(marched(formulation), params))
        y = z = w = rec.start(i0, s0, params)
        for _ in range(40):
            y, z, w = stepper(y, dt), new(z, dt), ref(w, dt)
            assert y == z == w


# ---------------------------------------------------------------------------
# identical refusals

BAD_VALUES = [0.0, -0.1, math.nan, math.inf, -math.inf]


def bad_states(formulation, value):
    """A valid state with ``value`` in one slot; the momenta of an extended
    state are the consistent ones, so only the coordinates are bad."""
    params = EpidemicParams(beta=0.3, gamma=0.1)
    q = _RECORDS[formulation].start(0.01, 0.99, params)
    for slot in (0, 1):
        z = tuple(value if k == slot else x for k, x in enumerate(q))
        yield params, (z + hamiltonian.consistent_momenta(z) if formulation.dim == 4 else z)


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("formulation", ALL, ids=lambda f: f.value)
def test_refusals_equal_the_reference(formulation, value):
    """S = 0, S < 0, NaN and infinities: same exception type and message,
    or the same rates where the reference accepts the point."""
    for params, y in bad_states(formulation, value):
        got = outcome(record_rates(formulation, params), y)
        want = outcome(reference_rhs(formulation, params), y)
        assert repr(got) == repr(want), (y, got, want)


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("slot", [0, 1])
def test_gradients_refuse_as_before(slot, value):
    params = EpidemicParams(beta=0.3, gamma=0.1)
    z = tuple(value if k == slot else x for k, x in enumerate((0.01, 0.99)))
    for new, ref in [
        (hamiltonian.gradient_direct, ref_gradient_direct),
        (hamiltonian.gradient_log, ref_gradient_log),
    ]:
        assert repr(outcome(new, z, params)) == repr(outcome(ref, z, params))


def test_the_refusals_are_the_documented_ones():
    """The reference is not vacuous: each kind of bad point is refused."""
    params = EpidemicParams(beta=0.3, gamma=0.1)
    rhs = _RECORDS[Formulation.RESCALED_TAU].rhs()
    with pytest.raises(SingularDenominator):
        rhs((0.01, 0.0), params)
    with pytest.raises(NonPositiveCoordinate):
        rhs((0.01, -0.1), params)
    with pytest.raises(NonFiniteInput):
        rhs((math.nan, 0.99), params)
    with pytest.raises(NonFiniteInput):
        _RECORDS[Formulation.LOG_T].rhs()((0.0, math.inf), params)


# ---------------------------------------------------------------------------
# one counted rhs call per stage

#: the rhs names the benchmark's traced pass wraps, by module
TRACED_RHS = {
    dynamics: ("sir_rhs", "rescaled_accel", "log_accel"),
    hamiltonian: ("hamilton_rhs_direct", "hamilton_rhs_log", "_extended_rates"),
    lagrangian: ("extended_lagrangian_gradients",),
}
KERNEL = {
    Formulation.BASIC_T: "sir_rhs",
    Formulation.RESCALED_TAU: "hamilton_rhs_direct",
    Formulation.LOG_T: "hamilton_rhs_log",
    Formulation.SINGLE_ODE_DIRECT: "rescaled_accel",
    Formulation.SINGLE_ODE_LOG: "log_accel",
    Formulation.EXTENDED_4D_DIRECT: "hamilton_rhs_direct",
    Formulation.EXTENDED_4D_LOG: "hamilton_rhs_log",
}


@pytest.fixture
def rhs_calls(monkeypatch):
    """Names of the traced rhs functions called, in call order."""
    calls = []
    for module, names in TRACED_RHS.items():
        for name in names:

            def counting(*args, _fn=getattr(module, name), _name=name):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("method,per_step", [("rk4", 4), ("explicit_euler", 1)])
@pytest.mark.parametrize("formulation", ALL, ids=lambda f: f.value)
def test_each_stage_is_one_counted_rhs_call(
    init, schedule, rhs_calls, formulation, method, per_step
):
    """A traced rhs that called another would count twice; a stage that went
    around the traced name would not count."""
    dt = 0.1 if formulation.clock == "t" else 0.005
    spec = RunSpec(method=method, formulation=formulation, dt=dt, t_end=40 * dt)
    integrate(spec, init, schedule)
    assert rhs_calls == [KERNEL[formulation]] * (per_step * 40)


@pytest.mark.parametrize("step_name", ["step_rk4", "step_explicit_euler"])
@pytest.mark.parametrize("formulation", ALL, ids=lambda f: f.value)
def test_a_wrapped_step_sees_every_step(init, schedule, monkeypatch, formulation, step_name):
    """The stepper binds the step function when the march builds it, so a
    wrapper installed before ``integrate`` is called still sees each step."""
    calls = []
    step = getattr(integrators, step_name)

    def counting(*args):
        calls.append(None)
        return step(*args)

    monkeypatch.setattr(integrators, step_name, counting)
    dt = 0.1 if formulation.clock == "t" else 0.005
    method = step_name.removeprefix("step_")
    integrate(RunSpec(method=method, formulation=formulation, dt=dt, t_end=40 * dt), init, schedule)
    assert len(calls) == 40


@pytest.mark.parametrize("method,per_step", [("rk4", 4), ("explicit_euler", 1)])
@pytest.mark.parametrize(
    "formulation", [f for f in ALL if f.clock == "t"], ids=lambda f: f.value
)
def test_a_wrapped_kernel_sees_each_segments_params(
    init, monkeypatch, formulation, method, per_step
):
    """The step hands every stage the active segment's own ``EpidemicParams``:
    on three segments, the second and third closing on a short step, a
    kernel wrapper installed before ``integrate`` sees 10, 16 and 15 steps'
    stages, each call carrying its segment's parameters as its last
    argument."""
    seen = []
    name = KERNEL[formulation]
    module = dynamics if hasattr(dynamics, name) else hamiltonian
    kernel = getattr(module, name)

    def wrapped(*args):
        seen.append(args[-1])
        return kernel(*args)

    monkeypatch.setattr(module, name, wrapped)
    params = (EpidemicParams(0.3, 0.1), EpidemicParams(0.15, 0.1), EpidemicParams(0.3, 0.25))
    schedule = ParamSchedule(switch_times=(0.0, 1.0, 2.55), params=params)
    spec = RunSpec(method=method, formulation=formulation, dt=0.1, t_end=4.0)
    integrate(spec, init, schedule)
    want = [p for p, n in zip(params, (10, 16, 15)) for _ in range(per_step * n)]
    assert len(seen) == len(want)
    assert all(got is p for got, p in zip(seen, want))


# ---------------------------------------------------------------------------
# the march against a step-by-step reference
#
# ``integrate`` only steps, and takes the other clock, the dilation floor and
# the kept samples in one pass over all the states after the march.  The
# reference is the loop it replaced, which did all of that after every step,
# with the scalar dilations that loop called.


def ref_rate_dilation_direct(y, params):
    beta = params.beta
    if y[1] >= beta:
        raise OutsideLegendreDomain(
            f"rate {y[1]} reached beta = {beta}; susceptible fraction undefined"
        )
    return y[0] * params.gamma / (beta - y[1])


def ref_rate_dilation_log(y, params):
    gamma = params.gamma
    if y[1] <= -gamma:
        raise OutsideLegendreDomain(
            f"rate {y[1]} reached -gamma = {-gamma}; susceptible fraction undefined"
        )
    return math.exp(y[0]) * (y[1] + gamma) / params.beta


def ref_dilation(formulation):
    """S*I of one marched state, as the reference loop took it."""
    if formulation is Formulation.SINGLE_ODE_DIRECT:
        return ref_rate_dilation_direct
    if formulation is Formulation.SINGLE_ODE_LOG:
        return ref_rate_dilation_log
    if formulation.chart is Chart.DIRECT:
        return lambda y, params: y[0] * y[1]
    return lambda y, params: math.exp(y[0] + y[1])


def ref_march(spec, init, schedule):
    """The kept samples' ``t`` and ``tau`` columns and states, from a loop
    that takes the dilation, the trapezoid, the floor test and the keep
    rule after every step; or the type and message of what it raised."""
    form = spec.formulation
    segments = schedule.segments(spec.t_end)
    rec, dilation = _RECORDS[form], ref_dilation(form)
    y = rec.start(init.i, init.s, segments[0][2])
    dt, stride = spec.dt, spec.sample_stride
    rows = [(0.0, 0.0, *y)]
    sec, step_no, t_now = 0.0, 0, 0.0
    try:
        for seg_id, (a, b, pars) in enumerate(segments):
            n, h_last = integrators._segment_steps(b - a, dt)
            if seg_id > 0:
                y = rec.remap(y, segments[seg_id - 1][2], pars)
            stepper = integrators._make_stepper(spec, rec, pars)
            dil_prev = dilation(y, pars)
            for k in range(n):
                h = h_last if k == n - 1 else dt
                y = stepper(y, h)
                dil_now = dilation(y, pars)
                if form.clock == "t":
                    sec += 0.5 * h * (dil_prev + dil_now)
                else:
                    if dil_now < integrators.RUN_DILATION_FLOOR:
                        raise StepAcrossSingularity(
                            f"S*I fell to {dil_now:.3e}; the run crossed the "
                            "singularity of the time map"
                        )
                    sec += 0.5 * h * (1.0 / dil_prev + 1.0 / dil_now)
                dil_prev = dil_now
                t_now = b if k == n - 1 else a + (k + 1) * dt
                step_no += 1
                if step_no % stride == 0 or k == n - 1:
                    rows.append((t_now, sec, *y))
    except (NewtonDivergence, RhsDomainError, StepAcrossSingularity) as exc:
        return (type(exc), f"step {step_no + 1} from clock {t_now:.6g}: {exc}")
    except OverflowError as exc:
        where = f"step {step_no + 1} from clock {t_now:.6g}"
        return (NonFiniteInput, f"{where}: a value overflowed ({exc})")
    own, other, y0, y1 = np.array(rows).T
    t, tau = (own, other) if form.clock == "t" else (other, own)
    return t, tau, np.column_stack((y0, y1))


def rising_rate(monkeypatch):
    """The rate of ``single_ode_direct`` climbs at 13 per unit tau; at dt
    0.01 a step carries it from below beta - gamma, where S <= 1, to beyond
    beta.  The true acceleration never lets it rise."""
    monkeypatch.setattr(dynamics, "rescaled_accel", lambda rate, params: 13.0)


P3 = EpidemicParams(beta=0.3, gamma=0.1)
THREE_SEGMENTS = ParamSchedule(
    switch_times=(0.0, 30.0, 61.5),
    params=(P3, EpidemicParams(beta=0.15, gamma=0.1), EpidemicParams(beta=0.3, gamma=0.25)),
)
#: name -> (run, start (s, i), schedule, patch, what the march raises); each
#: failure comes before a later one of the bare march, named in the comment.
#: The reference tests no state against the simplex, so every state before
#: a case's failure is inside it.
MARCH_CASES = {
    # the floor at step 1553; S < 0 stops the bare march at step 1650
    "floor_crossing": (
        dict(method="rk4", formulation="rescaled_tau", dt=0.002, t_end=3.5, sample_stride=7),
        (0.99, 0.01), ParamSchedule.constant(P3), None, StepAcrossSingularity,
    ),
    # the rate passes beta in step 2; the bare march runs to the end
    "rate_reaching_beta": (
        dict(method="rk4", formulation="single_ode_direct", dt=0.01, t_end=0.5),
        (0.4, 0.01), ParamSchedule.constant(P3), rising_rate, OutsideLegendreDomain,
    ),
    "rate_reaching_minus_gamma": (
        dict(method="explicit_euler", formulation="single_ode_log", dt=8.0, t_end=40.0),
        (0.6, 0.3), ParamSchedule.constant(P3), None, OutsideLegendreDomain,
    ),
    # beta jumps to 3 at t = 30, and the rate passes -gamma in step 32, the
    # second of the second segment
    "rate_reaching_minus_gamma_after_a_switch": (
        dict(method="explicit_euler", formulation="single_ode_log", dt=1.0, t_end=100.0),
        (0.99, 0.01),
        ParamSchedule(switch_times=(0.0, 30.0), params=(P3, EpidemicParams(beta=3.0, gamma=0.1))),
        None, OutsideLegendreDomain,
    ),
    # beta jumps to 5 instead, and the rate passes -gamma in step 31, the
    # first of the second segment
    "rate_reaching_minus_gamma_at_a_switch": (
        dict(method="explicit_euler", formulation="single_ode_log", dt=1.0, t_end=100.0),
        (0.99, 0.01),
        ParamSchedule(switch_times=(0.0, 30.0), params=(P3, EpidemicParams(beta=5.0, gamma=0.1))),
        None, OutsideLegendreDomain,
    ),
    # ln I jumps past 870 in step 1, whose dilation overflows; the rates of
    # step 2 overflow in the bare march
    "log_dilation_overflow": (
        dict(method="explicit_euler", formulation="log_t", dt=30.0, t_end=90.0),
        (0.99, 1e-6), ParamSchedule.constant(EpidemicParams(beta=30.0, gamma=0.1)), None,
        NonFiniteInput,
    ),
    # the rate passes -gamma in step 1; Newton gives up in step 2
    "newton_after_a_refusal": (
        dict(method="implicit_midpoint", formulation="single_ode_log", dt=20.0, t_end=400.0),
        (0.99, 0.01), ParamSchedule.constant(EpidemicParams(beta=1.0, gamma=0.1)), None,
        OutsideLegendreDomain,
    ),
    # a completed log-chart run: each tau step is the trapezoid of the
    # dilation exp(ln I + ln S), bit for bit
    "log_t_explicit_euler": (
        dict(method="explicit_euler", formulation="log_t", dt=0.1, t_end=100.0),
        (0.99, 0.01), ParamSchedule.constant(P3), None, None,
    ),
    "zero_horizon": (
        dict(method="rk4", formulation="basic_t", dt=0.1, t_end=0.0),
        (0.99, 0.01), ParamSchedule.constant(P3), None, None,
    ),
    "three_segments_rk4": (
        dict(method="rk4", formulation="single_ode_log", dt=0.1, t_end=100.0, sample_stride=7),
        (0.99, 0.01), THREE_SEGMENTS, None, None,
    ),
    "three_segments_implicit": (
        dict(method="implicit_midpoint", formulation="single_ode_log", dt=4.0, t_end=100.0),
        (0.99, 0.01), THREE_SEGMENTS, None, None,
    ),
}


@pytest.mark.parametrize("case", list(MARCH_CASES))
def test_the_march_equals_the_step_by_step_reference(monkeypatch, case):
    """Equal ``t``, ``tau`` and states, bit for bit, or the same exception
    type and message: a dilation failure still wins over a failure of a
    later step."""
    run, (s0, i0), schedule, patch, raised = MARCH_CASES[case]
    if patch is not None:
        patch(monkeypatch)
    spec, init = RunSpec(**run), recovered_from(s0, i0)
    want = ref_march(spec, init, schedule)
    got = outcome(integrate, spec, init, schedule)
    if raised is not None:
        assert want[0] is raised
        assert got == want
        return
    t, tau, states = want
    for name, column in [("t", t), ("tau", tau), ("coords", states)]:
        assert getattr(got, name).tobytes() == column.tobytes(), name


# ---------------------------------------------------------------------------
# the Newton iterations of the implicit steps

IMPLICIT = [
    Method.SYMPLECTIC_EULER,
    Method.IMPLICIT_MIDPOINT,
    Method.VARIATIONAL_MIDPOINT,
    Method.TIME_FE_CG1_GAUSS2,
]


def accepted(method, formulation):
    try:
        RunSpec(method=method, formulation=formulation, dt=0.1, t_end=1.0)
    except ScenarioError:
        return False
    return True


#: what ``_make_stepper`` builds for the implicit methods; an extended
#: formulation's record is the canonical record of its chart
IMPLICIT_CASES = [(m, f) for m in IMPLICIT for f in ALL if accepted(m, f)]


@pytest.mark.parametrize(
    "method,formulation", IMPLICIT_CASES, ids=lambda x: x.value
)
def test_implicit_steps_equal_the_reference(rhs_calls, method, formulation):
    """Forty steps from twenty starts of the stepper the march builds, against
    the same stepper built from the reference steps: equal states, or equal
    refusals, and the same traced rhs calls in each step.  The variational
    step reads the momentum ``(1/2) J Q`` off its start, so it skips the
    reference's first call, the gradients at that start."""
    rng = random.Random(f"implicit-{method.value}-{formulation.value}")
    rec = _RECORDS[formulation]
    n_marched = 0
    for _ in range(20):
        params, i0, s0 = random_point(rng)
        dt = 0.1 if formulation.clock == "t" else 0.02 * s0 / params.beta
        spec = RunSpec(method=method, formulation=formulation, dt=dt, t_end=40 * dt)
        stepper = integrators._make_stepper(spec, rec, params)
        reference = ref_stepper(spec, rec, params)
        y = z = rec.start(i0, s0, params)
        for _ in range(40):
            rhs_calls.clear()
            y = outcome(stepper, y, dt)
            got = list(rhs_calls)
            rhs_calls.clear()
            z = outcome(reference, z, dt)
            assert y == z
            if method is Method.VARIATIONAL_MIDPOINT:
                assert rhs_calls.pop(0) == "extended_lagrangian_gradients"
            assert got == rhs_calls and got
            if isinstance(y[0], type):
                break
            n_marched += 1
    # the comparison is not vacuous: most starts march all forty steps
    assert n_marched >= 40 * 15


@pytest.fixture
def ref_newton_systems(monkeypatch):
    """The residual, the Jacobian at the start, and the start of each call
    of the reference Newton iteration, in call order."""
    seen = []
    newton = ref_newton

    def capture(residual, jacobian, y0, tol, max_iter):
        seen.append((residual, jacobian(y0), y0))
        return newton(residual, jacobian, y0, tol, max_iter)

    monkeypatch.setitem(globals(), "ref_newton", capture)
    return seen


@pytest.mark.parametrize(
    "method,formulation", IMPLICIT_CASES, ids=lambda x: x.value
)
def test_reference_newton_jacobians_match_their_residuals(ref_newton_systems, method, formulation):
    """The Jacobian of each reference step's Newton system at its predictor,
    against central differences of its residual, for the stepper the march
    builds at each of the Jacobian points.  Symplectic Euler on a separable
    record never reaches Newton, and elsewhere solves for the momentum
    alone.  The steps of the march equal these references bit for bit, in
    their states and in their traced calls
    (``test_implicit_steps_equal_the_reference``)."""
    rec = _RECORDS[formulation]
    spec = RunSpec(method=method, formulation=formulation, dt=0.05, t_end=1.0)
    for i0, s0, beta, gamma in JACOBIAN_POINTS:
        params = EpidemicParams(beta, gamma)
        ref_newton_systems.clear()
        ref_stepper(spec, rec, params)(rec.start(i0, s0, params), 0.05)
        if method is Method.SYMPLECTIC_EULER and rec.separable:
            assert ref_newton_systems == []
            continue
        (residual, jacobian, u), = ref_newton_systems
        assert len(u) == (1 if method is Method.SYMPLECTIC_EULER else 2)
        assert_jacobian_matches(jacobian, residual, u)


# ---------------------------------------------------------------------------
# the extended-space claim, graded by a real 4-d march
#
# The march steps an extended run's coordinate block alone and appends the
# momenta P = (1/2) J Q.  The references below step the whole 4-d state on
# the rates behind ``extended_rhs``, so that the paper's claim, that the
# extended flow keeps the constraint C = Q + 2 J P = 0 and with it those
# momenta, stays graded by a march that carries the momenta as state.


def ref_extended_jac(params, chart):
    """The Jacobian of the 4-d rates ``(g1, -g0, -g0/2, -g1/2)``, where
    ``g = grad H(Q)`` has the diagonal Hessian ``(h0, h1)``."""

    def jac(y):
        h0, h1 = ref_hessian((y[0], y[1]), params, chart)
        return (
            (0.0, h1, 0.0, 0.0),
            (-h0, 0.0, 0.0, 0.0),
            (-0.5 * h0, 0.0, 0.0, 0.0),
            (0.0, -0.5 * h1, 0.0, 0.0),
        )

    return jac


def ref_step_partitioned_euler(rates, jac, y, dt):
    """Symplectic Euler on ``(q0, q1, P0, P1)`` grouped ``(q0, P1) | (q1, P0)``:
    the first group steps with the old second group, the second group with
    the new first.  Each component of C lies in one group."""
    f = rates(y)
    q0, p1 = y[0] + dt * f[0], y[3] + dt * f[3]
    g = rates((q0, y[1], y[2], p1))
    return (q0, y[1] + dt * g[1], y[2] + dt * g[2], p1)


#: the 4-d reference step of each method the extended formulations accept
REF_STEP_4D = {
    Method.EXPLICIT_EULER: lambda rates, jac, y, dt: ref_step_explicit_euler(rates, y, dt),
    Method.RK4: lambda rates, jac, y, dt: ref_step_rk4(rates, y, dt),
    Method.SYMPLECTIC_EULER: ref_step_partitioned_euler,
    Method.IMPLICIT_MIDPOINT: ref_step_implicit_midpoint,
    Method.TIME_FE_CG1_GAUSS2: ref_step_time_fe_cg1,
}
#: the fixed grid: rates, starts (i0, s0), and steps in each clock; the tau
#: clock moves S by -beta*tau, so 40 of its steps stay well inside S > 0
GRID_4D_PARAMS = [EpidemicParams(beta=0.3, gamma=0.1), EpidemicParams(beta=0.8, gamma=0.25)]
GRID_4D_STARTS = [(0.01, 0.99), (0.1, 0.8), (0.3, 0.5)]
GRID_4D_DT = {"t": (0.1, 0.5, 1.0), "tau": (0.002, 0.01)}
N_4D = 40


@pytest.mark.parametrize("method", list(REF_STEP_4D), ids=lambda m: m.value)
@pytest.mark.parametrize("formulation", [f for f in ALL if f.dim == 4], ids=lambda f: f.value)
def test_a_4d_march_keeps_the_constraint_and_the_rebuilt_momenta(
    start_state, formulation, method
):
    """Over the fixed grid, the reference 4-d march keeps |C| within
    n_steps * 8 eps * max|Q| at every step, and its momenta equal the
    momentum columns of the run's trajectory, ``consistent_momenta`` of the
    coordinate march, within the same bound.  The bound is a rounding
    budget of 8 eps per step, fixed before measuring."""
    eps = 2.0**-52
    step = REF_STEP_4D[method]
    for params in GRID_4D_PARAMS:
        rates = partial(
            hamiltonian._extended_rates, params=params, chart=formulation.chart, constraint_tol=TOL
        )
        jac = ref_extended_jac(params, formulation.chart)
        for i0, s0 in GRID_4D_STARTS:
            for dt in GRID_4D_DT[formulation.clock]:
                spec = RunSpec(method=method, formulation=formulation, dt=dt, t_end=N_4D * dt)
                traj = integrate(spec, recovered_from(s0, i0), ParamSchedule.constant(params))
                assert traj.n_samples == N_4D + 1
                states = [start_state(formulation, i0, s0, params)]
                for _ in range(N_4D):
                    states.append(step(rates, jac, states[-1], dt))
                bound = N_4D * 8.0 * eps * max(max(abs(y[0]), abs(y[1])) for y in states)
                for (q0, q1, p0, p1), (r0, r1) in zip(states, traj.coords[:, 2:].tolist()):
                    assert abs(q0 + 2.0 * p1) <= bound and abs(q1 - 2.0 * p0) <= bound
                    assert abs(p0 - r0) <= bound and abs(p1 - r1) <= bound


P = EpidemicParams(beta=0.3, gamma=0.1)
LOG, BASIC = _RECORDS[Formulation.LOG_T], _RECORDS[Formulation.BASIC_T]
LOG_START = LOG.start(0.01, 0.99, P)
BASIC_START = BASIC.start(0.01, 0.99, P)


def nan_rhs(z, params):
    return (math.nan, math.nan)


def momentum_jac(value):
    return lambda z, params: ((0.0, 0.0), (0.0, value))


def paired(step, ref, args, **kwargs):
    """``step`` on ``args = (rhs, jac, y, dt)`` at P, and ``ref`` on the same
    rates bound to P."""
    rhs, jac, y, dt = args
    return (
        partial(step, rhs, jac, P, y, dt, **kwargs),
        partial(ref, at(rhs, P), at(jac, P), y, dt, **kwargs),
    )


def rhs_steps(args, **kwargs):
    """Each step that takes an rhs and its Jacobian, with its reference."""
    return [
        paired(step, ref, args, **kwargs)
        for step, ref in [
            (step_implicit_midpoint, ref_step_implicit_midpoint),
            (step_time_fe_cg1, ref_step_time_fe_cg1),
        ]
    ]


def symplectic(args, **kwargs):
    return [paired(step_symplectic_euler, ref_step_symplectic_euler, args, **kwargs)]


def variational(dt, **kwargs):
    """The step takes the record's rhs and Jacobian, built here so that they
    see a kernel patched before the call; its reference looks them up."""
    chart = Chart.LOGARITHMIC
    return [
        (
            partial(
                step_variational_midpoint,
                LOG.rhs(),
                LOG.jac(),
                P,
                LOG_START,
                dt,
                chart=chart,
                **kwargs,
            ),
            partial(ref_step_variational_midpoint, LOG_START, dt, P, chart, **kwargs),
        )
    ]


def iteration_cap(monkeypatch):
    cap = {"tol": 0.0, "max_iter": 2}
    log = (LOG.rhs(), LOG.jac(), LOG_START, 0.05)
    basic = (BASIC.rhs(), BASIC.jac(), BASIC_START, 0.05)
    return rhs_steps(log, **cap) + symplectic(basic, **cap) + variational(0.05, **cap)


def singular_jacobian(monkeypatch):
    # every entry of I - c*D is -c*1e200 to rounding: the rows are equal
    flat = lambda z, params: ((1e200, 1e200), (1e200, 1e200))  # noqa: E731
    # (-0.5*dt/4) * (4, -4) against the fixed entries -/+0.5: equal rows
    monkeypatch.setattr(hamiltonian, "hessian_log", lambda z, params: (4.0, -4.0))
    assert 1.0 - 0.05 * 20.0 == 0.0
    return (
        rhs_steps((LOG.rhs(), flat, LOG_START, 0.05))
        + symplectic((BASIC.rhs(), momentum_jac(20.0), BASIC_START, 0.05))
        + variational(0.5)
    )


def non_finite_iterate(monkeypatch):
    nan = (math.nan, math.nan)
    monkeypatch.setattr(lagrangian, "extended_lagrangian_gradients", lambda *args: (nan, nan))

    def overflowing_rhs(z, params):
        return (0.0, 1e300 if z[1] < 1.0 else -1e300)

    # from the predictor 5e298, a momentum update of 1e299 / 1e-15 overflows
    near_singular = momentum_jac(20.0 * (1.0 - 1e-15))
    return (
        rhs_steps((nan_rhs, LOG.jac(), LOG_START, 0.05))
        + symplectic((nan_rhs, BASIC.jac(), BASIC_START, 0.05))
        + symplectic((overflowing_rhs, near_singular, BASIC_START, 0.05))
        + variational(0.05)
    )


@pytest.mark.parametrize(
    "failure,message",
    [
        (iteration_cap, "no convergence after 2 iterations"),
        (singular_jacobian, "singular Jacobian in Newton iteration: zero pivot"),
        (non_finite_iterate, "Newton iterate left the finite range: ("),
    ],
    ids=["iteration_cap", "singular_jacobian", "non_finite_iterate"],
)
def test_newton_refusals_equal_the_reference(monkeypatch, failure, message):
    """Each way Newton gives up, for every implicit step: the same exception
    type and message as the reference."""
    for new, ref in failure(monkeypatch):
        got, want = outcome(new), outcome(ref)
        assert got == want
        assert got[0] is NewtonDivergence and got[1].startswith(message), got


def test_a_1d_refusal_reports_a_1_tuple():
    """The momentum equation of symplectic Euler, a scalar Newton
    iteration, reports its iterate as a 1-tuple, as the reference does."""
    (new, _), = symplectic((nan_rhs, BASIC.jac(), BASIC_START, 0.05))
    with pytest.raises(NewtonDivergence, match=r"finite range: \(nan,\)$"):
        new()


@pytest.mark.parametrize(
    "formulation", [f for f in ALL if f.dim == 2], ids=lambda f: f.value
)
def test_the_implicit_midpoint_rule_is_the_galerkin_midpoint_rule(formulation):
    """The Galerkin step on the one-point midpoint quadrature, which only its
    reference keeps, is the implicit midpoint rule, the one-stage Gauss
    collocation method: equal states or equal refusals, from 300 starts at
    three step sizes."""
    rng = random.Random(f"midpoint-{formulation.value}")
    rec = _RECORDS[formulation]
    solved = 0
    for _ in range(300):
        params, i0, s0 = random_point(rng)
        rhs, jac, y = rec.rhs(), rec.jac(), rec.start(i0, s0, params)
        ref_rhs, ref_jac = at(rhs, params), at(jac, params)
        for dt in (0.05, 0.5, 2.0):
            got = outcome(step_implicit_midpoint, rhs, jac, params, y, dt)
            assert got == outcome(
                ref_step_time_fe_cg1, ref_rhs, ref_jac, y, dt, quadrature="midpoint"
            )
            solved += not isinstance(got[0], type)
    # the comparison is not vacuous: at least a third of the steps are solved
    assert solved >= 300


@pytest.mark.parametrize("chart", list(Chart), ids=lambda c: c.value)
def test_lagrangian_gradients_equal_the_reference(chart):
    rng = random.Random(f"lagrangian-{chart.value}")
    formulation = Formulation.RESCALED_TAU if chart is Chart.DIRECT else Formulation.LOG_T
    for _ in range(300):
        params, i0, s0 = random_point(rng)
        q = _RECORDS[formulation].start(i0, s0, params)
        r = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        got = lagrangian.extended_lagrangian_gradients(q, r, params, chart)
        assert got == ref_extended_lagrangian_gradients(q, r, params, chart)
    for value in BAD_VALUES:
        for slot in (0, 1):
            z = tuple(value if k == slot else x for k, x in enumerate((0.01, 0.99)))
            got = outcome(lagrangian.extended_lagrangian_gradients, z, (0.1, 0.2), params, chart)
            want = outcome(ref_extended_lagrangian_gradients, z, (0.1, 0.2), params, chart)
            assert repr(got) == repr(want)
