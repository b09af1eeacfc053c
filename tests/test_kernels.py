"""The flat rhs kernels and the unrolled explicit steps against references.

The references below are the bodies the kernels replaced: the zip-based
one-step schemes and the rates built as ``J grad H`` from the gradient
functions.  The arithmetic was kept in the same order, so results are
compared with ``==``, and refusals by exception type and message.
"""

import math
import random

import pytest

from sirham import dynamics, hamiltonian, integrators, lagrangian
from sirham import ConstraintViolation, EpidemicParams, Formulation, RunSpec, integrate
from sirham.core import Chart, apply_J
from sirham.errors import NonFiniteInput, NonPositiveCoordinate, SingularDenominator
from sirham.integrators import _RECORDS, step_explicit_euler, step_rk4

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


def outcome(f, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return f(*args)
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
def test_record_rates_equal_the_reference(formulation):
    rng = random.Random(f"rates-{formulation.value}")
    rec = _RECORDS[formulation]
    for _ in range(300):
        params, i0, s0 = random_point(rng)
        y = rec.start(i0, s0, params)
        if formulation.dim == 2:
            # off the start's level set too
            y = (y[0] * rng.uniform(0.5, 1.5), y[1] * rng.uniform(0.9, 1.1))
        assert rec.rhs(params, TOL)(y) == reference_rhs(formulation, params)(y)


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
    itself, against the zip-based step on the reference rates."""
    rng = random.Random(f"march-{formulation.value}-{method}")
    rec = _RECORDS[formulation]
    for _ in range(20):
        params, i0, s0 = random_point(rng)
        # the tau clock moves S by -beta*tau: keep 20 % of s0 in hand
        dt = 0.1 if formulation.clock == "t" else 0.02 * s0 / params.beta
        spec = RunSpec(method=method, formulation=formulation, dt=dt, t_end=40 * dt)
        stepper = integrators._make_stepper(spec, rec, params)
        rhs, ref_rhs = rec.rhs(params, TOL), reference_rhs(formulation, params)
        y = z = w = rec.start(i0, s0, params)
        for _ in range(40):
            y, z, w = stepper(y, dt), step(rhs, z, dt), reference(ref_rhs, w, dt)
            assert y == z == w


@pytest.mark.parametrize("n", [1, 3, 5])
def test_other_dimensions_keep_the_general_body(n):
    def rhs(y):
        return tuple(math.sin(k + x) for k, x in enumerate(y))

    y = tuple(0.1 * k for k in range(n))
    assert step_rk4(rhs, y, 0.3) == ref_step_rk4(rhs, y, 0.3)
    assert step_explicit_euler(rhs, y, 0.3) == ref_step_explicit_euler(rhs, y, 0.3)


# ---------------------------------------------------------------------------
# identical refusals

BAD_VALUES = [0.0, -0.1, math.nan, math.inf, -math.inf]


def bad_states(formulation, value):
    """A valid state with ``value`` in one slot; the momenta of an extended
    state are the consistent ones, so only the coordinates are bad."""
    params = EpidemicParams(beta=0.3, gamma=0.1)
    q = _RECORDS[formulation].start(0.01, 0.99, params)[:2]
    for slot in (0, 1):
        z = tuple(value if k == slot else x for k, x in enumerate(q))
        yield params, (z + hamiltonian.consistent_momenta(z) if formulation.dim == 4 else z)


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("formulation", ALL, ids=lambda f: f.value)
def test_refusals_equal_the_reference(formulation, value):
    """S = 0, S < 0, NaN and infinities: same exception type and message,
    or the same rates where the reference accepts the point."""
    rec = _RECORDS[formulation]
    for params, y in bad_states(formulation, value):
        got = outcome(rec.rhs(params, TOL), y)
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
    rhs = _RECORDS[Formulation.RESCALED_TAU].rhs(params, TOL)
    with pytest.raises(SingularDenominator):
        rhs((0.01, 0.0))
    with pytest.raises(NonPositiveCoordinate):
        rhs((0.01, -0.1))
    with pytest.raises(NonFiniteInput):
        rhs((math.nan, 0.99))
    with pytest.raises(NonFiniteInput):
        _RECORDS[Formulation.LOG_T].rhs(params, TOL)((0.0, math.inf))


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
    Formulation.EXTENDED_4D_DIRECT: "_extended_rates",
    Formulation.EXTENDED_4D_LOG: "_extended_rates",
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
