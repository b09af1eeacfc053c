import math
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from sirham import dynamics, hamiltonian, integrators
from sirham import (
    Chart,
    CompartmentState,
    EpidemicParams,
    Formulation,
    InvalidFractions,
    Method,
    MissingDiagnostic,
    NewtonDivergence,
    NonPositiveCoordinate,
    OutsideLegendreDomain,
    ParamSchedule,
    RhsDomainError,
    RunSpec,
    ScenarioError,
    SirhamError,
    StepAcrossSingularity,
    integrate,
    reconstruct_ordinary_time,
    recovered_from,
)
from sirham.core import FRACTION_TOL
from sirham.hamiltonian import hamilton_rhs_log
from sirham.integrators import (
    _RECORDS,
    step_explicit_euler,
    step_implicit_midpoint,
    step_rk4,
    step_symplectic_euler,
    step_time_fe_cg1,
    step_variational_midpoint,
)

from finite_differences import JACOBIAN_POINTS, assert_jacobian_matches, central_jacobian

P = EpidemicParams(beta=0.3, gamma=0.1)
LOG_START = (math.log(0.01), math.log(0.99))
# late in the epidemic, where at dt = 0.5 the larger entry of each 2-d
# step's first Newton residual is the other one than at LOG_START
LATE_LOG_START = (math.log(0.01), math.log(0.05))


def log_rhs(z, params):
    return hamilton_rhs_log(z, params)


log_jac = _RECORDS[Formulation.LOG_T].jac()


def rotation(z, params):
    # exactly solvable benchmark independent of the epidemic model:
    # z(t) = (cos t, -sin t) from (1, 0)
    return (z[1], -z[0])


class TestSteppers:
    """One-step values frozen from 50-digit reference computations."""

    def test_rk4_on_the_plain_model(self, params):
        from sirham.dynamics import sir_rhs

        y1 = step_rk4(sir_rhs, params, (0.01, 0.99), 0.1)
        assert y1[0] == pytest.approx(0.01019890752362063287781, abs=1e-17)
        assert y1[1] == pytest.approx(0.9897001011277925846213, abs=1e-15)

    def test_rk4_rotation(self):
        # on a linear field one step is exactly the degree-4 Taylor
        # polynomial of the rotation, so the oracle is closed-form
        h = 0.1
        y1 = step_rk4(rotation, None, (1.0, 0.0), h)
        assert y1[0] == pytest.approx(1.0 - h**2 / 2 + h**4 / 24, abs=5e-15)
        assert y1[1] == pytest.approx(-(h - h**3 / 6), abs=5e-15)
        # and the truncation error against the true circle is fifth order
        assert abs(y1[0] - math.cos(h)) < 1e-7
        assert abs(y1[1] + math.sin(h)) < 1e-7

    def test_implicit_midpoint(self):
        y1 = step_implicit_midpoint(log_rhs, log_jac, P, LOG_START, 0.05, tol=1e-14)
        assert y1[0] == pytest.approx(-4.595321305194035394045, abs=5e-13)
        assert y1[1] == pytest.approx(-0.01020107634130862215029, abs=5e-13)

    def test_time_finite_element_gauss2(self):
        y1 = step_time_fe_cg1(log_rhs, log_jac, P, LOG_START, 0.05, tol=1e-14)
        assert y1[0] == pytest.approx(-4.595321305184499989125, abs=5e-13)
        assert y1[1] == pytest.approx(-0.01020107695055540187324, abs=5e-13)

    def test_symplectic_euler(self):
        y1 = step_symplectic_euler(log_rhs, log_jac, P, LOG_START, 0.05, tol=1e-14)
        assert y1[0] == pytest.approx(-4.595320185988091368036, abs=5e-13)
        assert y1[1] == pytest.approx(-0.01020182065413968143557, abs=5e-13)

    def test_explicit_euler(self):
        y1 = step_explicit_euler(log_rhs, P, LOG_START, 0.05)
        assert y1[0] == pytest.approx(-4.595320185988091368036, abs=1e-15)
        assert y1[1] == pytest.approx(-0.01020033585350144118355, abs=1e-15)

    def test_variational_equals_implicit_midpoint(self):
        a = step_variational_midpoint(
            log_rhs, log_jac, P, LOG_START, 0.05, chart=Chart.LOGARITHMIC
        )
        b = step_implicit_midpoint(log_rhs, log_jac, P, LOG_START, 0.05)
        assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-12

    def test_midpoint_is_time_reversible(self):
        forward = step_implicit_midpoint(log_rhs, log_jac, P, LOG_START, 0.05, tol=1e-14)
        back = step_implicit_midpoint(log_rhs, log_jac, P, forward, -0.05, tol=1e-14)
        assert max(abs(x - y) for x, y in zip(back, LOG_START)) <= 1e-13

    def test_newton_accepts_a_solution_found_on_its_last_iteration(self):
        # on a linear rhs one exact update solves the midpoint equation, so a
        # single allowed iteration suffices; the step is the Cayley map
        h = 0.1
        y1 = step_implicit_midpoint(
            rotation, lambda z, params: ((0.0, 1.0), (-1.0, 0.0)), None, (1.0, 0.0), h, max_iter=1
        )
        d = 1.0 + h * h / 4.0
        assert y1[0] == pytest.approx((1.0 - h * h / 4.0) / d, abs=1e-15)
        assert y1[1] == pytest.approx(-h / d, abs=1e-15)

    def test_newton_reports_exhaustion(self):
        # an unreachable tolerance forces the iteration cap
        with pytest.raises(NewtonDivergence):
            step_implicit_midpoint(log_rhs, log_jac, P, LOG_START, 0.05, tol=0.0, max_iter=2)

    def test_newton_reports_a_singular_jacobian(self):
        # I - (dt/2) Df vanishes when Df = (2/dt) I: every pivot is zero
        def degenerate(z, params):
            return ((40.0, 0.0), (0.0, 40.0))

        with pytest.raises(NewtonDivergence, match="singular"):
            step_implicit_midpoint(log_rhs, degenerate, P, LOG_START, 0.05)

    def test_newton_reports_non_finite_iterates(self):
        def broken(z, params):
            return (math.nan, math.nan)

        with pytest.raises(NewtonDivergence):
            step_implicit_midpoint(broken, log_jac, P, LOG_START, 0.05)

    @pytest.mark.parametrize(
        "step", [step_implicit_midpoint, step_time_fe_cg1], ids=lambda s: s.__name__
    )
    def test_a_nan_residual_is_not_converged(self, step):
        """The predictor solves the first equation exactly and the second
        residual is NaN: that is no solution."""

        def nan_beyond_the_start(z, params):
            return (1.0, 1.0) if z == (0.5, 0.5) else (1.0, math.nan)

        def zero(z, params):
            return ((0.0, 0.0), (0.0, 0.0))

        with pytest.raises(NewtonDivergence, match="finite range"):
            step(nan_beyond_the_start, zero, None, (0.5, 0.5), 0.25)

    def test_an_exhausted_nan_residual_reports_norm_nan(self):
        """With no update allowed the first residual is refused.  On the 2-d
        steps it is (0.0, NaN), the predictor solving the first equation
        exactly, so its norm is NaN and not the 0.0 of max(0.0, NaN)."""

        def nan_second_rate(z, params):
            return (1.0, math.nan)

        for step in (step_implicit_midpoint, step_time_fe_cg1, step_symplectic_euler):
            with pytest.raises(NewtonDivergence, match="after 0 iterations, residual norm nan$"):
                step(nan_second_rate, None, None, (0.5, 0.5), 0.25, max_iter=0)

    @pytest.mark.parametrize(
        "method,start,larger",
        [
            ("symplectic_euler", LOG_START, 0),
            ("implicit_midpoint", LOG_START, 0),
            ("implicit_midpoint", LATE_LOG_START, 1),
            ("variational_midpoint", LATE_LOG_START, 0),
            ("variational_midpoint", LOG_START, 1),
            ("time_fe_cg1_gauss2", LOG_START, 0),
            ("time_fe_cg1_gauss2", LATE_LOG_START, 1),
        ],
        ids=[
            "symplectic_euler",
            "implicit_midpoint-r0",
            "implicit_midpoint-r1",
            "variational_midpoint-r0",
            "variational_midpoint-r1",
            "time_fe_cg1_gauss2-r0",
            "time_fe_cg1_gauss2-r1",
        ],
    )
    def test_a_first_residual_equal_to_tol_stops_at_the_predictor(
        self, monkeypatch, method, start, larger
    ):
        """A residual as large as ``tol`` is a solution: with ``tol`` the
        larger entry of the first residual, at the explicit-Euler predictor,
        the step returns the predictor after that one residual.  Where the
        residual has two entries, each case puts a different one on ``tol``."""
        dt = 0.5
        y0, y1 = start
        f0, f1 = log_rhs(start, P)
        u0, u1 = y0 + dt * f0, y1 + dt * f1
        # the first residual by the expressions of the step, and the calls
        # that make it: rhs stages, or the variational step's gradients
        gradients = integrators.lagrangian.extended_lagrangian_gradients
        if method == "symplectic_euler":
            residual = (u1 - y1 - dt * log_rhs((u0, u1), P)[1],)
            residual_calls = ["rhs"]
        elif method == "implicit_midpoint":
            g0, g1 = log_rhs((0.5 * (y0 + u0), 0.5 * (y1 + u1)), P)
            residual = (u0 - y0 - dt * g0, u1 - y1 - dt * g1)
            residual_calls = ["rhs"]
        elif method == "variational_midpoint":
            d_mid, d_rate = gradients(
                (0.5 * (y0 + u0), 0.5 * (y1 + u1)),
                ((u0 - y0) / dt, (u1 - y1) / dt),
                P,
                Chart.LOGARITHMIC,
            )
            half = 0.5 * dt
            residual = (
                0.5 * y1 + half * d_mid[0] - d_rate[0],
                -0.5 * y0 + half * d_mid[1] - d_rate[1],
            )
            residual_calls = ["gradients"]
        else:
            g0 = g1 = 0.0
            for sigma, rest, w, _ in integrators._CG1_STAGES:
                f0, f1 = log_rhs((rest * y0 + sigma * u0, rest * y1 + sigma * u1), P)
                g0 += w * f0
                g1 += w * f1
            residual = (u0 - y0 - dt * g0, u1 - y1 - dt * g1)
            residual_calls = ["rhs", "rhs"]
        tol = abs(residual[larger])
        assert all(abs(r) < tol for k, r in enumerate(residual) if k != larger)

        calls = []

        def counted(name, f):
            def call(*args):
                calls.append(name)
                return f(*args)

            return call

        monkeypatch.setattr(
            integrators.lagrangian, "extended_lagrangian_gradients", counted("gradients", gradients)
        )
        step = {
            "symplectic_euler": step_symplectic_euler,
            "implicit_midpoint": step_implicit_midpoint,
            "variational_midpoint": partial(step_variational_midpoint, chart=Chart.LOGARITHMIC),
            "time_fe_cg1_gauss2": step_time_fe_cg1,
        }[method]
        assert step(counted("rhs", log_rhs), log_jac, P, start, dt, tol=tol) == (u0, u1)
        assert calls == ["rhs", *residual_calls]


#: loose enough that the finite-difference bumps of an extended state pass
#: the constraint check, which the rates themselves never read
FD_CONSTRAINT_TOL = 1.0


def extended_rates(formulation, params):
    """The 4-d rates of an extended formulation, behind ``extended_rhs``."""
    chart = formulation.chart
    return lambda y: hamiltonian._extended_rates(y, params, chart, FD_CONSTRAINT_TOL)


@pytest.fixture
def bound_calls(monkeypatch):
    """``bound_calls(formulation)``: the calls that a march of
    ``formulation`` makes of the rates and the Jacobian it binds, split by
    step.  Each step is ``(y, calls)``, the state it starts from and its
    calls as ``("rhs" or "jac", state)`` in call order.  The record's
    lookups and the steppers the march builds are wrapped, so the list
    fills as the march runs."""
    steps = []

    def recording(name, lookup):
        def bound():
            f = lookup()

            def call(y, params):
                steps[-1][1].append((name, y))
                return f(y, params)

            return call

        return bound

    make_stepper = integrators._make_stepper

    def splitting(spec, rec, params):
        stepper = make_stepper(spec, rec, params)

        def step(y, h):
            steps.append((y, []))
            return stepper(y, h)

        return step

    def record(formulation):
        rec = _RECORDS[formulation]
        wrapped = rec._replace(rhs=recording("rhs", rec.rhs), jac=recording("jac", rec.jac))
        monkeypatch.setitem(_RECORDS, formulation, wrapped)
        monkeypatch.setattr(integrators, "_make_stepper", splitting)
        return steps

    return record


class TestJacobians:
    """The analytic Jacobians the Newton solves use, against central
    differences of the functions they differentiate."""

    @pytest.mark.parametrize("formulation", list(Formulation), ids=lambda f: f.value)
    def test_record_jacobian_matches_the_rhs(self, start_state, formulation):
        """An extended formulation's record is its chart's, whose Jacobian
        must be that of the coordinate block of the 4-d rates."""
        rec = _RECORDS[formulation]
        for i0, s0, beta, gamma in JACOBIAN_POINTS:
            params = EpidemicParams(beta, gamma)
            y = start_state(formulation, i0, s0, params)
            q, p = y[:2], y[2:]
            if formulation.dim == 4:
                rates = extended_rates(formulation, params)
                rhs = lambda x: rates(x + p)[:2]  # noqa: E731
            else:
                rhs = partial(rec.rhs(), params=params)
            assert_jacobian_matches(rec.jac()(q, params), rhs, q)

    @pytest.mark.parametrize("formulation", list(Formulation), ids=lambda f: f.value)
    def test_separable_flag_matches_the_jacobian(self, start_state, formulation):
        """The momentum-momentum block of the record's Jacobian (of the 4-d
        rates, for the extended formulations) is zero exactly where the
        record's ``separable`` is set."""
        rec = _RECORDS[formulation]
        for i0, s0, beta, gamma in JACOBIAN_POINTS:
            params = EpidemicParams(beta, gamma)
            y = start_state(formulation, i0, s0, params)
            if formulation.dim == 4:
                d = central_jacobian(extended_rates(formulation, params), y)
            else:
                d = rec.jac()(y, params)
            nq = len(y) // 2
            block = [x for row in d[nq:] for x in row[nq:]]
            assert all(x == 0.0 for x in block) is rec.separable, block

    def test_implicit_midpoint_takes_one_newton_update(self):
        """Predictor, first residual and one exact update: three rhs
        evaluations per step on log_t at dt = 0.05."""
        calls = []

        def counting_rhs(z, params):
            calls.append(z)
            return log_rhs(z, params)

        y = LOG_START
        for _ in range(400):
            calls.clear()
            y = step_implicit_midpoint(counting_rhs, log_jac, P, y, 0.05)
            assert len(calls) <= 3

    @pytest.mark.parametrize(
        "formulation,rhs_name,dt",
        [("log_t", "hamilton_rhs_log", 0.05), ("rescaled_tau", "hamilton_rhs_direct", 0.005)],
    )
    def test_symplectic_euler_is_explicit_on_separable_charts(
        self, init, schedule, monkeypatch, bound_calls, formulation, rhs_name, dt
    ):
        """Two rhs evaluations per step and no Newton over 400 steps: the
        rates at the state, then at the new coordinates with the old
        momentum, and no Jacobian."""
        calls = []
        rhs = getattr(integrators.hamiltonian, rhs_name)

        def counting(*args):
            calls.append(None)
            return rhs(*args)

        monkeypatch.setattr(integrators.hamiltonian, rhs_name, counting)
        steps = bound_calls(Formulation(formulation))
        spec = RunSpec(method="symplectic_euler", formulation=formulation, dt=dt, t_end=400 * dt)
        traj = integrate(spec, init, schedule)
        assert traj.n_samples == 401
        assert len(calls) == 2 * 400
        assert len(steps) == 400
        for y, calls in steps:
            assert [name for name, _ in calls] == ["rhs", "rhs"]
            (_, at_y), (_, moved) = calls
            assert at_y == y and moved[1] == y[1]

    @pytest.mark.parametrize("formulation", ["basic_t", "single_ode_direct", "single_ode_log"])
    def test_symplectic_euler_keeps_newton_where_momenta_feed_back(
        self, init, schedule, bound_calls, formulation
    ):
        """Each of the 50 steps solves its momentum equation by Newton: the
        rates at the state, the first residual at the new coordinates, then
        at least one update, a Jacobian and a residual, every one of them
        at those coordinates, so the unknown is the momentum alone."""
        steps = bound_calls(Formulation(formulation))
        spec = RunSpec(method="symplectic_euler", formulation=formulation, dt=0.01, t_end=0.5)
        integrate(spec, init, schedule)
        assert len(steps) == 50
        for y, calls in steps:
            names = [name for name, _ in calls]
            updates = (len(names) - 2) // 2
            assert updates >= 1 and names == ["rhs", "rhs"] + ["jac", "rhs"] * updates
            assert calls[0][1] == y
            q = calls[1][1][0]
            assert all(len(z) == 2 and z[0] == q for _, z in calls[1:])


class TestRunSpec:
    def test_string_coercion(self):
        spec = RunSpec(method="rk4", formulation="log_t", dt=0.1, t_end=1.0)
        assert spec.method is Method.RK4
        assert spec.formulation is Formulation.LOG_T

    def test_default_name_and_label(self):
        spec = RunSpec(method="rk4", formulation="log_t", dt=0.1, t_end=1.0)
        assert spec.name == "log_t-rk4"
        named = RunSpec(
            method="rk4", formulation="log_t", dt=0.1, t_end=1.0, label="mine"
        )
        assert named.name == "mine"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0},
            {"dt": -0.1},
            {"dt": math.inf},
            {"t_end": -1.0},
            {"sample_stride": 0},
            {"sample_stride": 2**53 + 1},
            {"sample_stride": 2**63},
            {"extended_mode": "hybrid"},
            {"newton_tol": 0.0},
            {"newton_max_iter": 0},
            {"label": "two\tcols"},
            {"label": "line\nbreak"},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(method="rk4", formulation="log_t", dt=0.1, t_end=1.0)
        base.update(kwargs)
        with pytest.raises(ScenarioError):
            RunSpec(**base)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"dt": "0.1"}, "dt must be a number"),
            ({"t_end": None}, "t_end must be a number"),
            ({"newton_tol": True}, "newton_tol must be a number"),
            ({"sample_stride": 2.7}, "sample_stride must be an integer"),
            ({"newton_max_iter": True}, "newton_max_iter must be an integer"),
            ({"label": 5}, "label must be a string"),
        ],
    )
    def test_types_are_refused_not_coerced(self, kwargs, message):
        base = dict(method="rk4", formulation="log_t", dt=0.1, t_end=1.0)
        base.update(kwargs)
        with pytest.raises(ScenarioError, match=message):
            RunSpec(**base)

    @pytest.mark.parametrize("dt", [1e-320, 1e-300, 80.0 / 2.0**53 * (1.0 - 1e-15)])
    def test_a_step_count_beyond_2_53_is_refused(self, dt):
        """A step index the clock (k + 1) * dt cannot tell apart, or a count
        that overflows, is refused at construction."""
        with pytest.raises(ScenarioError, match=r"at most 2\*\*53"):
            RunSpec(method="rk4", formulation="log_t", dt=dt, t_end=80.0)
        RunSpec(method="rk4", formulation="log_t", dt=80.0 / 2.0**53, t_end=80.0)
        RunSpec(method="rk4", formulation="log_t", dt=dt, t_end=0.0)

    def test_a_stride_of_2_53_keeps_the_start_and_the_end(self, init, schedule):
        """No run has more than 2**53 steps, so the largest stride accepted
        keeps what any larger one would."""
        spec = RunSpec(method="rk4", formulation="log_t", dt=0.1, t_end=1.0, sample_stride=2**53)
        traj = integrate(spec, init, schedule)
        assert traj.t.tolist() == [0.0, 1.0]

    def test_numeric_fields_are_stored_as_float_and_int(self):
        spec = RunSpec(
            method="rk4",
            formulation="log_t",
            dt=1,
            t_end=np.int64(2),
            sample_stride=np.int64(3),
            newton_tol=1,
        )
        assert type(spec.dt) is float and type(spec.t_end) is float
        assert type(spec.newton_tol) is float
        assert type(spec.sample_stride) is int and spec.sample_stride == 3

    def test_unknown_method_or_formulation(self):
        with pytest.raises(ValueError):
            RunSpec(method="rk5", formulation="log_t", dt=0.1, t_end=1.0)
        with pytest.raises(ValueError):
            RunSpec(method="rk4", formulation="cartesian", dt=0.1, t_end=1.0)

    def test_variational_is_restricted_to_canonical_charts(self):
        for formulation in ("basic_t", "single_ode_log", "extended_4d_direct"):
            with pytest.raises(ScenarioError):
                RunSpec(
                    method="variational_midpoint",
                    formulation=formulation,
                    dt=0.1,
                    t_end=1.0,
                )
        RunSpec(method="variational_midpoint", formulation="rescaled_tau", dt=0.1, t_end=1.0)
        RunSpec(method="variational_midpoint", formulation="log_t", dt=0.1, t_end=1.0)


#: 200k explicit Euler steps of log_t at stride 1000, under the schedule
#: that ``format`` fills in: the number of samples and the traced peak of
#: the march
LONG_MARCH = """
import tracemalloc
from sirham import CompartmentState, EpidemicParams, ParamSchedule, RunSpec, integrate
spec = RunSpec(
    method="explicit_euler", formulation="log_t", dt=100.0 / 200_000, t_end=100.0,
    sample_stride=1000,
)
init = CompartmentState(s=0.99, i=0.01, r=0.0)
schedule = {schedule}
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
traj = integrate(spec, init, schedule)
print(traj.n_samples, tracemalloc.get_traced_memory()[1] - before)
"""


class TestIntegrate:
    def test_argument_types(self, init, schedule):
        spec = RunSpec(method="rk4", formulation="basic_t", dt=0.1, t_end=1.0)
        with pytest.raises(ScenarioError):
            integrate("rk4", init, schedule)
        with pytest.raises(ScenarioError):
            integrate(spec, (0.01, 0.99), schedule)
        with pytest.raises(ScenarioError):
            integrate(spec, init, EpidemicParams(0.3, 0.1))

    def test_lands_exactly_on_the_horizon(self, init, schedule):
        # 0.3 is not representable in binary; naive accumulation would
        # land near but not on t_end
        spec = RunSpec(method="rk4", formulation="basic_t", dt=0.3, t_end=10.0)
        traj = integrate(spec, init, schedule)
        assert traj.t[-1] == 10.0

    def test_zero_horizon(self, init, schedule):
        spec = RunSpec(method="rk4", formulation="basic_t", dt=0.1, t_end=0.0)
        traj = integrate(spec, init, schedule)
        assert traj.n_samples == 1
        assert traj.t[0] == 0.0
        assert traj.i[0] == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "schedule, longest",
        [
            pytest.param("ParamSchedule.constant(EpidemicParams(0.3, 0.1))", 200_000, id="constant"),
            pytest.param(
                "ParamSchedule((0.0, 50.0), (EpidemicParams(0.3, 0.1),) * 2)", 100_000,
                id="two_segments",
            ),
        ],
    )
    def test_a_long_march_peaks_at_128_bytes_a_step(self, schedule, longest):
        """The march keeps every state of a segment until the segment ends.
        Its memory, fixed from the layout before measuring: 64 B a step of
        flat list (two floats of 24 B, two pointers of 8 B), a 16 B array it
        becomes, and a few 8 B columns of the walk over the segment's
        states, the list being freed as soon as it is converted, and the
        array before the next segment is marched: so the bound is per step
        of the longest segment.  Traced in a fresh interpreter, so that the
        tracer's own record of every live float leaves this process's
        memory as it was."""
        proc = subprocess.run(
            [sys.executable, "-c", LONG_MARCH.format(schedule=schedule)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        samples, peak = map(float, proc.stdout.split())
        assert samples == 201
        assert peak <= 128 * longest

    def test_sample_stride_keeps_the_final_state(self, init, schedule):
        spec = RunSpec(
            method="rk4", formulation="basic_t", dt=0.1, t_end=1.0, sample_stride=7
        )
        traj = integrate(spec, init, schedule)
        # steps 0 and 7 pass the stride filter, step 10 is the forced tail
        assert list(traj.t) == pytest.approx([0.0, 0.7, 1.0])

    @pytest.mark.parametrize("formulation", ["log_t", "single_ode_log"])
    def test_the_final_sample_does_not_depend_on_the_stride(self, init, formulation):
        # a switch 1e-11 before t_end leaves a closing segment of no steps:
        # the final sample is the last step's state, in its own segment
        sched = ParamSchedule(
            switch_times=(0.0, 50.0),
            params=(EpidemicParams(0.3, 0.1), EpidemicParams(0.15, 0.1)),
        )
        last = []
        for stride in (1, 7):
            spec = RunSpec(
                method="rk4", formulation=formulation, dt=0.1, t_end=50.0 + 1e-11,
                sample_stride=stride,
            )
            traj = integrate(spec, init, sched)
            last.append((traj.t[-1], traj.tau[-1], traj.h[-1], *traj.coords[-1]))
        assert last[0] == last[1]
        assert last[0][0] == 50.0

    def test_a_failure_after_a_segment_of_no_steps_starts_from_clock_0(self):
        # the switch at 1e-12 leaves the first segment no step: the start is
        # still that segment's state, at clock 0, not the next segment's
        sched = ParamSchedule(
            switch_times=(0.0, 1e-12),
            params=(EpidemicParams(1.0, 0.1), EpidemicParams(1.0, 0.1)),
        )
        spec = RunSpec(method="explicit_euler", formulation="single_ode_log", dt=8.0, t_end=40.0)
        init = CompartmentState(s=0.6, i=0.3, r=0.1)
        with pytest.raises(OutsideLegendreDomain, match=r"^step 1 from clock 0: rate -0\.94 "):
            integrate(spec, init, sched)

    @pytest.mark.parametrize("stride", [1, 7])
    def test_a_closing_step_before_a_segment_of_no_steps_is_its_own(self, init, stride):
        # the segment from 30 to 30 + 1e-12 takes no step: the state at 30 is
        # the closing step of the first segment, in its fractions and energy
        sched = ParamSchedule(
            switch_times=(0.0, 30.0, 30.0 + 1e-12),
            params=(
                EpidemicParams(0.3, 0.1), EpidemicParams(0.15, 0.1), EpidemicParams(0.3, 0.25)
            ),
        )
        spec = RunSpec(
            method="rk4", formulation="single_ode_log", dt=0.1, t_end=60.0, sample_stride=stride
        )
        traj = integrate(spec, init, sched)
        (row,) = np.flatnonzero(np.abs(traj.t - 30.0) < 1e-6)
        assert traj.t[row] == 30.0
        s, i = traj.s[row], traj.i[row]
        assert s == pytest.approx((traj.coords[row, 1] + 0.1) / 0.3, rel=1e-14)
        assert traj.h[row] == pytest.approx(0.3 * (i + s) - 0.1 * math.log(s), rel=1e-14)

    @pytest.mark.parametrize(
        "formulation",
        [f.value for f in Formulation],
    )
    def test_every_formulation_stays_consistent(self, init, schedule, formulation):
        spec = RunSpec(method="rk4", formulation=formulation, dt=0.01, t_end=0.5)
        traj = integrate(spec, init, schedule)
        assert np.all(np.isfinite(traj.s))
        assert np.all(np.isfinite(traj.i))
        assert np.max(np.abs(traj.s + traj.i + traj.r - 1.0)) <= 1e-12
        assert traj.clock == spec.formulation.clock
        assert traj.chart == spec.formulation.chart
        assert traj.coords.shape == (traj.n_samples, spec.formulation.dim)

    def test_rescaled_clock_fills_ordinary_time(self, init, schedule):
        spec = RunSpec(method="rk4", formulation="rescaled_tau", dt=0.01, t_end=1.0)
        traj = integrate(spec, init, schedule)
        assert traj.tau[-1] == 1.0
        assert traj.t[-1] > traj.tau[-1]  # dilation is tiny early on
        assert np.all(np.diff(traj.t) > 0.0)

    def test_ordinary_clock_fills_intrinsic_time(self, init, schedule):
        spec = RunSpec(method="rk4", formulation="log_t", dt=0.1, t_end=5.0)
        traj = integrate(spec, init, schedule)
        assert traj.t[-1] == 5.0
        assert 0.0 < traj.tau[-1] < 5.0
        assert np.all(np.diff(traj.tau) > 0.0)

    def test_leaving_the_simplex_names_the_step_and_the_clock(self, init):
        sched = ParamSchedule(
            switch_times=(0.0, 40.0),
            params=(EpidemicParams(0.3, 0.1), EpidemicParams(0.6, 0.1)),
        )
        spec = RunSpec(method="explicit_euler", formulation="basic_t", dt=40.0, t_end=80.0)
        with pytest.raises(InvalidFractions, match=r"^step 2 at clock 80: S = -0\.985501, "):
            integrate(spec, init, sched)

    @pytest.mark.parametrize("sample, step, clock", [(2, 2, "0.2"), (10, 10, "1")])
    def test_a_non_finite_fraction_is_refused(self, init, schedule, monkeypatch, sample, step, clock):
        # stride 3 over 10 steps keeps steps 0, 3, 6, 9 and the final 10, but
        # every marched state is tested: state 2 is refused though not kept
        rec = _RECORDS[Formulation.LOG_T]

        def poisoned(coords, params):
            i_col, s_col = rec.fractions(coords, params)
            s_col[sample] = math.nan
            return i_col, s_col

        monkeypatch.setitem(_RECORDS, Formulation.LOG_T, rec._replace(fractions=poisoned))
        spec = RunSpec(method="rk4", formulation="log_t", dt=0.1, t_end=1.0, sample_stride=3)
        with pytest.raises(InvalidFractions, match=rf"^step {step} at clock {clock}: S = nan"):
            integrate(spec, init, schedule)

    def test_an_infinite_sample_is_refused_without_a_numpy_warning(self):
        """RK4 at dt 12 runs away: the second step ends at I = -inf, S = inf,
        where R = 1 - S - I is inf - inf.  The refusal names the first sample
        outside [0, 1], and numpy does not warn before it."""
        spec = RunSpec(method="rk4", formulation="basic_t", dt=12.0, t_end=24.0)
        init = CompartmentState(s=0.5, i=0.5, r=0.0)
        schedule = ParamSchedule.constant(EpidemicParams(beta=6.0, gamma=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidFractions, match=r"^step 1 at clock 12: "):
                integrate(spec, init, schedule)

    @pytest.mark.parametrize(
        "method, horizons, step, clock",
        [("rk4", (80.0, 400.0), 1, 40), ("explicit_euler", (80.0, 4000.0), 2, 80)],
    )
    def test_the_horizon_does_not_change_the_first_failure(
        self, init, schedule, method, horizons, step, clock
    ):
        """At dt 40 the run leaves the simplex at ``step``.  Over the longer
        horizon the march goes on until a step fails on a non-finite state,
        but the first failing state is still the one reported."""
        raised = []
        for t_end in horizons:
            spec = RunSpec(method=method, formulation="basic_t", dt=40.0, t_end=t_end)
            with pytest.raises(InvalidFractions, match=rf"^step {step} at clock {clock}: ") as exc:
                integrate(spec, init, schedule)
            raised.append(str(exc.value))
        assert raised[0] == raised[1]

    def test_a_simplex_exit_wins_over_a_later_newton_failure(self, init):
        """The implicit midpoint rule at dt 40 closes the first segment in one
        step, to t = 30 and S = 1.034, out of the simplex; Newton gives up in
        the step after it, which closes the second segment at t = 61.5."""
        sched = ParamSchedule(
            switch_times=(0.0, 30.0, 61.5),
            params=(EpidemicParams(0.3, 0.1), EpidemicParams(0.15, 0.1), EpidemicParams(0.3, 0.25)),
        )
        spec = RunSpec(method="implicit_midpoint", formulation="basic_t", dt=40.0, t_end=100.0)
        with pytest.raises(InvalidFractions, match=r"^step 1 at clock 30: S = 1\.03433, "):
            integrate(spec, init, sched)
        rec = _RECORDS[spec.formulation]
        y = integrators._make_stepper(spec, rec, sched.params[0])((init.i, init.s), 30.0)
        with pytest.raises(NewtonDivergence):
            integrators._make_stepper(spec, rec, sched.params[1])(y, 31.5)

    def test_no_segment_after_a_failing_state_is_marched(self, init, monkeypatch):
        """Symplectic Euler at dt 40 closes the first segment in one step, out
        of the simplex.  The run stops there: the segment after the switch
        at t = 40, 99 steps long, is never marched."""
        calls = []
        real_step = integrators.step_symplectic_euler

        def counted_step(*args, **kwargs):
            calls.append(None)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(integrators, "step_symplectic_euler", counted_step)
        sched = ParamSchedule(
            switch_times=(0.0, 40.0),
            params=(EpidemicParams(0.3, 0.1), EpidemicParams(0.3, 0.1000001)),
        )
        spec = RunSpec(method="symplectic_euler", formulation="log_t", dt=40.0, t_end=4000.0)
        with pytest.raises(InvalidFractions, match=r"^step 1 at clock 40: S = 1\.61929e-138, "):
            integrate(spec, init, sched)
        assert len(calls) == 1

    def test_newton_failure_names_the_step_and_the_clock(self, init, schedule):
        spec = RunSpec(
            method="implicit_midpoint",
            formulation="log_t",
            dt=0.1,
            t_end=1.0,
            newton_max_iter=1,
            newton_tol=1e-300,
        )
        with pytest.raises(NewtonDivergence, match=r"^step 1 from clock 0: no convergence"):
            integrate(spec, init, schedule)

    def test_newton_failure_is_located_across_a_switch(self, init, monkeypatch):
        # steps 1-4 close the first segment at 0.35 (the last one short);
        # step 6 starts from 0.35 + 0.1
        calls = []
        real_step = integrators.step_implicit_midpoint

        def failing_step(*args, **kwargs):
            calls.append(None)
            if len(calls) == 6:
                raise NewtonDivergence("no convergence")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(integrators, "step_implicit_midpoint", failing_step)
        sched = ParamSchedule(
            switch_times=(0.0, 0.35),
            params=(EpidemicParams(0.3, 0.1), EpidemicParams(0.15, 0.1)),
        )
        spec = RunSpec(method="implicit_midpoint", formulation="log_t", dt=0.1, t_end=1.0)
        with pytest.raises(NewtonDivergence, match=r"^step 6 from clock 0\.45: no convergence$"):
            integrate(spec, init, sched)

    def test_a_domain_failure_names_the_step_and_the_clock(self, init, schedule):
        # dt = 1 carries S below zero in the fourth step, from tau = 3
        spec = RunSpec(method="rk4", formulation="rescaled_tau", dt=1.0, t_end=4.0)
        with pytest.raises(
            NonPositiveCoordinate,
            match=r"^step 4 from clock 3: susceptible fraction must be positive, got -0\.06",
        ):
            integrate(spec, init, schedule)

    def test_degenerate_start_is_refused(self, schedule):
        spec = RunSpec(method="rk4", formulation="rescaled_tau", dt=0.01, t_end=1.0)
        no_infection = CompartmentState(s=0.99, i=0.0, r=0.01)
        with pytest.raises(StepAcrossSingularity):
            integrate(spec, no_infection, schedule)

    @pytest.mark.parametrize(
        "formulation,message",
        [
            ("log_t", r"^initial state: logarithmic chart needs positive fractions"),
            ("single_ode_direct", r"^initial state: susceptible fraction must be positive"),
            ("basic_t", r"^step 0 at clock 0: ln\(S\) undefined for S = 0$"),
        ],
    )
    def test_a_start_at_s_0_is_refused_by_name(self, schedule, formulation, message):
        spec = RunSpec(method="rk4", formulation=formulation, dt=0.1, t_end=1.0)
        with pytest.raises(NonPositiveCoordinate, match=message):
            integrate(spec, CompartmentState(s=0.0, i=0.5, r=0.5), schedule)

    def test_marching_past_the_clock_asymptote_is_refused(self, init, schedule):
        # beyond the finite intrinsic-time span of the epidemic the
        # dilation collapses and the time map diverges; the failure names
        # its step and the clock that step started from
        spec = RunSpec(method="rk4", formulation="rescaled_tau", dt=0.01, t_end=3.2)
        with pytest.raises(
            StepAcrossSingularity, match=r"^step 311 from clock 3\.1: S\*I fell to -4\.874e-04; "
        ):
            integrate(spec, init, schedule)

    def test_a_dilation_under_the_floor_is_refused_inside_the_simplex(
        self, init, schedule, monkeypatch
    ):
        """The floor is a test of its own: a state whose fractions pass but
        whose dilation is under the floor is refused, at the first such
        step.  Here the dilation shrinks by 1e-20 once S < 0.5."""
        spec = RunSpec(method="rk4", formulation="rescaled_tau", dt=0.01, t_end=3.0)
        step = int(np.argmax(integrate(spec, init, schedule).s < 0.5))
        rec = _RECORDS[Formulation.RESCALED_TAU]

        def dilation(y, params):
            return rec.dilation(y, params) * np.where(np.asarray(y[1]) < 0.5, 1e-20, 1.0)

        monkeypatch.setitem(_RECORDS, Formulation.RESCALED_TAU, rec._replace(dilation=dilation))
        with pytest.raises(
            StepAcrossSingularity, match=rf"^step {step} from clock {(step - 1) / 100:g}: S\*I fell"
        ):
            integrate(spec, init, schedule)

    def test_a_dilation_at_the_floor_passes(self, init, schedule, monkeypatch):
        """The floor is strict, in the array of dilations and in the look at
        the first failing state alike.  Here the dilation is the floor itself
        once S < 0.5, and I leaves the simplex at step 311."""
        rec = _RECORDS[Formulation.RESCALED_TAU]

        def dilation(y, params):
            at_floor = np.asarray(y[1]) < 0.5
            return np.where(at_floor, integrators.RUN_DILATION_FLOOR, rec.dilation(y, params))

        monkeypatch.setitem(_RECORDS, Formulation.RESCALED_TAU, rec._replace(dilation=dilation))
        spec = RunSpec(method="rk4", formulation="rescaled_tau", dt=0.01, t_end=3.2)
        with pytest.raises(InvalidFractions, match=r"^step 311 at clock 3\.11: S = 0\.057, I = -"):
            integrate(spec, init, schedule)

    def test_a_failing_state_is_looked_at_once(self, schedule, monkeypatch):
        """The rate climbs at 13 per unit tau and leaves the simplex at step
        12, with its dilation still defined; the walk reads the dilation of
        that state alone once, and of no state before it."""
        monkeypatch.setattr(dynamics, "rescaled_accel", lambda rate, params: 13.0)
        rec = _RECORDS[Formulation.SINGLE_ODE_DIRECT]
        looks = []

        def dilation(y, params):
            if isinstance(y, list):
                looks.append(y)
            return rec.dilation(y, params)

        monkeypatch.setitem(_RECORDS, Formulation.SINGLE_ODE_DIRECT, rec._replace(dilation=dilation))
        spec = RunSpec(method="rk4", formulation="single_ode_direct", dt=0.001, t_end=0.5)
        with pytest.raises(InvalidFractions, match=r"^step 12 at clock 0\.012: S = 1\.06383, "):
            integrate(spec, recovered_from(0.4, 0.01), schedule)
        assert len(looks) == 1

    def test_rescaled_clock_rejects_schedules(self, init):
        sched = ParamSchedule(
            switch_times=(0.0, 30.0),
            params=(EpidemicParams(0.3, 0.1), EpidemicParams(0.15, 0.1)),
        )
        spec = RunSpec(method="rk4", formulation="rescaled_tau", dt=0.01, t_end=1.0)
        with pytest.raises(ScenarioError):
            integrate(spec, init, sched)

    def test_switch_lands_on_a_sample(self, init):
        sched = ParamSchedule(
            switch_times=(0.0, 0.35),
            params=(EpidemicParams(0.3, 0.1), EpidemicParams(0.15, 0.1)),
        )
        # 0.35 is not a multiple of dt; the march must still hit it exactly
        spec = RunSpec(method="rk4", formulation="basic_t", dt=0.1, t_end=1.0)
        traj = integrate(spec, init, sched)
        assert 0.35 in traj.t
        assert traj.t[-1] == 1.0

    def test_schedule_keeps_the_state_continuous(self, init):
        """A parameter switch re-expresses derived state but never moves
        the physical point: composing two constant-parameter runs by hand
        must reproduce the scheduled run."""
        a, b = EpidemicParams(0.3, 0.1), EpidemicParams(0.15, 0.1)
        sched = ParamSchedule(switch_times=(0.0, 2.0), params=(a, b))
        for formulation in ("basic_t", "log_t", "single_ode_log", "extended_4d_log"):
            spec = RunSpec(method="rk4", formulation=formulation, dt=0.05, t_end=4.0)
            scheduled = integrate(spec, init, sched)

            first = integrate(
                RunSpec(method="rk4", formulation=formulation, dt=0.05, t_end=2.0),
                init,
                ParamSchedule.constant(a),
            )
            handoff = CompartmentState(
                s=float(first.s[-1]), i=float(first.i[-1]), r=float(first.r[-1])
            )
            second = integrate(
                RunSpec(method="rk4", formulation=formulation, dt=0.05, t_end=2.0),
                handoff,
                ParamSchedule.constant(b),
            )
            k = int(np.searchsorted(scheduled.t, 2.0))
            assert scheduled.t[k] == 2.0
            assert scheduled.i[-1] == pytest.approx(second.i[-1], abs=1e-12)
            assert scheduled.s[-1] == pytest.approx(second.s[-1], abs=1e-12)
            assert scheduled.i[k] == pytest.approx(first.i[-1], abs=1e-14)


def _matrix_cases():
    for method in Method:
        for formulation in Formulation:
            for mode in ("direct4d", "reconstruct"):
                yield pytest.param(
                    method, formulation, mode, id=f"{method.value}-{formulation.value}-{mode}"
                )


def _refused(method, formulation):
    return method is Method.VARIATIONAL_MIDPOINT and formulation not in (
        Formulation.RESCALED_TAU,
        Formulation.LOG_T,
    )


@pytest.mark.parametrize("method,formulation,mode", list(_matrix_cases()))
def test_every_combination_runs_or_is_refused(init, schedule, method, formulation, mode):
    """RunSpec refuses exactly the variational stepper off the two 2-d
    canonical charts; every combination it accepts marches."""
    kwargs = dict(
        method=method, formulation=formulation, dt=0.01, t_end=0.05, extended_mode=mode
    )
    if _refused(method, formulation):
        with pytest.raises(ScenarioError):
            RunSpec(**kwargs)
        return
    traj = integrate(RunSpec(**kwargs), init, schedule)
    assert traj.n_samples == 6
    assert traj.coords.shape == (6, formulation.dim)
    assert np.max(np.abs(traj.s + traj.i + traj.r - 1.0)) <= 1e-12


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    beta=st.floats(1e-4, 50.0),
    gamma=st.floats(1e-4, 50.0),
    i0=st.floats(1e-12, 1.0),
    s_share=st.floats(0.0, 1.0),
    dt=st.floats(1e-6, 100.0),
    n_steps=st.integers(0, 200),
    method=st.sampled_from(list(Method)),
    formulation=st.sampled_from(list(Formulation)),
    mode=st.sampled_from(["direct4d", "reconstruct"]),
)
def test_every_drawn_run_completes_or_names_its_failure(
    beta, gamma, i0, s_share, dt, n_steps, method, formulation, mode
):
    """Any start, rates, step and method: RunSpec refuses the run, or the
    run fails with a SirhamError naming its step or the initial state, or
    every column is finite and the fractions sum to one."""
    try:
        spec = RunSpec(
            method=method,
            formulation=formulation,
            dt=dt,
            t_end=n_steps * dt,
            extended_mode=mode,
        )
    except ScenarioError:
        return
    init = recovered_from(s_share * (1.0 - i0), i0)
    try:
        traj = integrate(spec, init, ParamSchedule.constant(EpidemicParams(beta, gamma)))
    except SirhamError as exc:
        message = str(exc)
        assert re.match(r"step \d+ (from|at) clock ", message) or "initial state" in message, message
        return
    for column in (traj.t, traj.tau, traj.s, traj.i, traj.r, traj.h, traj.coords):
        assert np.all(np.isfinite(column))
    assert np.max(np.abs(traj.s + traj.i + traj.r - 1.0)) <= 1e-12


#: the coordinates of fractions (S, I) in each distinct record; the walk
#: reads a record's dilation only where its fractions place a state
TO_COORDS = {
    Formulation.BASIC_T: lambda s, i, p: (i, s),
    Formulation.RESCALED_TAU: lambda s, i, p: (i, s),
    Formulation.LOG_T: lambda s, i, p: (np.log(i), np.log(s)),
    Formulation.SINGLE_ODE_DIRECT: lambda s, i, p: (i, p.beta - p.gamma / s),
    Formulation.SINGLE_ODE_LOG: lambda s, i, p: (np.log(i), p.beta * s - p.gamma),
}


def edge_coords(params):
    """Raw coordinate pairs at the edges of every record's domain: not
    finite or 0, beta and -gamma in the rate slot and the floats on either
    side of them, ln of 1 and the largest argument ``math.exp`` takes."""
    beta, gamma = params.beta, params.gamma
    slot = [math.inf, -math.inf, math.nan, 0.0, 1.0, 0.5, math.log(0.5), 709.78, 709.79, -745.2]
    for x in (beta, -gamma, beta - gamma, 0.0, 709.78):
        slot += [x, np.nextafter(x, -math.inf), np.nextafter(x, math.inf)]
    return [(a, b) for a in slot for b in slot]


#: unshrunk: every example holds the edge coordinates, and shrinking a
#: failure would take seconds of drawn lists that do not matter
@settings(max_examples=60, derandomize=True, deadline=None, phases=[Phase.generate])
@given(
    beta=st.floats(1e-4, 50.0),
    gamma=st.floats(1e-4, 50.0),
    drawn=st.lists(
        st.tuples(
            st.floats(0.0, 1.0, exclude_min=True), st.floats(0.0, 1.0)
        ).map(lambda si: (si[0], si[1] * (1.0 - si[0]))),
        min_size=1,
        max_size=8,
    ),
)
@pytest.mark.parametrize("formulation", list(TO_COORDS), ids=lambda f: f.value)
def test_the_dilation_is_defined_wherever_the_walk_places_a_state(
    formulation, beta, gamma, drawn
):
    """Every state whose fractions are within FRACTION_TOL of [0, 1], at
    S > 0, has a dilation that does not refuse or overflow, on a pair of
    state columns and on each state alone: the walk reads it there only."""
    assert {id(rec) for rec in _RECORDS.values()} == {id(_RECORDS[f]) for f in TO_COORDS}
    rec, params = _RECORDS[formulation], EpidemicParams(beta, gamma)
    with np.errstate(all="ignore"):
        coords = [TO_COORDS[formulation](s, i, params) for s, i in drawn]
        states = np.array(coords + edge_coords(params), dtype=float)
        i, s = rec.fractions(states, params)
        sir = np.array([s, i, 1.0 - s - i])
    placed = ((sir >= -FRACTION_TOL) & (sir <= 1.0 + FRACTION_TOL)).all(axis=0) & (sir[0] > 0.0)
    assert placed.any()
    rec.dilation(states[placed].T, params)
    for state in states[placed]:
        rec.dilation(state.tolist(), params)


def _reconstruct_cases():
    for formulation in (Formulation.EXTENDED_4D_DIRECT, Formulation.EXTENDED_4D_LOG):
        for method in Method:
            if not _refused(method, formulation):
                yield pytest.param(
                    method, formulation, id=f"{method.value}-{formulation.value}"
                )


#: the schedules the two extended modes are compared on; switches are
#: ordinary-time quantities, so only ``extended_4d_log`` takes the second
MODE_SCHEDULES = {
    "constant": ParamSchedule.constant(EpidemicParams(0.3, 0.1)),
    "three-segment": ParamSchedule(
        switch_times=(0.0, 20.0, 41.25),
        params=(EpidemicParams(0.3, 0.1), EpidemicParams(0.15, 0.1), EpidemicParams(0.3, 0.25)),
    ),
}


def _mode_cases():
    for case in _reconstruct_cases():
        method, formulation = case.values
        for sched in MODE_SCHEDULES:
            if sched == "constant" or formulation.clock == "t":
                yield pytest.param(method, formulation, sched, id=f"{case.id}-{sched}")


class TestExtendedModes:
    @pytest.mark.parametrize("method,formulation", list(_reconstruct_cases()))
    def test_reconstruct_is_the_coordinate_march_with_lifted_momenta(
        self, init, schedule, method, formulation
    ):
        """Bit for bit: a reconstruct run is the run of its chart's canonical
        formulation, with the momenta the constraint pins to the coordinates
        appended."""
        base = Formulation.RESCALED_TAU if formulation.chart is Chart.DIRECT else Formulation.LOG_T
        dt, t_end = (0.01, 2.4) if formulation.clock == "tau" else (0.5, 60.0)
        kwargs = dict(method=method, dt=dt, t_end=t_end, sample_stride=7)
        rebuilt = integrate(
            RunSpec(formulation=formulation, extended_mode="reconstruct", **kwargs),
            init,
            schedule,
        )
        marched = integrate(RunSpec(formulation=base, **kwargs), init, schedule)
        assert rebuilt.formulation is formulation
        for name in ("t", "tau", "s", "i", "r", "h"):
            assert np.array_equal(getattr(rebuilt, name), getattr(marched, name)), name
        assert rebuilt.coords.shape == (marched.n_samples, 4)
        assert np.array_equal(rebuilt.coords[:, :2], marched.coords)
        momenta = np.column_stack(hamiltonian.consistent_momenta(marched.coords.T))
        assert np.array_equal(rebuilt.coords[:, 2:], momenta)

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("method,formulation,sched", list(_mode_cases()))
    def test_both_modes_give_one_trajectory(self, init, method, formulation, sched, stride):
        """Bit for bit, momenta included: ``direct4d`` and ``reconstruct``
        march the same coordinate block and append the same momenta."""
        dt, t_end = (0.01, 2.4) if formulation.clock == "tau" else (0.5, 60.0)
        kwargs = dict(
            method=method, formulation=formulation, dt=dt, t_end=t_end, sample_stride=stride
        )
        schedule = MODE_SCHEDULES[sched]
        direct = integrate(RunSpec(extended_mode="direct4d", **kwargs), init, schedule)
        rebuilt = integrate(RunSpec(extended_mode="reconstruct", **kwargs), init, schedule)
        assert direct.coords.shape == rebuilt.coords.shape == (rebuilt.n_samples, 4)
        for name in ("t", "tau", "s", "i", "r", "h", "coords"):
            assert np.array_equal(getattr(direct, name), getattr(rebuilt, name)), name

    @pytest.mark.parametrize("method", ["implicit_midpoint", "time_fe_cg1_gauss2"])
    @pytest.mark.parametrize("formulation", ["extended_4d_direct", "extended_4d_log"])
    def test_implicit_direct4d_solves_only_2_vectors(
        self, init, schedule, bound_calls, method, formulation
    ):
        """Each of the 50 steps runs Newton, calling the Jacobian at least
        once, and the rates and the Jacobian see 2-d states only."""
        spec = RunSpec(method=method, formulation=formulation, dt=0.01, t_end=0.5)
        steps = bound_calls(spec.formulation)
        traj = integrate(spec, init, schedule)
        assert traj.coords.shape == (51, 4)
        assert len(steps) == 50
        for y, calls in steps:
            assert len(y) == 2 and any(name == "jac" for name, _ in calls)
            assert all(len(z) == 2 for _, z in calls)

    def test_reconstruction_pins_the_constraint_to_zero(self, init, schedule):
        spec = RunSpec(
            method="rk4",
            formulation="extended_4d_log",
            dt=0.05,
            t_end=5.0,
            extended_mode="reconstruct",
        )
        traj = integrate(spec, init, schedule)
        q0, q1, p0, p1 = traj.coords.T
        assert np.max(np.abs(q0 + 2.0 * p1)) == 0.0
        assert np.max(np.abs(q1 - 2.0 * p0)) == 0.0

    def test_explicit_methods_also_hold_the_constraint(self, init, schedule):
        # the constraint rate vanishes identically, so even explicit Euler
        # transports it exactly; only rounding enters
        spec = RunSpec(
            method="explicit_euler", formulation="extended_4d_log", dt=0.05, t_end=5.0
        )
        traj = integrate(spec, init, schedule)
        q0, q1, p0, p1 = traj.coords.T
        assert np.max(np.abs(q0 + 2.0 * p1)) <= 1e-14
        assert np.max(np.abs(q1 - 2.0 * p0)) <= 1e-14


#: each extended formulation with the canonical formulation of its chart,
#: whose record it marches
TWIN_PAIRS = {
    "direct": (Formulation.RESCALED_TAU, Formulation.EXTENDED_4D_DIRECT),
    "log": (Formulation.LOG_T, Formulation.EXTENDED_4D_LOG),
}
#: each pair of formulations whose records step one chart differently
ONE_CHART_PAIRS = [
    (Formulation.BASIC_T, Formulation.RESCALED_TAU),
    (Formulation.BASIC_T, Formulation.SINGLE_ODE_DIRECT),
    (Formulation.RESCALED_TAU, Formulation.SINGLE_ODE_DIRECT),
    (Formulation.LOG_T, Formulation.SINGLE_ODE_LOG),
]


def _twin_cases():
    for method in Method:
        if method is Method.VARIATIONAL_MIDPOINT:
            continue  # it refuses the extended formulations
        for pair, sched in (("direct", "constant"), ("log", "constant"), ("log", "three-segment")):
            for order in ("canonical-first", "extended-first"):
                for stride in (1, 7):
                    yield pytest.param(
                        method, pair, sched, order, stride,
                        id=f"{method.value}-{pair}-{sched}-{order}-stride{stride}",
                    )


def _horizon(formulation):
    return (0.01, 2.4) if formulation.clock == "tau" else (0.5, 60.0)


class TestSharedMarch:
    """``_march_key``: which runs share a march, and ``_shared_march``: the
    trajectory a run takes from the one that marched."""

    @pytest.mark.parametrize("method,pair,sched,order,stride", list(_twin_cases()))
    def test_a_twin_takes_the_trajectory_of_its_own_march(
        self, init, method, pair, sched, order, stride
    ):
        """Bit for bit in all seven arrays, with its own formulation, in
        either order."""
        first, second = TWIN_PAIRS[pair]
        if order == "extended-first":
            first, second = second, first
        dt, t_end = _horizon(first)
        schedule = MODE_SCHEDULES[sched]
        specs = [
            RunSpec(method=method, formulation=form, dt=dt, t_end=t_end, sample_stride=stride)
            for form in (first, second)
        ]
        assert integrators._march_key(specs[0]) == integrators._march_key(specs[1])
        marched = integrate(specs[0], init, schedule)
        shared = integrators._shared_march(marched, specs[1])
        own = integrate(specs[1], init, schedule)
        assert shared.formulation is second
        assert shared.coords.shape == (own.n_samples, second.dim)
        for name in ("t", "tau", "s", "i", "r", "h", "coords"):
            assert np.array_equal(getattr(shared, name), getattr(own, name)), name
        # the run that marched keeps its own trajectory
        assert marched.formulation is first and marched.coords.shape[1] == first.dim

    @pytest.mark.parametrize("formulation", list(Formulation))
    def test_a_label_or_a_mode_does_not_change_the_march(self, init, schedule, formulation):
        dt, t_end = _horizon(formulation)
        spec = RunSpec(method="rk4", formulation=formulation, dt=dt, t_end=t_end)
        other = replace(spec, label="again", extended_mode="reconstruct")
        assert integrators._march_key(other) == integrators._march_key(spec)
        marched = integrate(spec, init, schedule)
        shared = integrators._shared_march(marched, other)
        for name in ("t", "tau", "s", "i", "r", "h", "coords"):
            assert np.array_equal(getattr(shared, name), getattr(marched, name)), name

    @pytest.mark.parametrize(
        "change",
        [
            {"dt": 0.25},
            {"t_end": 59.5},
            {"sample_stride": 7},
            {"method": Method.RK4},
            {"newton_tol": 1e-13},
            {"newton_max_iter": 49},
        ],
        ids=lambda change: next(iter(change)),
    )
    @pytest.mark.parametrize("pair", ["same", "twin"])
    def test_runs_that_march_differently_do_not_share(self, change, pair):
        spec = RunSpec(method="implicit_midpoint", formulation="log_t", dt=0.5, t_end=60.0)
        key = integrators._march_key(spec)
        form = Formulation.LOG_T if pair == "same" else Formulation.EXTENDED_4D_LOG
        assert integrators._march_key(replace(spec, formulation=form)) == key
        assert integrators._march_key(replace(spec, formulation=form, **change)) != key

    @pytest.mark.parametrize("first,second", ONE_CHART_PAIRS + [p[::-1] for p in ONE_CHART_PAIRS])
    def test_different_records_of_one_chart_do_not_share(self, first, second):
        """Both runs step the same chart at the same dt, horizon and stride,
        through different records."""
        spec = RunSpec(method="rk4", formulation=first, dt=0.01, t_end=2.4)
        key = integrators._march_key(replace(spec, formulation=second))
        assert key != integrators._march_key(spec)


class TestReconstructOrdinaryTime:
    def test_a_single_sample_starts_the_clock_at_zero(self, init, schedule):
        spec = RunSpec(method="rk4", formulation="rescaled_tau", dt=0.1, t_end=0.0)
        traj = integrate(spec, init, schedule)
        assert traj.n_samples == 1
        assert reconstruct_ordinary_time(traj).t.tolist() == [0.0]

    def test_two_samples_take_one_trapezoid(self, init, schedule):
        spec = RunSpec(method="rk4", formulation="rescaled_tau", dt=0.1, t_end=0.1)
        traj = integrate(spec, init, schedule)
        assert traj.n_samples == 2
        (s0, s1), (i0, i1) = traj.s, traj.i
        want = 0.5 * (traj.tau[1] - traj.tau[0]) * (1.0 / (s0 * i0) + 1.0 / (s1 * i1))
        assert reconstruct_ordinary_time(traj).t.tolist() == [0.0, want]

    def test_a_sample_below_the_floor_is_refused(self, init, schedule):
        spec = RunSpec(method="rk4", formulation="rescaled_tau", dt=0.1, t_end=1.0)
        traj = integrate(spec, init, schedule)
        traj.i[-1] = 1e-15
        with pytest.raises(StepAcrossSingularity, match=r"^S\*I reaches 6\.9\d\de-16; "):
            reconstruct_ordinary_time(traj)

    def test_needs_a_rescaled_clock(self, init, schedule):
        spec = RunSpec(method="rk4", formulation="log_t", dt=0.1, t_end=1.0)
        traj = integrate(spec, init, schedule)
        with pytest.raises(MissingDiagnostic):
            reconstruct_ordinary_time(traj)

    def test_is_idempotent_on_fresh_runs(self, init, schedule):
        # integrate() already maps the clock for rescaled runs; remapping
        # from the stored samples must reproduce the same column on the
        # stored grid
        spec = RunSpec(method="rk4", formulation="rescaled_tau", dt=0.001, t_end=1.0)
        traj = integrate(spec, init, schedule)
        again = reconstruct_ordinary_time(traj)
        # per-step accumulation vs sample-grid quadrature: same rule, same
        # grid (stride 1), so the columns coincide
        assert np.max(np.abs(again.t - traj.t)) <= 1e-12
