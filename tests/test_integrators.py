import math
import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirham import hamiltonian, integrators
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

P = EpidemicParams(beta=0.3, gamma=0.1)
LOG_START = (math.log(0.01), math.log(0.99))


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
        def residual(u0, u1):
            return (0.0, math.nan)

        with pytest.raises(NewtonDivergence, match="residual norm nan$"):
            integrators._newton(residual, None, 0.0, 0.0, 1e-12, 0)


def central_jacobian(f, y, rel=1e-6):
    """Central finite differences of ``f`` at ``y``, as rows."""
    cols = []
    for j in range(len(y)):
        h = rel * max(1.0, abs(y[j]))
        up, down = list(y), list(y)
        up[j] += h
        down[j] -= h
        cols.append([(a - b) / (2.0 * h) for a, b in zip(f(tuple(up)), f(tuple(down)))])
    return [[col[k] for col in cols] for k in range(len(cols[0]))]


def assert_jacobian_matches(analytic, f, y):
    reference = central_jacobian(f, y)
    assert [len(row) for row in analytic] == [len(row) for row in reference]
    scale = max(1.0, max(abs(x) for row in reference for x in row))
    err = max(abs(a - b) for ra, rb in zip(analytic, reference) for a, b in zip(ra, rb))
    assert err <= 1e-9 * scale


#: (i0, s0, beta, gamma) points the Jacobian checks visit
JACOBIAN_POINTS = [
    (0.01, 0.99, 0.3, 0.1),
    (0.2, 0.5, 0.3, 0.1),
    (0.05, 0.3, 0.5, 0.2),
    (0.4, 0.45, 0.25, 0.15),
]
#: loose enough that the finite-difference bumps of an extended state pass
#: the constraint check, which the rates themselves never read
FD_CONSTRAINT_TOL = 1.0


def extended_rates(formulation, params):
    """The 4-d rates of an extended formulation, behind ``extended_rhs``."""
    chart = formulation.chart
    return lambda y: hamiltonian._extended_rates(y, params, chart, FD_CONSTRAINT_TOL)


@pytest.fixture
def newton_sizes(monkeypatch):
    """The width of the unknown each Newton call solves for, in call order."""
    sizes = []
    newton = integrators._newton

    def capture(residual, jacobian, u0, u1, tol, max_iter, width=2):
        sizes.append(width)
        return newton(residual, jacobian, u0, u1, tol, max_iter, width)

    monkeypatch.setattr(integrators, "_newton", capture)
    return sizes


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

    @staticmethod
    def newton_systems(monkeypatch, step, *args, **kwargs):
        """The residual and Jacobian of each Newton call a step makes, as
        functions of the unknown pair, with its predictor and width."""
        seen = []
        newton = integrators._newton

        def capture(residual, jacobian, u0, u1, tol, max_iter, width=2):
            a00, a01, a10, a11 = jacobian(u0, u1)
            seen.append((lambda u: residual(*u), ((a00, a01), (a10, a11)), (u0, u1), width))
            return newton(residual, jacobian, u0, u1, tol, max_iter, width)

        monkeypatch.setattr(integrators, "_newton", capture)
        step(*args, **kwargs)
        return seen

    @pytest.mark.parametrize(
        "step",
        [step_implicit_midpoint, step_time_fe_cg1, step_symplectic_euler],
        ids=lambda s: s.__name__,
    )
    @pytest.mark.parametrize("formulation", list(Formulation), ids=lambda f: f.value)
    def test_residual_jacobian_matches_the_residual(self, monkeypatch, step, formulation):
        """Each step as the march builds it.  Symplectic Euler on a separable
        record never reaches Newton; an extended formulation's record is its
        chart's."""
        rec = _RECORDS[formulation]
        for i0, s0, beta, gamma in JACOBIAN_POINTS:
            params = EpidemicParams(beta, gamma)
            y = rec.start(i0, s0, params)
            if step is step_symplectic_euler:
                # call the step with the record's own rhs and flag
                seen = self.newton_systems(
                    monkeypatch, step, rec.rhs(), rec.jac(), params, y, 0.05,
                    separable=rec.separable,
                )
                if rec.separable:
                    assert seen == []
                    continue
            else:
                method = (
                    Method.IMPLICIT_MIDPOINT
                    if step is step_implicit_midpoint
                    else Method.TIME_FE_CG1_GAUSS2
                )
                spec = RunSpec(method=method, formulation=formulation, dt=0.05, t_end=1.0)
                stepper = integrators._make_stepper(spec, rec, params)
                seen = self.newton_systems(monkeypatch, stepper, y, 0.05)
            # a 1-d momentum equation is padded in front by u0 = 0
            (residual, jacobian, u, width), = seen
            assert width == (1 if step is step_symplectic_euler else 2)
            assert_jacobian_matches(jacobian, residual, u)

    @pytest.mark.parametrize("chart", list(Chart), ids=lambda c: c.value)
    def test_variational_residual_jacobian(self, monkeypatch, chart):
        formulation = Formulation.RESCALED_TAU if chart is Chart.DIRECT else Formulation.LOG_T
        for i0, s0, beta, gamma in JACOBIAN_POINTS:
            params = EpidemicParams(beta, gamma)
            rec = _RECORDS[formulation]
            y = rec.start(i0, s0, params)
            (residual, jacobian, u, width), = self.newton_systems(
                monkeypatch,
                step_variational_midpoint,
                rec.rhs(),
                rec.jac(),
                params,
                y,
                0.05,
                chart=chart,
            )
            assert width == 2
            assert_jacobian_matches(jacobian, residual, u)

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
        self, init, schedule, monkeypatch, formulation, rhs_name, dt
    ):
        """Two rhs evaluations per step and no Newton call over 400 steps."""
        calls = []
        rhs = getattr(integrators.hamiltonian, rhs_name)

        def counting(*args):
            calls.append(None)
            return rhs(*args)

        def no_newton(*args):
            raise AssertionError("symplectic Euler called Newton on a separable chart")

        monkeypatch.setattr(integrators.hamiltonian, rhs_name, counting)
        monkeypatch.setattr(integrators, "_newton", no_newton)
        spec = RunSpec(method="symplectic_euler", formulation=formulation, dt=dt, t_end=400 * dt)
        traj = integrate(spec, init, schedule)
        assert traj.n_samples == 401
        assert len(calls) == 2 * 400

    @pytest.mark.parametrize("formulation", ["basic_t", "single_ode_direct", "single_ode_log"])
    def test_symplectic_euler_keeps_newton_where_momenta_feed_back(
        self, init, schedule, newton_sizes, formulation
    ):
        spec = RunSpec(method="symplectic_euler", formulation=formulation, dt=0.01, t_end=0.5)
        integrate(spec, init, schedule)
        assert newton_sizes == [1] * 50


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

    @pytest.mark.parametrize("sample, step, clock", [(2, 6, "0.6"), (4, 10, "1")])
    def test_a_non_finite_fraction_is_refused(self, init, schedule, monkeypatch, sample, step, clock):
        # stride 3 over 10 steps keeps steps 0, 3, 6, 9 and the final 10
        rec = _RECORDS[Formulation.LOG_T]

        def poisoned(coords, beta, gamma):
            i_col, s_col = rec.fractions(coords, beta, gamma)
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
        assert rebuilt.spec.formulation is formulation
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
        self, init, schedule, newton_sizes, method, formulation
    ):
        spec = RunSpec(method=method, formulation=formulation, dt=0.01, t_end=0.5)
        traj = integrate(spec, init, schedule)
        assert traj.coords.shape == (51, 4)
        assert newton_sizes == [2] * 50

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


class TestReconstructOrdinaryTime:
    def test_a_single_sample_starts_the_clock_at_zero(self, init, schedule):
        spec = RunSpec(method="rk4", formulation="rescaled_tau", dt=0.1, t_end=0.0)
        traj = integrate(spec, init, schedule)
        assert traj.n_samples == 1
        assert reconstruct_ordinary_time(traj).t.tolist() == [0.0]

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
