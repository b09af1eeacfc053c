"""Structural claims of the one-step methods, graded against the exact flow.

Time symmetry (Hairer, Lubich & Wanner, *Geometric Numerical Integration*,
§II.3 and §V.1): a one-step method is symmetric when its step of -h undoes
its step of h, as the exact flow's does.  Implicit midpoint, the two-point
Gauss Galerkin step and the variational midpoint are symmetric; explicit
Euler, RK4 and symplectic Euler are not.  Each method takes one step of h
and one of -h from one state, through the stepper the march builds, and
the round trip ``max |y2 - y0|`` is graded.

The bounds are derived here from the schemes, not from measured values:

* A symmetric step solves its stage equation only to Newton's stopping
  test: every residual entry within ``tol``, and a residual evaluation is
  off by a few ulp of the largest of |y| and |h f|.  With h ||Df|| <= 1,
  which the tests check at both ends of the forward step, the stage
  Jacobian I - (h/2) Df has an inverse of norm at most 2, and the
  variational residual, in momentum units, moves by half of what the
  coordinates move: so each endpoint is within 2 * 2 * (tol + 4 ulp) of
  the exact solve.  The backward step carries the forward step's error
  with gain at most (1 + 1/2) / (1 - 1/2) = 3 and adds its own, so the
  round trip is within (3 + 1) * 4 * (tol + 4 ulp) = 16 tol + 64 ulp, the
  ulp of max(1, |y0|).  The bound is graded from the fixed start and from
  derandomised ``hypothesis`` draws of the start and of beta and gamma,
  each kept only where h ||Df|| <= 1 at both ends.  A forward step whose
  Newton iteration stops without converging, or whose iterate or end the
  chart refuses, has no end there, and its draw is not kept: on
  ``single_ode_direct`` and ``rescaled_tau`` that happens at h ||Df|| near
  1 at the start, where a shorter step already ends beyond 1, and where S
  is drawn within h beta of 0 on ``rescaled_tau``, whose S falls at the
  rate beta.
* Explicit Euler's round trip is y - h^2 Df f + O(h^3), and symplectic
  Euler's adjoint is the other symplectic Euler, so both scale as h^2.  The
  h^5 terms of RK4's two local errors cancel, so its round trip scales as
  h^6.  A slope is fitted only over round trips at least 32 times the
  rounding part of the symmetric bound: a relative error of 1/32 moves the
  log2 ratio of two neighbours by at most log2(33/31) < 0.1 of the 0.2
  allowed.
* Each clock's largest step moves the fractions that its rates read by a
  few percent at the start: in t, I moves at the relative rate
  beta S - gamma = 0.08, 6.4 % in a step of 0.8; in tau, only S enters
  the rates, and it moves at beta / S = 0.5, 5 % in a step of 0.1.
"""

import sys

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from sirham import EpidemicParams, Formulation, RunSpec
from sirham.errors import NewtonDivergence, RhsDomainError
from sirham.integrators import NEWTON_TOL, _make_stepper, _RECORDS

START = (0.05, 0.6)  # (I, S)
PARAMS = EpidemicParams(beta=0.3, gamma=0.1)
STEPS = {"t": (0.8, 0.4, 0.2, 0.1), "tau": (0.1, 0.05, 0.025, 0.0125)}
FORMULATIONS = ("log_t", "basic_t", "rescaled_tau", "single_ode_direct", "single_ode_log")
CANONICAL = ("log_t", "rescaled_tau")
SYMMETRIC = ("implicit_midpoint", "variational_midpoint", "time_fe_cg1_gauss2")
EPS = sys.float_info.epsilon


def cases(methods):
    return [
        (method, formulation)
        for method in methods
        for formulation in FORMULATIONS
        if method != "variational_midpoint" or formulation in CANONICAL
    ]


def require(condition):
    assert condition


def round_trips(method, formulation, tol=NEWTON_TOL, start=START, params=PARAMS, holds=require):
    """The start, and ``max |y2 - y0|`` of one step of h then one of -h at
    each h of the clock's ``STEPS``, from the fractions ``start`` under
    ``params``.  ``holds`` is handed whether h ||Df|| <= 1 at the start,
    then at the end of the forward step, at the largest h."""
    form = Formulation(formulation)
    rec, steps = _RECORDS[form], STEPS[form.clock]
    step = _make_stepper(RunSpec(method, form, dt=1.0, t_end=1.0, newton_tol=tol), rec, params)

    def small(y):
        (d00, d01), (d10, d11) = rec.jac()(y, params)
        return steps[0] * max(abs(d00) + abs(d01), abs(d10) + abs(d11)) <= 1.0

    y0 = rec.start(*start, params)
    holds(small(y0))
    try:
        end = step(y0, steps[0])
        # the chart's rates refuse an end outside it
        rec.rhs()(end, params)
    except (NewtonDivergence, RhsDomainError):
        # the step has no end in the chart
        end = None
    holds(end is not None and small(end))
    return y0, [max(abs(a - b) for a, b in zip(step(step(y0, h), -h), y0)) for h in steps]


def rounding(y0):
    """The rounding part of the symmetric bound: 64 ulp of max(1, |y0|)."""
    return 64.0 * EPS * max(1.0, *map(abs, y0))


@pytest.mark.parametrize("tol", [1e-15, NEWTON_TOL, 1e-9])
@pytest.mark.parametrize("method, formulation", cases(SYMMETRIC))
def test_a_symmetric_step_is_undone_by_its_negative(method, formulation, tol):
    y0, gaps = round_trips(method, formulation, tol)
    assert max(gaps) <= 16.0 * tol + rounding(y0), gaps


@pytest.mark.parametrize("method, formulation", cases(SYMMETRIC))
@settings(max_examples=25, derandomize=True, deadline=None, phases=[Phase.generate])
@given(
    i=st.floats(0.001, 0.5),
    s=st.floats(0.05, 0.99),
    beta=st.floats(0.05, 1.0),
    gamma=st.floats(0.01, 0.5),
    tol=st.sampled_from([1e-15, NEWTON_TOL, 1e-9]),
)
def test_a_symmetric_step_is_undone_from_drawn_starts(method, formulation, i, s, beta, gamma, tol):
    """The same bound from a drawn start and rates, where h ||Df|| <= 1 at
    both ends of the forward step."""
    assume(i + s <= 1.0)
    params = EpidemicParams(beta=beta, gamma=gamma)
    y0, gaps = round_trips(method, formulation, tol, (i, s), params, holds=assume)
    assert max(gaps) <= 16.0 * tol + rounding(y0), gaps


ORDER = {"explicit_euler": 2, "symplectic_euler": 2, "rk4": 6}


@pytest.mark.parametrize(
    "method, formulation",
    [case for case in cases(ORDER) if case not in (("rk4", "rescaled_tau"), ("rk4", "basic_t"))],
)
def test_an_unsymmetric_round_trip_scales_as_its_order(method, formulation):
    y0, gaps = round_trips(method, formulation)
    steps = STEPS[Formulation(formulation).clock]
    far = [(h, gap) for h, gap in zip(steps, gaps) if gap >= 32.0 * rounding(y0)]
    assert len(far) >= 2, gaps
    slope = np.polyfit(*np.log(np.array(far).T), 1)[0]
    assert abs(slope - ORDER[method]) <= 0.2, (slope, gaps)


def test_the_rk4_round_trips_that_fit_no_slope():
    """Every rescaled-clock step is a shear: S is linear in tau, and RK4
    takes I by Simpson's rule over gamma / S, which -h undoes to rounding.
    On basic_t RK4 is not yet asymptotic at these h: its round trip falls,
    and is far above rounding only at the largest."""
    y0, gaps = round_trips("rk4", "rescaled_tau")
    assert max(gaps) <= rounding(y0), gaps
    y0, gaps = round_trips("rk4", "basic_t")
    assert gaps[0] >= 32.0 * rounding(y0) and gaps == sorted(gaps, reverse=True), gaps
