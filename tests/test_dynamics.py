import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sirham import EpidemicParams
from sirham.dynamics import log_accel, rescaled_accel, sir_rhs
from sirham.errors import (
    NonFiniteInput,
    NonPositiveCoordinate,
    SingularDenominator,
)
from sirham.hamiltonian import hamilton_rhs_direct, hamilton_rhs_log

fraction = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)

#: immutable reference parameters for the property tests (fixtures and
#: hypothesis do not mix for function-scoped fixtures)
P = EpidemicParams(beta=0.3, gamma=0.1)


def test_sir_rhs_hand_computed(params):
    # flux = 0.3 * 0.99 * 0.01 = 2.97e-3, recovery = 0.1 * 0.01 = 1e-3
    di, ds = sir_rhs((0.01, 0.99), params)
    assert di == pytest.approx(0.00197, abs=1e-18)
    assert ds == pytest.approx(-0.00297, abs=1e-18)


@given(i=fraction, s=fraction)
def test_sir_rhs_budget(i, s):
    # dI + dS = -gamma*I: what leaves S enters I, what leaves I is recovery
    di, ds = sir_rhs((i, s), P)
    assert di + ds == pytest.approx(-P.gamma * i, rel=1e-12, abs=1e-18)


def test_sir_rhs_rejects_non_finite(params):
    with pytest.raises(NonFiniteInput):
        sir_rhs((math.nan, 0.5), params)


# the rescaled-clock and log-chart forcings are the canonical flows of
# sirham.hamiltonian; they are checked here against the plain model


def test_rescaled_forcing_values(params):
    fi, fs = hamilton_rhs_direct((0.01, 0.99), params)
    assert fi == pytest.approx(0.3 - 0.1 / 0.99, rel=1e-15)
    assert fs == -0.3


def test_rescaled_forcing_singularities(params):
    with pytest.raises(SingularDenominator):
        hamilton_rhs_direct((0.01, 0.0), params)
    with pytest.raises(NonPositiveCoordinate):
        hamilton_rhs_direct((0.01, -0.2), params)


@given(i=fraction, s=fraction)
def test_rescaled_equals_ordinary_over_dilation(i, s):
    """The intrinsic-clock rates are the ordinary rates divided by S*I:
    undoing the clock rescaling must recover the plain rates."""
    di, ds = sir_rhs((i, s), P)
    fi, fs = hamilton_rhs_direct((i, s), P)
    dil = s * i
    # the two routes associate the products differently, so near the
    # threshold S = gamma/beta the I-rate is pure cancellation noise and
    # only agrees to a few ulp of the intermediate terms
    assert fi * dil == pytest.approx(di, rel=1e-12, abs=5e-16)
    assert fs * dil == pytest.approx(ds, rel=1e-12, abs=5e-16)


def test_log_forcing_values(params):
    li, ls = math.log(0.01), math.log(0.99)
    fi, fs = hamilton_rhs_log((li, ls), params)
    assert fi == pytest.approx(0.3 * 0.99 - 0.1, rel=1e-14)
    assert fs == pytest.approx(-0.3 * 0.01, rel=1e-14)


@given(i=fraction, s=fraction)
def test_log_forcing_matches_direct_rates(i, s):
    """d(ln I)/dt = (dI/dt)/I, and likewise for S."""
    di, ds = sir_rhs((i, s), P)
    fi, fs = hamilton_rhs_log((math.log(i), math.log(s)), P)
    assert fi == pytest.approx(di / i, rel=1e-10)
    assert fs == pytest.approx(ds / s, rel=1e-10)


def test_rescaled_accel(params):
    # -r0 * (beta - w)^2 at w = 0.1: -3 * 0.04 = -0.12
    assert rescaled_accel(0.1, params) == pytest.approx(-0.12, rel=1e-15)
    with pytest.raises(NonFiniteInput):
        rescaled_accel(math.inf, params)


def test_log_accel(params):
    # -beta * I * (w + gamma) at I = 0.01, w = 0.2
    assert log_accel(math.log(0.01), 0.2, params) == pytest.approx(
        -0.3 * 0.01 * 0.3, rel=1e-14
    )


@given(i=fraction, s=fraction)
def test_log_accel_closes_the_second_order_form(i, s):
    """Differentiating d(ln I)/dt = beta*S - gamma once more along the flow
    gives beta*dS/dt; the acceleration helper must agree with that chain
    rule at every point of the orbit."""
    rate_i = P.beta * s - P.gamma
    _, ds = sir_rhs((i, s), P)
    assert log_accel(math.log(i), rate_i, P) == pytest.approx(
        P.beta * ds, rel=1e-10, abs=1e-15
    )
