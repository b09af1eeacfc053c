import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sirham import (
    Chart,
    EpidemicParams,
    NonFiniteInput,
    OutsideLegendreDomain,
    el_residual_direct,
    el_residual_log,
    extended_lagrangian_gradients,
    hamiltonian_direct,
    hamiltonian_log,
    lagrangian_extended,
    lagrangian_minimal_direct,
    lagrangian_minimal_log,
    legendre_check_minimal,
    momentum_from_rate_direct,
    momentum_from_rate_log,
    rate_from_momentum_direct,
    rate_from_momentum_log,
)
from sirham.dynamics import log_accel, rescaled_accel

P = EpidemicParams(beta=0.3, gamma=0.1)

# valid rate windows for the two charts: below beta in the direct chart,
# above -gamma in the logarithmic one
direct_rate = st.floats(min_value=-5.0, max_value=0.29, allow_nan=False)
log_rate = st.floats(min_value=-0.0999, max_value=5.0, allow_nan=False)
fraction = st.floats(min_value=1e-4, max_value=1.0, allow_nan=False)


NON_FINITE_ARGUMENTS = {
    # a NaN rate fails the finiteness test of momentum_from_rate_log, which
    # supplies the Lagrangian's ln S
    "lagrangian_minimal_log": (lambda x: lagrangian_minimal_log(-4.6, x, P), "i_rate"),
    "lagrangian_minimal_direct": (lambda x: lagrangian_minimal_direct(x, 0.1, P), "i_value"),
    "rate_from_momentum_direct": (lambda x: rate_from_momentum_direct(x, P), "s"),
    "el_residual_log": (lambda x: el_residual_log(-4.6, 0.1, x, P), "i_accel"),
    "lagrangian_extended": (
        lambda x: lagrangian_extended((0.1, x), (0.0, 0.0), P, Chart.DIRECT),
        "q1",
    ),
}


@pytest.mark.parametrize("value", [math.nan, -math.inf], ids=["nan", "-inf"])
@pytest.mark.parametrize(
    "call, name", NON_FINITE_ARGUMENTS.values(), ids=NON_FINITE_ARGUMENTS.keys()
)
def test_a_non_finite_argument_is_refused(call, name, value):
    with pytest.raises(NonFiniteInput, match=rf"^{name} must be finite, got {value!r}$"):
        call(value)


class TestLegendreDirect:
    def test_momentum_value(self, params):
        # gamma / (beta - w) at w = 0.1
        assert momentum_from_rate_direct(0.1, params) == pytest.approx(
            0.5, rel=1e-15
        )

    def test_domain_boundary(self, params):
        with pytest.raises(OutsideLegendreDomain):
            momentum_from_rate_direct(0.3, params)
        with pytest.raises(OutsideLegendreDomain):
            momentum_from_rate_direct(0.31, params)

    @given(w=direct_rate)
    def test_round_trip_from_rate(self, w):
        back = rate_from_momentum_direct(momentum_from_rate_direct(w, P), P)
        assert abs(back - w) <= 1e-14 * max(1.0, abs(w))

    @given(s=st.floats(min_value=1e-3, max_value=1.0, allow_nan=False))
    def test_round_trip_from_momentum(self, s):
        back = momentum_from_rate_direct(rate_from_momentum_direct(s, P), P)
        assert abs(back - s) <= 1e-14 * max(1.0, abs(s))

    @given(i=fraction, w=st.floats(min_value=-2.0, max_value=0.29, allow_nan=False))
    def test_energy_pairing(self, i, w):
        """L + H = p * rate at points paired through the transform."""
        p_s = momentum_from_rate_direct(w, P)
        lhs = lagrangian_minimal_direct(i, w, P) + hamiltonian_direct((i, p_s), P)
        assert abs(lhs - p_s * w) <= 1e-12

    def test_action_density_value(self, params):
        assert lagrangian_minimal_direct(0.01, 0.1, params) == pytest.approx(
            -0.17231471805599453094, abs=1e-15
        )

    def test_momentum_is_the_rate_slope_of_the_lagrangian(self, params):
        """Central differences of L in the rate must reproduce the momentum
        map; this pins the analytic derivative used everywhere else."""
        eps = 1e-7
        for w in (-1.0, -0.3, 0.0, 0.1, 0.25):
            fd = (
                lagrangian_minimal_direct(0.01, w + eps, params)
                - lagrangian_minimal_direct(0.01, w - eps, params)
            ) / (2.0 * eps)
            assert fd == pytest.approx(
                momentum_from_rate_direct(w, params), rel=1e-7
            )


class TestLegendreLog:
    def test_momentum_value(self, params):
        # ln((w + gamma)/beta) at w = 0.2; the sum rounds a hair above 0.3
        assert momentum_from_rate_log(0.2, params) == pytest.approx(0.0, abs=1e-15)

    def test_domain_boundary(self, params):
        with pytest.raises(OutsideLegendreDomain):
            momentum_from_rate_log(-0.1, params)
        with pytest.raises(OutsideLegendreDomain):
            momentum_from_rate_log(-0.2, params)

    @given(w=log_rate)
    def test_round_trip_from_rate(self, w):
        back = rate_from_momentum_log(momentum_from_rate_log(w, P), P)
        assert abs(back - w) <= 1e-14 * max(1.0, abs(w))

    @given(ls=st.floats(min_value=-6.0, max_value=1.0, allow_nan=False))
    def test_round_trip_from_momentum(self, ls):
        back = momentum_from_rate_log(rate_from_momentum_log(ls, P), P)
        assert abs(back - ls) <= 1e-14 * max(1.0, abs(ls))

    @given(
        li=st.floats(min_value=-9.0, max_value=0.0, allow_nan=False),
        w=st.floats(min_value=-0.09, max_value=2.0, allow_nan=False),
    )
    def test_energy_pairing(self, li, w):
        p_s = momentum_from_rate_log(w, P)
        lhs = lagrangian_minimal_log(li, w, P) + hamiltonian_log((li, p_s), P)
        assert abs(lhs - p_s * w) <= 1e-12

    def test_action_density_value(self, params):
        # at w = 0.2 the log in the transform vanishes and the value is
        # exactly -(beta * I + w + gamma)
        assert lagrangian_minimal_log(math.log(0.01), 0.2, params) == pytest.approx(
            -0.303, abs=1e-15
        )

    def test_momentum_is_the_rate_slope_of_the_lagrangian(self, params):
        eps = 1e-7
        for w in (-0.05, 0.0, 0.2, 1.0):
            fd = (
                lagrangian_minimal_log(-4.6, w + eps, params)
                - lagrangian_minimal_log(-4.6, w - eps, params)
            ) / (2.0 * eps)
            assert fd == pytest.approx(
                momentum_from_rate_log(w, params), rel=1e-6, abs=1e-9
            )


class TestConsistencyChecks:
    @given(w=direct_rate)
    def test_check_minimal_direct(self, w):
        p_s = momentum_from_rate_direct(w, P)
        assert legendre_check_minimal(w, p_s, P, Chart.DIRECT) <= 1e-13

    @given(w=log_rate)
    def test_check_minimal_log(self, w):
        p_s = momentum_from_rate_log(w, P)
        assert legendre_check_minimal(w, p_s, P, Chart.LOGARITHMIC) <= 1e-13

    def test_check_flags_mismatched_pairs(self, params):
        assert legendre_check_minimal(0.1, 0.7, params, Chart.DIRECT) > 1e-2


class TestEulerLagrangeResiduals:
    @given(w=direct_rate)
    def test_direct_residual_vanishes_on_the_orbit(self, w):
        assert el_residual_direct(w, rescaled_accel(w, P), P) == 0.0

    @given(
        li=st.floats(min_value=-9.0, max_value=-0.1, allow_nan=False),
        w=log_rate,
    )
    def test_log_residual_vanishes_on_the_orbit(self, li, w):
        accel = log_accel(li, w, P)
        assert abs(el_residual_log(li, w, accel, P)) <= 1e-15

    def test_residual_detects_wrong_acceleration(self, params):
        assert abs(el_residual_direct(0.1, 0.0, params)) == pytest.approx(
            0.12, rel=1e-12
        )


class TestExtendedLagrangian:
    def test_degenerate_in_rates(self, params):
        """The extended action density is affine in the rates."""
        q = (0.01, 0.99)
        r1, r2 = (0.2, -0.3), (-0.1, 0.5)
        both = lagrangian_extended(q, (r1[0] + r2[0], r1[1] + r2[1]), params, Chart.DIRECT)
        one = lagrangian_extended(q, r1, params, Chart.DIRECT)
        two = lagrangian_extended(q, r2, params, Chart.DIRECT)
        zero = lagrangian_extended(q, (0.0, 0.0), params, Chart.DIRECT)
        assert both == pytest.approx(one + two - zero, abs=1e-15)

    def test_value_at_zero_rates_is_minus_energy(self, params):
        q = (0.01, 0.99)
        assert lagrangian_extended(q, (0.0, 0.0), params, Chart.DIRECT) == (
            -hamiltonian_direct(q, params)
        )
        lq = (math.log(0.01), math.log(0.99))
        assert lagrangian_extended(lq, (0.0, 0.0), params, Chart.LOGARITHMIC) == (
            -hamiltonian_log(lq, params)
        )

    @pytest.mark.parametrize("chart", [Chart.DIRECT, Chart.LOGARITHMIC])
    def test_gradients_match_finite_differences(self, params, chart):
        if chart is Chart.DIRECT:
            q = (0.05, 0.7)
        else:
            q = (math.log(0.05), math.log(0.7))
        r = (0.13, -0.21)
        d_coords, d_rates = extended_lagrangian_gradients(q, r, params, chart)
        eps = 1e-6

        def value(qq, rr):
            return lagrangian_extended(qq, rr, params, chart)

        for k in range(2):
            dq = [list(q), list(q)]
            dq[0][k] += eps
            dq[1][k] -= eps
            fd = (value(tuple(dq[0]), r) - value(tuple(dq[1]), r)) / (2 * eps)
            assert fd == pytest.approx(d_coords[k], rel=1e-6, abs=1e-9)
            dr = [list(r), list(r)]
            dr[0][k] += eps
            dr[1][k] -= eps
            fd = (value(q, tuple(dr[0])) - value(q, tuple(dr[1]))) / (2 * eps)
            assert fd == pytest.approx(d_rates[k], rel=1e-6, abs=1e-9)

    def test_rate_gradient_is_half_J_of_coords(self, params):
        q = (0.01, 0.99)
        _, d_rates = extended_lagrangian_gradients(q, (0.3, 0.1), params, Chart.DIRECT)
        assert d_rates == (0.5 * 0.99, -0.5 * 0.01)
