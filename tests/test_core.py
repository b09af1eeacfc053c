import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sirham import (
    Chart,
    CompartmentState,
    EpidemicParams,
    InvalidFractions,
    NonFiniteInput,
    NonPositiveCoordinate,
    ParamSchedule,
    PhasePoint2,
    ScenarioError,
    apply_J,
    from_log,
    recovered_from,
    to_log,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive_fraction = st.floats(min_value=1e-9, max_value=1.0, allow_nan=False)


class TestEpidemicParams:
    def test_r0(self):
        assert EpidemicParams(beta=0.3, gamma=0.1).r0 == pytest.approx(3.0)

    @pytest.mark.parametrize("beta,gamma", [(0.0, 0.1), (0.3, 0.0), (-1.0, 0.1)])
    def test_rejects_non_positive_rates(self, beta, gamma):
        with pytest.raises(ScenarioError):
            EpidemicParams(beta=beta, gamma=gamma)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInput):
            EpidemicParams(beta=math.nan, gamma=0.1)

    @pytest.mark.parametrize("beta", [True, "0.3", None])
    def test_rejects_non_numbers(self, beta):
        with pytest.raises(ScenarioError, match="beta must be a number"):
            EpidemicParams(beta=beta, gamma=0.1)


class TestParamSchedule:
    def test_constant(self, params):
        sched = ParamSchedule.constant(params)
        assert sched.is_constant
        assert sched.at(0.0) is params
        assert sched.at(1e9) is params

    def test_first_switch_must_be_zero(self, params):
        with pytest.raises(ScenarioError):
            ParamSchedule(switch_times=(1.0,), params=(params,))

    def test_switch_times_strictly_increasing(self, params):
        with pytest.raises(ScenarioError):
            ParamSchedule(switch_times=(0.0, 5.0, 5.0), params=(params,) * 3)

    def test_length_mismatch(self, params):
        with pytest.raises(ScenarioError):
            ParamSchedule(switch_times=(0.0, 1.0), params=(params,))

    def test_rejects_a_bool_switch_time(self, params):
        with pytest.raises(ScenarioError, match="switch time must be a number"):
            ParamSchedule(switch_times=(False,), params=(params,))

    def test_lookup_is_right_continuous(self):
        a = EpidemicParams(0.3, 0.1)
        b = EpidemicParams(0.15, 0.1)
        sched = ParamSchedule(switch_times=(0.0, 30.0), params=(a, b))
        assert sched.at(29.999999) is a
        assert sched.at(30.0) is b
        assert sched.at(30.000001) is b

    def test_negative_time_rejected(self, schedule):
        with pytest.raises(ScenarioError):
            schedule.at(-0.1)

    def test_segments_cover_horizon(self):
        a = EpidemicParams(0.3, 0.1)
        b = EpidemicParams(0.15, 0.1)
        sched = ParamSchedule(switch_times=(0.0, 30.0), params=(a, b))
        assert sched.segments(100.0) == [(0.0, 30.0, a), (30.0, 100.0, b)]
        assert sched.segments(10.0) == [(0.0, 10.0, a)]
        # a zero-length horizon still yields one (degenerate) segment
        assert sched.segments(0.0) == [(0.0, 0.0, a)]

    @given(t=st.floats(min_value=0.0, max_value=200.0, allow_nan=False))
    def test_lookup_matches_segment_membership(self, t):
        sched = ParamSchedule(
            switch_times=(0.0, 10.0, 50.0),
            params=(
                EpidemicParams(0.3, 0.1),
                EpidemicParams(0.2, 0.1),
                EpidemicParams(0.1, 0.05),
            ),
        )
        active = sched.at(t)
        for start, stop, pars in sched.segments(200.0):
            if start <= t < stop:
                assert active is pars


class TestCompartmentState:
    def test_accepts_boundary_values(self):
        CompartmentState(s=1.0, i=0.0, r=0.0)
        CompartmentState(s=0.0, i=0.0, r=1.0)

    @pytest.mark.parametrize(
        "s,i,r",
        [(-0.1, 0.5, 0.6), (0.5, 1.2, -0.7), (0.5, 0.4, 0.3), (0.2, 0.2, 0.2)],
    )
    def test_rejects_bad_fractions(self, s, i, r):
        with pytest.raises(InvalidFractions):
            CompartmentState(s=s, i=i, r=r)

    def test_recovered_from_closes_the_sum(self):
        state = recovered_from(0.99, 0.01)
        assert state.r == pytest.approx(0.0, abs=1e-15)
        assert state.s + state.i + state.r == pytest.approx(1.0, abs=1e-15)

    def test_refuses_non_numbers(self):
        with pytest.raises(ScenarioError, match="i must be a number"):
            CompartmentState(s=0.99, i=True, r=0.0)
        with pytest.raises(ScenarioError, match="s must be a number"):
            recovered_from("0.99", 0.01)

    @given(s=positive_fraction, i=positive_fraction)
    def test_recovered_from_any_valid_pair(self, s, i):
        if s + i > 1.0:
            with pytest.raises(InvalidFractions):
                recovered_from(s, i)
        else:
            state = recovered_from(s, i)
            assert abs(state.s + state.i + state.r - 1.0) <= 1e-12


class TestApplyJ:
    def test_basis_vectors(self):
        assert apply_J((1.0, 0.0)) == (0.0, -1.0)
        assert apply_J((0.0, 1.0)) == (1.0, 0.0)

    @given(a=finite, b=finite)
    def test_squares_to_minus_identity(self, a, b):
        assert apply_J(apply_J((a, b))) == (-a, -b)

    @given(a=finite, b=finite)
    def test_orthogonality(self, a, b):
        # v . (J v) vanishes identically, exactly in floating point
        ja, jb = apply_J((a, b))
        assert a * ja + b * jb == 0.0


class TestChartMaps:
    @given(q=positive_fraction, p=positive_fraction)
    def test_round_trip(self, q, p):
        point = PhasePoint2(q, p, Chart.DIRECT)
        back = from_log(to_log(point))
        assert back.chart is Chart.DIRECT
        assert back.q == pytest.approx(q, rel=1e-14)
        assert back.p == pytest.approx(p, rel=1e-14)

    def test_zero_is_not_in_the_log_chart(self):
        with pytest.raises(NonPositiveCoordinate):
            to_log(PhasePoint2(0.0, 0.99, Chart.DIRECT))
        with pytest.raises(NonPositiveCoordinate):
            to_log(PhasePoint2(0.01, -0.5, Chart.DIRECT))

    def test_chart_tags_are_enforced(self):
        log_point = PhasePoint2(-4.6, -0.01, Chart.LOGARITHMIC)
        with pytest.raises(ScenarioError):
            to_log(log_point)
        with pytest.raises(ScenarioError):
            from_log(PhasePoint2(0.01, 0.99, Chart.DIRECT))

    def test_known_values(self):
        point = to_log(PhasePoint2(0.01, 0.99, Chart.DIRECT))
        assert point.q == pytest.approx(-4.605170185988091368, abs=1e-15)
        assert point.p == pytest.approx(-0.010050335853501441184, abs=1e-17)
