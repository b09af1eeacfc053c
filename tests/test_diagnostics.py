"""Monitors, analytic oracles, and the cross-formulation comparator."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirham import (
    Chart,
    CompartmentState,
    EpidemicParams,
    Formulation,
    Method,
    MissingDiagnostic,
    NoEpidemic,
    NonFiniteInput,
    NonPositiveCoordinate,
    ParamSchedule,
    RunSpec,
    ScenarioError,
    Trajectory,
    conservation_report,
    constraint_drift,
    fd_gradient_check,
    final_size_oracle,
    hamiltonian_drift,
    hamiltonian_direct,
    integrate,
    pairwise_sup_diff,
    peak_infection_oracle,
    population_conservation,
)

P = EpidemicParams(beta=0.3, gamma=0.1)
SCHEDULE = ParamSchedule.constant(P)
INIT = CompartmentState(s=0.99, i=0.01, r=0.0)

# level-set root for the canonical start, frozen from an independent
# high-precision bisection
S_INF = 0.058797364796777923496
# closed-form infectious peak for the same start
I_PEAK = 0.30381268239513058326

# a one-step middle segment: dt = 0.1 puts steps 300 and 301 at t = 30
# and 30.05, and no multiple of 7 or 8 on either
SHORT_SEGMENT = ParamSchedule(
    switch_times=(0.0, 30.0, 30.05),
    params=(P, EpidemicParams(0.15, 0.1), P),
)
SHORT_SEGMENT_RUN = RunSpec("rk4", "log_t", dt=0.1, t_end=60.0, sample_stride=8)


def synthetic(t, s, i, r, h, coords):
    """Hand-assembled trajectory for exercising the monitors in isolation."""
    t = np.asarray(t, dtype=float)
    return Trajectory(
        formulation=Formulation.BASIC_T,
        t=t,
        tau=np.full_like(t, np.nan),
        s=np.asarray(s, dtype=float),
        i=np.asarray(i, dtype=float),
        r=np.asarray(r, dtype=float),
        h=None if h is None else np.asarray(h, dtype=float),
        coords=np.asarray(coords, dtype=float),
        schedule=SCHEDULE,
    )


class TestHamiltonianDrift:
    def test_reads_off_the_energy_column(self):
        traj = synthetic(
            [0.0, 1.0, 2.0],
            [0.9, 0.9, 0.9],
            [0.05, 0.05, 0.05],
            [0.05, 0.05, 0.05],
            [0.5, 0.5 + 1e-6, 0.5 - 2e-6],
            np.zeros((3, 2)),
        )
        assert hamiltonian_drift(traj) == pytest.approx(4e-6, rel=1e-12)

    def test_missing_column_is_rejected(self):
        traj = synthetic([0.0], [0.9], [0.05], [0.05], None, np.zeros((1, 2)))
        with pytest.raises(MissingDiagnostic):
            hamiltonian_drift(traj)

    def test_zero_start_energy_is_rejected(self):
        traj = synthetic(
            [0.0, 1.0], [0.9] * 2, [0.05] * 2, [0.05] * 2, [0.0, 1e-3],
            np.zeros((2, 2)),
        )
        with pytest.raises(MissingDiagnostic):
            hamiltonian_drift(traj)

    def test_conservative_run_barely_drifts(self):
        spec = RunSpec("rk4", "log_t", dt=0.01, t_end=10.0)
        traj = integrate(spec, INIT, SCHEDULE)
        assert hamiltonian_drift(traj) < 1e-13


class TestPopulationConservation:
    def test_closed_bookkeeping_is_roundoff(self):
        spec = RunSpec("rk4", "basic_t", dt=0.05, t_end=10.0)
        traj = integrate(spec, INIT, SCHEDULE)
        assert population_conservation(traj) < 1e-12

    def test_requadrature_agrees_but_not_bitwise(self):
        spec = RunSpec("rk4", "basic_t", dt=0.05, t_end=10.0)
        traj = integrate(spec, INIT, SCHEDULE)
        residual = population_conservation(traj, independent_r=True)
        # trapezoid order, so visible but small; bitwise agreement would
        # mean the check is not independent at all
        assert 1e-12 < residual < 1e-5

    def test_requadrature_is_second_order_across_a_switch(self):
        """Each trapezoid takes the gamma of the segment around it; the
        interval ending at the switch sample read the incoming gamma once,
        which made the residual halve, not quarter, with dt."""
        schedule = ParamSchedule(
            switch_times=(0.0, 30.0), params=(P, EpidemicParams(beta=0.3, gamma=0.25))
        )
        residuals = [
            population_conservation(
                integrate(RunSpec("rk4", "log_t", dt=dt, t_end=60.0), INIT, schedule),
                independent_r=True,
            )
            for dt in (0.1, 0.05, 0.025, 0.0125)
        ]
        ratios = [a / b for a, b in zip(residuals, residuals[1:])]
        assert min(ratios) >= 3.5, ratios

    def test_empty_trajectory_is_vacuously_conserved(self):
        traj = synthetic([], [], [], [], [], np.zeros((0, 2)))
        assert population_conservation(traj) == 0.0
        assert population_conservation(traj, independent_r=True) == 0.0

    def test_single_sample_uses_stored_r(self):
        traj = synthetic([0.0], [0.9], [0.05], [0.06], [0.5], np.zeros((1, 2)))
        assert population_conservation(traj, independent_r=True) == pytest.approx(
            0.01, abs=1e-15
        )


class TestConstraintDrift:
    def test_planar_runs_have_no_momentum_block(self):
        traj = synthetic([0.0], [0.9], [0.05], [0.05], [0.5], np.zeros((1, 2)))
        with pytest.raises(MissingDiagnostic):
            constraint_drift(traj)

    def test_sup_norm_over_both_components(self):
        coords = np.array(
            [
                [1.0, 2.0, 1.0, -0.5],  # consistent: p = J q / 2
                [1.0, 2.0, 3.0, 4.0],  # c = (9, -4)
            ]
        )
        traj = synthetic(
            [0.0, 1.0], [0.9] * 2, [0.05] * 2, [0.05] * 2, [0.5] * 2, coords
        )
        assert constraint_drift(traj) == 9.0

    def test_a_nan_component_is_not_dropped(self):
        coords = np.array([[1.0, 2.0, 1.0, -0.5], [1.0, 2.0, np.nan, 4.0]])
        traj = synthetic(
            [0.0, 1.0], [0.9] * 2, [0.05] * 2, [0.05] * 2, [0.5] * 2, coords
        )
        assert math.isnan(constraint_drift(traj))

    def test_marched_extended_run_stays_on_the_manifold(self):
        spec = RunSpec("rk4", "extended_4d_log", dt=0.05, t_end=10.0)
        traj = integrate(spec, INIT, SCHEDULE)
        assert constraint_drift(traj) == 0.0


class TestConservationReport:
    def test_constant_parameters_single_segment(self):
        spec = RunSpec("implicit_midpoint", "log_t", dt=0.05, t_end=20.0)
        report = conservation_report(integrate(spec, INIT, SCHEDULE))
        assert len(report.per_segment_rel_h_drift) == 1
        assert report.max_rel_h_drift == pytest.approx(
            report.per_segment_rel_h_drift[0], rel=1e-6
        )
        assert report.max_rel_h_drift < 1e-5
        assert report.max_population_residual < 1e-12
        assert report.max_constraint_norm is None

    def test_parameter_switch_shifts_the_level(self):
        schedule = ParamSchedule(
            switch_times=(0.0, 30.0),
            params=(EpidemicParams(0.3, 0.1), EpidemicParams(0.15, 0.1)),
        )
        spec = RunSpec("implicit_midpoint", "log_t", dt=0.05, t_end=60.0)
        report = conservation_report(integrate(spec, INIT, schedule))
        assert len(report.per_segment_rel_h_drift) == 2
        # each leg conserves its own energy, the stored column sees the jump
        assert all(d < 1e-5 for d in report.per_segment_rel_h_drift)
        assert report.max_rel_h_drift > 0.1

    def test_extended_run_reports_constraint(self):
        spec = RunSpec("rk4", "extended_4d_log", dt=0.05, t_end=5.0)
        report = conservation_report(integrate(spec, INIT, SCHEDULE))
        assert report.max_constraint_norm == 0.0

    def test_a_segment_without_samples_reads_zero(self):
        # the march keeps both ends of [30, 30.05], so the empty segment is
        # made by hand: the run's samples with t in (29.6, 30.35) dropped
        traj = integrate(SHORT_SEGMENT_RUN, INIT, SHORT_SEGMENT)
        keep = (traj.t <= 29.6) | (traj.t >= 30.35)
        unsampled = replace(
            traj, **{c: getattr(traj, c)[keep] for c in ("t", "tau", "s", "i", "r", "h", "coords")}
        )
        assert not np.any((unsampled.t >= 30.0) & (unsampled.t <= 30.05))
        drifts = conservation_report(unsampled).per_segment_rel_h_drift
        assert drifts[1] == 0.0
        assert 0.0 < drifts[0] < 1e-9 and 0.0 < drifts[2] < 1e-9

    @pytest.mark.parametrize("stride", [7, 8])
    def test_a_one_step_segment_is_graded_at_any_stride(self, stride):
        # [30, 30.05] is one step long; its two ends are kept samples, and
        # its drift is theirs under the segment's own rates
        traj = integrate(replace(SHORT_SEGMENT_RUN, sample_stride=stride), INIT, SHORT_SEGMENT)
        ends = np.flatnonzero((traj.t >= 30.0) & (traj.t <= 30.05))
        assert traj.t[ends].tolist() == [30.0, 30.05]
        pars = SHORT_SEGMENT.params[1]
        s, i = traj.s[ends], traj.i[ends]
        h = pars.beta * (i + s) - pars.gamma * np.log(s)
        drifts = conservation_report(traj).per_segment_rel_h_drift
        assert drifts[1] == abs(h[1] - h[0]) / abs(h[0])
        assert 0.0 < drifts[0] < 1e-9 and 0.0 < drifts[2] < 1e-9

    def test_a_sample_at_the_slack_before_a_segment_is_graded_in_it(self):
        """The second segment of [0, 10] and [10, 20] grades the samples from
        10 - slack on, slack = 1e-9 * 20.  One sample lies exactly there, and
        it alone moves that segment's energy, which the later two share."""
        schedule = ParamSchedule(switch_times=(0.0, 10.0), params=(P, EpidemicParams(0.15, 0.1)))
        edge = 10.0 - 1e-9 * max(1.0, 20.0)
        s = np.array([0.9, 0.8, 0.7, 0.6, 0.6])
        i = np.full(5, 0.1)
        traj = replace(
            synthetic([0.0, 5.0, edge, 15.0, 20.0], s, i, 1.0 - s - i, np.ones(5), np.zeros((5, 2))),
            schedule=schedule,
        )
        h = hamiltonian_direct((i[2:], s[2:]), schedule.params[1])
        drifts = conservation_report(traj).per_segment_rel_h_drift
        assert drifts[1] == abs(h[1] - h[0]) / abs(h[0]) > 0.0

    def test_empty_trajectory_is_rejected(self):
        traj = synthetic([], [], [], [], [], np.zeros((0, 2)))
        with pytest.raises(MissingDiagnostic):
            conservation_report(traj)

    def test_each_energy_row_is_the_energy_of_its_state(self):
        """Every row of the H column is ``hamiltonian_direct`` of its own
        (I, S) under its segment's parameters, bit for bit, and each segment
        holds its level.  After beta is cut to 0.01, S stays near 1 and
        gamma*ln(S) is most of H, so a ``log`` that rounds apart from the
        column's reaches H: a column of ``np.log`` beside a one-state energy
        of ``math.log`` fails on 13 of the 1201 rows on an AVX-512 host,
        whose numpy has its own vectorised ``log``.  Where numpy calls the C
        library's ``log``, such a pair passes."""
        schedule = ParamSchedule(
            switch_times=(0.0, 5.0),
            params=(P, EpidemicParams(0.01, 0.1)),
        )
        traj = integrate(RunSpec("rk4", "log_t", dt=0.05, t_end=60.0), INIT, schedule)
        # the row at t = 5 is the first segment's closing step
        seg = np.searchsorted(schedule.switch_times, traj.t, side="left").clip(1) - 1
        assert np.count_nonzero(seg == 0) == 101 and np.count_nonzero(seg == 1) == 1100
        rows = zip(traj.i.tolist(), traj.s.tolist(), seg.tolist())
        want = np.array([hamiltonian_direct((i, s), schedule.params[k]) for i, s, k in rows])
        assert np.flatnonzero(traj.h != want).tolist() == []
        for k in (0, 1):
            h = traj.h[seg == k]
            assert np.max(np.abs(h - h[0])) < 1e-9 * h[0]

    @pytest.mark.parametrize(
        "s, raised",
        [(0.0, NonPositiveCoordinate), (-0.1, NonPositiveCoordinate), (math.nan, NonFiniteInput)],
        ids=["zero", "negative", "nan"],
    )
    def test_a_sample_the_energy_refuses_is_raised(self, s, raised):
        # made by hand: integrate keeps no sample with S <= 0 or a NaN
        traj = synthetic(
            [0.0, 1.0, 2.0],
            [0.9, s, 0.9],
            [0.05, 0.05, 0.05],
            [0.05, 0.05, 0.05],
            [0.5, 0.5, 0.5],
            np.zeros((3, 2)),
        )
        with pytest.raises(raised):
            conservation_report(traj)


class TestFinalSizeOracle:
    def test_canonical_start(self):
        assert final_size_oracle(P, 0.99, 0.01) == pytest.approx(S_INF, abs=1e-13)

    def test_root_satisfies_the_level_set_relation(self):
        s_inf = final_size_oracle(P, 0.99, 0.01)
        residual = math.log(s_inf / 0.99) - P.r0 * (s_inf - 0.99 - 0.01)
        assert abs(residual) < 1e-12

    @pytest.mark.parametrize(
        "pars, s0, i0",
        [
            (P, 0.99, 0.01),
            (EpidemicParams(0.5, 0.1), 0.5, 0.25),
            (EpidemicParams(2.0, 0.1), 0.99, 0.01),
        ],
        ids=["canonical", "r0-5", "r0-20"],
    )
    def test_the_bisection_stops_at_its_tolerance(self, monkeypatch, pars, s0, i0):
        """The bracket (0, 1/r0] is narrower than 1, so 50 halvings bring it
        to 1e-15: one logarithm each, at most 50, inside the bound of 52."""
        calls = []
        log = math.log

        def counted(x):
            calls.append(x)
            return log(x)

        monkeypatch.setattr(math, "log", counted)
        final_size_oracle(pars, s0, i0)
        assert len(calls) <= 52

    @pytest.mark.parametrize("beta", [72.0, 80.0, 100.0], ids=["r0-720", "r0-800", "r0-1000"])
    def test_a_root_below_the_normal_doubles_is_found(self, beta):
        """The root, about s0 exp(-r0), is subnormal at r0 = 720 and below
        the least double at 800 and 1000: a valid epidemic all the same, so
        the oracle returns a value within its 1e-15 of it."""
        assert 0.0 <= final_size_oracle(EpidemicParams(beta, 0.1), 0.99, 0.01) <= 1e-15

    def test_nothing_burns_without_infection(self):
        with pytest.raises(NoEpidemic):
            final_size_oracle(P, 0.99, 0.0)

    def test_subcritical_start_has_no_final_size(self):
        with pytest.raises(NoEpidemic):
            final_size_oracle(EpidemicParams(0.1, 0.2), 0.99, 0.01)

    def test_threshold_start_is_rejected_too(self):
        # exactly representable parameters so r0*s0 == 1 without roundoff
        with pytest.raises(NoEpidemic):
            final_size_oracle(EpidemicParams(0.25, 0.125), 0.5, 0.25)

    # keep r0 at or below 5: the remainder shrinks like exp(-r0), and once
    # the root is that small the bisection's absolute interval of 1e-15
    # stops pinning the level-set value through the steep ln term
    @given(
        r0=st.floats(1.5, 5.0),
        gamma=st.floats(0.1, 1.0),
        s0=st.floats(0.75, 0.98),
        headroom=st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_root_sits_below_threshold_on_the_level_set(self, r0, gamma, s0, headroom):
        pars = EpidemicParams(r0 * gamma, gamma)
        i0 = headroom * (1.0 - s0)
        s_inf = final_size_oracle(pars, s0, i0)
        assert 0.0 < s_inf < 1.0 / pars.r0
        assert s_inf < s0
        h0 = hamiltonian_direct((i0, s0), pars)
        h_end = hamiltonian_direct((0.0, s_inf), pars)
        assert abs(h_end - h0) <= 1e-11 * max(1.0, abs(h0))


class TestPeakInfectionOracle:
    def test_canonical_start(self):
        i_max, s_at = peak_infection_oracle(P, 0.99, 0.01)
        assert i_max == pytest.approx(I_PEAK, abs=1e-14)
        assert s_at == 1.0 / P.r0

    def test_threshold_start_peaks_immediately(self):
        i_max, s_at = peak_infection_oracle(EpidemicParams(0.25, 0.125), 0.5, 0.25)
        assert i_max == 0.25
        assert s_at == 0.5

    def test_subcritical_start_has_no_peak(self):
        with pytest.raises(NoEpidemic):
            peak_infection_oracle(EpidemicParams(0.1, 0.2), 0.9, 0.05)

    @given(
        r0=st.floats(1.5, 5.0),
        gamma=st.floats(0.1, 1.0),
        s0=st.floats(0.75, 0.98),
        headroom=st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_peak_lies_on_the_level_set(self, r0, gamma, s0, headroom):
        pars = EpidemicParams(r0 * gamma, gamma)
        i0 = headroom * (1.0 - s0)
        i_max, s_at = peak_infection_oracle(pars, s0, i0)
        assert i0 < i_max <= i0 + s0
        h0 = hamiltonian_direct((i0, s0), pars)
        h_peak = hamiltonian_direct((i_max, s_at), pars)
        assert abs(h_peak - h0) <= 1e-11 * max(1.0, abs(h0))

    def test_oracles_agree_with_each_other(self):
        # both oracles read the same conserved level, so restarting from
        # any state on that level must reproduce the same final size
        s_inf_from_start = final_size_oracle(P, 0.99, 0.01)
        s_mid = 0.5  # still supercritical, well clear of the threshold
        i_mid = 0.01 + 0.99 - s_mid + math.log(s_mid / 0.99) / P.r0
        s_inf_from_mid = final_size_oracle(P, s_mid, i_mid)
        assert s_inf_from_mid == pytest.approx(s_inf_from_start, abs=1e-12)


class TestFdGradientCheck:
    @pytest.mark.parametrize("chart", [Chart.DIRECT, Chart.LOGARITHMIC])
    def test_analytic_gradients_match_central_differences(self, chart):
        assert fd_gradient_check(chart, P, n_points=40, seed=3) < 1e-6

    def test_explicit_points_override_sampling(self):
        worst = fd_gradient_check(Chart.DIRECT, P, points=[(0.3, 0.5), (0.05, 0.9)])
        assert worst < 1e-8

    def test_unknown_chart_is_rejected(self):
        with pytest.raises(ScenarioError):
            fd_gradient_check("sideways", P, n_points=1)


class TestPairwiseSupDiff:
    def test_needs_two_runs(self):
        spec = RunSpec("rk4", "basic_t", dt=0.1, t_end=1.0)
        traj = integrate(spec, INIT, SCHEDULE)
        with pytest.raises(ScenarioError):
            pairwise_sup_diff([traj])

    def test_point_runs_do_not_overlap(self):
        frozen = integrate(RunSpec("rk4", "basic_t", dt=0.1, t_end=0.0), INIT, SCHEDULE)
        moving = integrate(RunSpec("rk4", "basic_t", dt=0.1, t_end=1.0), INIT, SCHEDULE)
        with pytest.raises(ScenarioError):
            pairwise_sup_diff([frozen, moving])

    def test_identical_runs_agree_exactly(self):
        spec = RunSpec("rk4", "basic_t", dt=0.1, t_end=5.0)
        a = integrate(spec, INIT, SCHEDULE)
        b = integrate(spec, INIT, SCHEDULE)
        assert np.all(pairwise_sup_diff([a, b]) == 0.0)

    def test_grid_comes_from_the_coarsest_run(self):
        coarse = integrate(RunSpec("rk4", "basic_t", dt=0.5, t_end=10.0), INIT, SCHEDULE)
        fine = integrate(RunSpec("rk4", "basic_t", dt=0.01, t_end=10.0), INIT, SCHEDULE)
        diff = pairwise_sup_diff([coarse, fine])
        assert diff.shape == (2, 2)
        assert diff[0, 0] == diff[1, 1] == 0.0
        assert diff[0, 1] == diff[1, 0]
        # at the coarse run's own sample instants both runs are accurate,
        # so the disagreement is far below the interpolation error a finer
        # common grid would show
        assert diff[0, 1] < 1e-6

    def test_matrix_is_the_pair_loop_and_a_nan_curve_leaves_the_diagonal_zero(self):
        runs = [
            integrate(RunSpec(method, formulation, dt=dt, t_end=10.0), INIT, SCHEDULE)
            for method, formulation, dt in (
                ("rk4", "basic_t", 0.5),
                ("rk4", "log_t", 0.1),
                ("explicit_euler", "basic_t", 0.25),
            )
        ]
        i = runs[1].i.copy()
        i[10] = math.nan
        runs.append(replace(runs[1], i=i))
        curves = [np.interp(runs[0].t, tr.t, tr.i) for tr in runs]
        expected = np.zeros((4, 4))
        for a in range(4):
            for b in range(a + 1, 4):
                expected[a, b] = expected[b, a] = np.max(np.abs(curves[a] - curves[b]))
        diff = pairwise_sup_diff(runs)
        assert np.array_equal(diff, expected, equal_nan=True)
        assert np.all(np.diag(diff) == 0.0)
        assert np.isnan(diff[3, :3]).all() and not np.isnan(diff[:3, :3]).any()
