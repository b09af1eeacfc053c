import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sirham import (
    Chart,
    ConstraintViolation,
    EpidemicParams,
    ExtendedPhasePoint,
    NonFiniteInput,
    NonPositiveCoordinate,
    ScenarioError,
    apply_J,
    consistent_momenta,
    dirac_constraint,
    dirac_multiplier,
    extended_hamiltonian,
    extended_lagrangian_gradients,
    extended_rhs,
    fd_gradient_check,
    gradient_direct,
    gradient_log,
    hamilton_rhs_direct,
    hamilton_rhs_log,
    hamiltonian_direct,
    hamiltonian_log,
    lagrangian_extended,
    legendre_check_minimal,
)
from sirham.hamiltonian import _extended_rates

P = EpidemicParams(beta=0.3, gamma=0.1)
fraction = st.floats(min_value=1e-4, max_value=1.0, allow_nan=False)

#: conserved energy of the reference initial state (0.01, 0.99), computed
#: independently with 50-digit arithmetic and frozen here
H0 = 0.30100503358535014412


#: every reader of a chart argument, called at a point valid in both charts
CHART_READERS = {
    "dirac_multiplier": lambda chart: dirac_multiplier((0.1, 0.5), P, chart),
    "_extended_rates": lambda chart: _extended_rates((0.1, 0.5, 0.25, -0.05), P, chart, 1e-9),
    "extended_lagrangian_gradients": lambda chart: extended_lagrangian_gradients(
        (0.1, 0.5), (0.0, 0.0), P, chart
    ),
    "lagrangian_extended": lambda chart: lagrangian_extended((0.1, 0.5), (0.0, 0.0), P, chart),
    "legendre_check_minimal": lambda chart: legendre_check_minimal(0.1, 0.5, P, chart),
    "fd_gradient_check": lambda chart: fd_gradient_check(chart, P, n_points=1),
}


@pytest.mark.parametrize("reader", CHART_READERS.values(), ids=CHART_READERS.keys())
def test_every_chart_reader_refuses_an_unknown_chart(reader):
    for chart in Chart:
        reader(chart)
    with pytest.raises(ScenarioError, match=r"^unknown chart 'sideways'$"):
        reader("sideways")


@pytest.mark.parametrize("energy", [hamiltonian_direct, hamiltonian_log])
@pytest.mark.parametrize("z", [(math.nan, 0.5), (0.1, math.inf)], ids=["nan", "inf"])
def test_an_energy_refuses_a_non_finite_state(energy, z):
    with pytest.raises(NonFiniteInput, match=re.escape(f"state must be finite, got {z}")):
        energy(z, P)


class TestDirectChart:
    def test_energy_reference_value(self, params):
        assert hamiltonian_direct((0.01, 0.99), params) == pytest.approx(
            H0, abs=1e-16
        )

    def test_energy_rejects_non_positive_s(self, params):
        with pytest.raises(NonPositiveCoordinate):
            hamiltonian_direct((0.01, 0.0), params)

    @pytest.mark.parametrize(
        "i, s, raised",
        [
            ((0.01, math.nan), (0.99, 0.5), NonFiniteInput),
            ((0.01, 0.2), (0.99, math.inf), NonFiniteInput),
            ((0.01, 0.2), (0.99, 0.0), NonPositiveCoordinate),
            ((0.01, 0.2), (0.99, -0.5), NonPositiveCoordinate),
        ],
        ids=["nan_i", "inf_s", "zero_s", "negative_s"],
    )
    def test_energy_refuses_a_column_as_it_refuses_its_state(self, params, i, s, raised):
        # the second state alone, then the pair of columns that holds it
        with pytest.raises(raised):
            hamiltonian_direct((i[1], s[1]), params)
        with pytest.raises(raised):
            hamiltonian_direct((np.array(i), np.array(s)), params)

    def test_gradient_values(self, params):
        gi, gs = gradient_direct((0.01, 0.99), params)
        assert gi == 0.3
        assert gs == pytest.approx(0.3 - 0.1 / 0.99, rel=1e-15)

    def test_rhs_is_J_of_gradient(self, params):
        z = (0.2, 0.5)
        assert hamilton_rhs_direct(z, params) == apply_J(gradient_direct(z, params))

    @given(i=fraction, s=fraction)
    def test_energy_is_stationary_along_the_flow(self, i, s):
        # dH/dtau = grad . (J grad) is identically zero, exactly so in
        # floating point because the two cross terms are the same product
        g = gradient_direct((i, s), P)
        v = apply_J(g)
        assert g[0] * v[0] + g[1] * v[1] == 0.0


class TestLogChart:
    def test_energy_matches_direct_chart(self, params):
        z_log = (math.log(0.01), math.log(0.99))
        assert hamiltonian_log(z_log, params) == pytest.approx(
            hamiltonian_direct((0.01, 0.99), params), abs=1e-15
        )

    @given(i=fraction, s=fraction)
    def test_energy_chart_agreement(self, i, s):
        direct = hamiltonian_direct((i, s), P)
        logged = hamiltonian_log((math.log(i), math.log(s)), P)
        assert logged == pytest.approx(direct, rel=1e-12, abs=1e-14)

    def test_gradient_values(self, params):
        gi, gs = gradient_log((math.log(0.01), math.log(0.99)), params)
        assert gi == pytest.approx(0.3 * 0.01, rel=1e-15)
        assert gs == pytest.approx(0.3 * 0.99 - 0.1, rel=1e-14)

    def test_rhs_is_J_of_gradient(self, params):
        z = (-4.0, -0.5)
        assert hamilton_rhs_log(z, params) == apply_J(gradient_log(z, params))

    @given(i=fraction, s=fraction)
    def test_energy_is_stationary_along_the_flow(self, i, s):
        g = gradient_log((math.log(i), math.log(s)), P)
        v = apply_J(g)
        assert g[0] * v[0] + g[1] * v[1] == 0.0


class TestExtendedSpace:
    def test_consistent_momenta_satisfy_the_constraint_exactly(self):
        coords = (0.01, 0.99)
        point = ExtendedPhasePoint(coords, consistent_momenta(coords), Chart.DIRECT)
        assert dirac_constraint(point) == (0.0, 0.0)

    @given(a=fraction, b=fraction)
    def test_constraint_vanishes_for_any_consistent_point(self, a, b):
        point = ExtendedPhasePoint((a, b), consistent_momenta((a, b)), Chart.DIRECT)
        # multiplication and division by two are exact, so this is not an
        # approximate statement
        assert dirac_constraint(point) == (0.0, 0.0)

    def test_constraint_measures_displacement(self):
        point = ExtendedPhasePoint(
            (0.01, 0.99), (0.495, -0.005 + 1e-3), Chart.DIRECT
        )
        c = dirac_constraint(point)
        assert c[0] == pytest.approx(2e-3, rel=1e-12)
        assert c[1] == pytest.approx(0.0, abs=1e-15)

    def test_multiplier_is_minus_half_gradient(self, params):
        coords = (0.01, 0.99)
        lam = dirac_multiplier(coords, params, Chart.DIRECT)
        g = gradient_direct(coords, params)
        assert lam == (-0.5 * g[0], -0.5 * g[1])

    def test_extended_energy_reduces_on_the_manifold(self, params):
        coords = (0.01, 0.99)
        point = ExtendedPhasePoint(coords, consistent_momenta(coords), Chart.DIRECT)
        lam = dirac_multiplier(coords, params, Chart.DIRECT)
        assert extended_hamiltonian(point, lam, params) == hamiltonian_direct(
            coords, params
        )

    def test_extended_energy_on_the_log_chart(self, params):
        coords = (math.log(0.01), math.log(0.99))
        good = consistent_momenta(coords)
        point = ExtendedPhasePoint(coords, good, Chart.LOGARITHMIC)
        lam = dirac_multiplier(coords, params, Chart.LOGARITHMIC)
        on = extended_hamiltonian(point, lam, params)
        assert on == hamiltonian_log(coords, params)
        assert on == pytest.approx(H0, abs=1e-15)
        # off the manifold the multiplier weighs the constraint residual
        off = ExtendedPhasePoint(coords, (good[0] + 0.1, good[1]), Chart.LOGARITHMIC)
        c = dirac_constraint(off)
        assert extended_hamiltonian(off, (1.0, 2.0), params) == on + c[0] + 2.0 * c[1]

    def test_extended_energy_sees_the_violation(self, params):
        coords = (0.01, 0.99)
        good = consistent_momenta(coords)
        point = ExtendedPhasePoint(coords, (good[0] + 0.1, good[1]), Chart.DIRECT)
        lam = (1.0, 1.0)
        off = extended_hamiltonian(point, lam, params)
        assert off != pytest.approx(hamiltonian_direct(coords, params), abs=1e-3)

    def test_rates_structure(self, params):
        """dQ is the canonical flow of Q alone; dP = -(1/2) grad H."""
        coords = (0.01, 0.99)
        point = ExtendedPhasePoint(coords, consistent_momenta(coords), Chart.DIRECT)
        dq, dp = extended_rhs(point, params)
        g = gradient_direct(coords, params)
        assert dq == apply_J(g)
        assert dp == (-0.5 * g[0], -0.5 * g[1])

    def test_rates_structure_log_chart(self, params):
        coords = (math.log(0.01), math.log(0.99))
        point = ExtendedPhasePoint(
            coords, consistent_momenta(coords), Chart.LOGARITHMIC
        )
        dq, dp = extended_rhs(point, params)
        g = gradient_log(coords, params)
        assert dq == apply_J(g)
        assert dp == (-0.5 * g[0], -0.5 * g[1])

    @given(a=fraction, b=fraction)
    def test_momentum_rate_keeps_the_constraint_frozen(self, a, b):
        """dC/dtau = dQ + 2 J dP must vanish identically."""
        point = ExtendedPhasePoint((a, b), consistent_momenta((a, b)), Chart.DIRECT)
        dq, dp = extended_rhs(point, P)
        jdp = apply_J(dp)
        assert dq[0] + 2.0 * jdp[0] == 0.0
        assert dq[1] + 2.0 * jdp[1] == 0.0

    def test_evaluation_off_the_manifold_is_refused(self, params):
        coords = (0.01, 0.99)
        good = consistent_momenta(coords)
        bad = ExtendedPhasePoint(coords, (good[0] + 1e-3, good[1]), Chart.DIRECT)
        with pytest.raises(ConstraintViolation):
            extended_rhs(bad, params, constraint_tol=1e-9)
        # a loose tolerance admits the same point
        extended_rhs(bad, params, constraint_tol=1.0)

    @pytest.mark.parametrize("slot", [2, 3], ids=["p0", "p1"])
    @pytest.mark.parametrize("chart", list(Chart), ids=lambda c: c.value)
    def test_a_nan_momentum_is_refused(self, params, chart, slot):
        """Either residual may be the NaN one; neither is within tolerance."""
        coords = (0.01, 0.99) if chart is Chart.DIRECT else (math.log(0.01), math.log(0.99))
        y = list(coords + consistent_momenta(coords))
        y[slot] = math.nan
        with pytest.raises(ConstraintViolation, match="constraint norm nan exceeds"):
            _extended_rates(tuple(y), params, chart, 1e-9)
