"""The package surface: which names ``import sirham`` offers."""

import sirham

PUBLIC_NAMES = set(
    """
    Chart CompartmentState ConservationReport ConstraintViolation
    EpidemicParams ExtendedPhasePoint Formulation InvalidFractions Method
    MissingDiagnostic NewtonDivergence NoEpidemic NonFiniteInput
    NonPositiveCoordinate OutsideLegendreDomain ParamSchedule PhasePoint2
    RhsDomainError RunSpec Scenario ScenarioError SingularDenominator
    SirhamError StepAcrossSingularity Tolerances Trajectory apply_J
    conservation_report consistent_momenta constraint_drift
    default_scenario_path dirac_constraint dirac_multiplier el_residual_direct
    el_residual_log extended_hamiltonian extended_lagrangian_gradients
    extended_rhs fd_gradient_check final_size_oracle from_log gradient_direct
    gradient_log hamilton_rhs_direct hamilton_rhs_log hamiltonian_direct
    hamiltonian_drift hamiltonian_log hessian_direct hessian_log integrate
    lagrangian_extended lagrangian_minimal_direct lagrangian_minimal_log
    legendre_check_minimal load_scenario momentum_from_rate_direct
    momentum_from_rate_log pairwise_sup_diff parse_scenario
    peak_infection_oracle population_conservation rate_from_momentum_direct
    rate_from_momentum_log reconstruct_ordinary_time recovered_from to_log
    """.split()
)


def test_all_lists_each_public_name_once():
    assert len(PUBLIC_NAMES) == 67
    assert sorted(sirham.__all__) == sorted(PUBLIC_NAMES)


def test_a_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from sirham import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC_NAMES
    for name, value in namespace.items():
        assert value is getattr(sirham, name)


def test_the_step_schemes_stay_in_their_module():
    steps = [name for name in vars(sirham.integrators) if name.startswith("step_")]
    assert len(steps) == 6
    assert not [name for name in steps if hasattr(sirham, name)]
