import pytest

from sirham import CompartmentState, EpidemicParams, ParamSchedule
from sirham.hamiltonian import consistent_momenta
from sirham.integrators import _RECORDS


@pytest.fixture
def params() -> EpidemicParams:
    """The reference parameter set used throughout the suite (r0 = 3)."""
    return EpidemicParams(beta=0.3, gamma=0.1)


@pytest.fixture
def schedule(params) -> ParamSchedule:
    return ParamSchedule.constant(params)


@pytest.fixture
def init() -> CompartmentState:
    return CompartmentState(s=0.99, i=0.01, r=0.0)


@pytest.fixture
def start_state():
    """``start(formulation, i0, s0, params)``: the state a run of
    ``formulation`` starts from.  An extended formulation's record is its
    chart's, which starts the coordinates; the 4-d state appends the
    momenta the constraint pins to them."""

    def start(formulation, i0, s0, params):
        q = _RECORDS[formulation].start(i0, s0, params)
        return q + consistent_momenta(q) if formulation.dim == 4 else q

    return start
