"""Structure-preserving integrators and diagnostics for the SIR model.

The package integrates one epidemic through several mathematically
equivalent formulations (direct and logarithmic charts, ordinary and
intrinsic clocks, minimal and constraint-extended state spaces) with
both conventional and conservative fixed-step methods, and ships the
diagnostics that hold those formulations to their conservation laws.

The package re-exports the ``__all__`` of each module below; ``dynamics``,
``plotting`` and ``cli`` are reached through their modules only.
"""

from . import core, diagnostics, errors, hamiltonian, integrators, lagrangian, scenario
from .core import *
from .diagnostics import *
from .errors import *
from .hamiltonian import *
from .integrators import *
from .lagrangian import *
from .scenario import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *diagnostics.__all__,
    *errors.__all__,
    *hamiltonian.__all__,
    *integrators.__all__,
    *lagrangian.__all__,
    *scenario.__all__,
]
