"""Value types shared across the package.

Everything here is immutable and validated at construction time, so the
numerical layers can assume their inputs are finite and in range.  Two
coordinate charts are used throughout:

* the *direct* chart, whose coordinates are the infectious and susceptible
  fractions ``(I, S)`` themselves, and
* the *logarithmic* chart ``(ln I, ln S)``, in which the epidemic flow is
  canonical in ordinary time.

The constant symplectic matrix ``J = [[0, 1], [-1, 0]]`` appears in every
phase-space formulation; :func:`apply_J` is the shared primitive.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

from .errors import (
    InvalidFractions,
    NonFiniteInput,
    NonPositiveCoordinate,
    ScenarioError,
)

__all__ = [
    "Chart",
    "CompartmentState",
    "EpidemicParams",
    "ExtendedPhasePoint",
    "ParamSchedule",
    "PhasePoint2",
    "apply_J",
    "from_log",
    "recovered_from",
    "to_log",
]

#: tolerance for fraction validation (sum to one, range checks)
FRACTION_TOL = 1e-12


class Chart(Enum):
    """Which coordinate chart a phase-space point lives in."""

    DIRECT = "direct"
    LOGARITHMIC = "logarithmic"


def _require_real(name: str, value: float) -> float:
    """``value`` as a float; bools and non-numbers are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{name} must be a number, got {value!r}")
    return float(value)


def _require_int(name: str, value: int) -> int:
    """``value`` as an int; bools and non-integral numbers are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ScenarioError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_finite(name: str, value: float) -> float:
    value = _require_real(name, value)
    if not math.isfinite(value):
        raise NonFiniteInput(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class EpidemicParams:
    """Transmission rate ``beta`` and recovery rate ``gamma``, both > 0."""

    beta: float
    gamma: float

    def __post_init__(self) -> None:
        beta = _require_finite("beta", self.beta)
        gamma = _require_finite("gamma", self.gamma)
        if beta <= 0.0 or gamma <= 0.0:
            raise ScenarioError(
                f"rates must be positive, got beta={beta}, gamma={gamma}"
            )
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

    @property
    def r0(self) -> float:
        """Basic reproduction number beta / gamma."""
        return self.beta / self.gamma


@dataclass(frozen=True)
class ParamSchedule:
    """Piecewise-constant parameters over ordinary time.

    ``switch_times[k]`` is the time from which ``params[k]`` applies; the
    lookup is right-continuous, so a query exactly at a switch time returns
    the new segment.  The first switch time must be 0.
    """

    switch_times: tuple[float, ...]
    params: tuple[EpidemicParams, ...]

    def __post_init__(self) -> None:
        times = tuple(_require_finite("switch time", t) for t in self.switch_times)
        if len(times) != len(self.params) or not times:
            raise ScenarioError("schedule needs one parameter set per switch time")
        if times[0] != 0.0:
            raise ScenarioError(f"first switch time must be 0, got {times[0]}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScenarioError(f"switch times must be strictly increasing: {times}")
        object.__setattr__(self, "switch_times", times)
        object.__setattr__(self, "params", tuple(self.params))

    @classmethod
    def constant(cls, params: EpidemicParams) -> "ParamSchedule":
        return cls((0.0,), (params,))

    @property
    def is_constant(self) -> bool:
        return len(self.params) == 1

    def at(self, t: float) -> EpidemicParams:
        """Parameters in effect at time ``t`` >= 0 (right-continuous)."""
        if t < 0.0:
            raise ScenarioError(f"schedule queried at negative time {t}")
        k = 0
        for j, start in enumerate(self.switch_times):
            if start <= t:
                k = j
            else:
                break
        return self.params[k]

    def segments(self, t_end: float) -> list[tuple[float, float, EpidemicParams]]:
        """Segment boundaries ``(start, stop, params)`` covering [0, t_end]."""
        out = []
        for k, start in enumerate(self.switch_times):
            if start >= t_end:
                break
            stop = (
                self.switch_times[k + 1]
                if k + 1 < len(self.switch_times)
                else t_end
            )
            out.append((start, min(stop, t_end), self.params[k]))
        if not out:  # zero-length horizon
            out.append((0.0, t_end, self.params[0]))
        return out


@dataclass(frozen=True)
class CompartmentState:
    """Population fractions (s, i, r); must lie in [0, 1] and sum to one."""

    s: float
    i: float
    r: float

    def __post_init__(self) -> None:
        s = _require_finite("s", self.s)
        i = _require_finite("i", self.i)
        r = _require_finite("r", self.r)
        for name, x in (("s", s), ("i", i), ("r", r)):
            if x < -FRACTION_TOL or x > 1.0 + FRACTION_TOL:
                raise InvalidFractions(f"{name}={x} outside [0, 1]")
        if abs(s + i + r - 1.0) > FRACTION_TOL:
            raise InvalidFractions(f"fractions sum to {s + i + r}, expected 1")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "r", r)


def recovered_from(s: float, i: float) -> CompartmentState:
    """Build a full compartment state with r closed as 1 - s - i."""
    s = _require_real("s", s)
    i = _require_real("i", i)
    return CompartmentState(s, i, 1.0 - s - i)


@dataclass(frozen=True)
class PhasePoint2:
    """A point of the two-dimensional phase space, tagged with its chart.

    In the direct chart ``q`` is the infectious fraction and ``p`` the
    susceptible fraction; in the logarithmic chart they are the respective
    logarithms.
    """

    q: float
    p: float
    chart: Chart

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _require_finite("q", self.q))
        object.__setattr__(self, "p", _require_finite("p", self.p))
        if not isinstance(self.chart, Chart):
            raise ScenarioError(f"chart must be a Chart member, got {self.chart!r}")


@dataclass(frozen=True)
class ExtendedPhasePoint:
    """Coordinates plus conjugate momenta of the extended phase space."""

    coords: tuple[float, float]
    momenta: tuple[float, float]
    chart: Chart

    def __post_init__(self) -> None:
        q = tuple(_require_finite("coordinate", x) for x in self.coords)
        p = tuple(_require_finite("momentum", x) for x in self.momenta)
        if len(q) != 2 or len(p) != 2:
            raise ScenarioError("extended point needs 2 coordinates and 2 momenta")
        object.__setattr__(self, "coords", q)
        object.__setattr__(self, "momenta", p)
        if not isinstance(self.chart, Chart):
            raise ScenarioError(f"chart must be a Chart member, got {self.chart!r}")


def apply_J(v: tuple[float, float]) -> tuple[float, float]:
    """Multiply a 2-vector by the symplectic matrix J = [[0, 1], [-1, 0]]."""
    return (v[1], -v[0])


def to_log(point: PhasePoint2) -> PhasePoint2:
    """Map a direct-chart point to the logarithmic chart.

    Raises
    ------
    NonPositiveCoordinate
        If either coordinate is not strictly positive.  Exact zeros are an
        error by design: the logarithmic chart does not contain the
        extinction boundary, and flooring would silently change the model.
    """
    if point.chart is not Chart.DIRECT:
        raise ScenarioError("to_log expects a direct-chart point")
    if point.q <= 0.0 or point.p <= 0.0:
        raise NonPositiveCoordinate(
            f"logarithmic chart needs positive fractions, got ({point.q}, {point.p})"
        )
    return PhasePoint2(math.log(point.q), math.log(point.p), Chart.LOGARITHMIC)


def from_log(point: PhasePoint2) -> PhasePoint2:
    """Map a logarithmic-chart point back to the direct chart."""
    if point.chart is not Chart.LOGARITHMIC:
        raise ScenarioError("from_log expects a logarithmic-chart point")
    return PhasePoint2(math.exp(point.q), math.exp(point.p), Chart.DIRECT)
