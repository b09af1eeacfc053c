"""Scenario files: the YAML surface of the command-line tools.

A scenario bundles everything one study needs: the initial compartment
fractions, a (possibly scheduled) parameter set, one or more integration
runs, and the tolerances the ``check`` command grades against.  Parsing
is deliberately strict: unknown keys anywhere in the document are an
error, because a typo like ``t_end:`` vs ``tend:`` silently changing the
horizon is the exact failure mode a validation layer exists to prevent.
The parser checks only keys: every value is checked by the constructor it
is handed to, so building the same objects from Python refuses the same
inputs.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import yaml

from .core import (
    CompartmentState,
    EpidemicParams,
    ParamSchedule,
    _require_real,
    recovered_from,
)
from .errors import ScenarioError
from .integrators import RunSpec, _check_schedule

__all__ = [
    "Scenario",
    "Tolerances",
    "default_scenario_path",
    "load_scenario",
    "parse_scenario",
]


@dataclass(frozen=True)
class Tolerances:
    """Acceptance bounds used by the ``check`` command; each must be > 0."""

    equivalence: float = 1e-4
    h_drift: float = 1e-5
    population: float = 1e-9
    constraint: float = 1e-8

    def __post_init__(self) -> None:
        for f in fields(self):
            value = _require_real(f.name, getattr(self, f.name))
            if not value > 0.0:
                raise ScenarioError(f"{f.name} must be positive, got {value}")
            object.__setattr__(self, f.name, value)


@dataclass(frozen=True)
class Scenario:
    init: CompartmentState
    schedule: ParamSchedule
    runs: tuple[RunSpec, ...]
    tolerances: Tolerances = field(default_factory=Tolerances)


def _require_mapping(node: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(node, Mapping):
        raise ScenarioError(f"{where} must be a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: Mapping[str, Any], allowed: Iterable[str], where: str) -> None:
    unknown = set(node) - set(allowed)
    if unknown:
        raise ScenarioError(
            f"unknown key(s) in {where}: {', '.join(sorted(map(str, unknown)))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _construct(where: str, factory: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Call a constructor; its refusal is re-raised with ``where`` in front."""
    try:
        return factory(*args, **kwargs)
    except (ScenarioError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _build(
    where: str, factory: Callable[..., Any], node: Any, keys: Sequence[str] = ()
) -> Any:
    """Call ``factory`` with the mapping ``node`` as keyword arguments.

    ``keys`` are all required.  Without them, the keys are the fields of
    the dataclass ``factory``, required where they have no default.  Only
    keys are checked here; every value rule belongs to the constructor.
    """
    node = _require_mapping(node, where)
    required = keys
    if not keys:
        keys = [f.name for f in fields(factory)]
        required = [f.name for f in fields(factory) if f.default is MISSING]
    _check_keys(node, keys, where)
    for key in required:
        if key not in node:
            raise ScenarioError(f"{where} is missing required key '{key}'")
    return _construct(where, factory, **node)


def _switch(t: float, beta: float, gamma: float) -> tuple[float, EpidemicParams]:
    return t, EpidemicParams(beta, gamma)


def parse_scenario(document: Any) -> Scenario:
    """Validate a parsed YAML document and build the scenario objects."""
    doc = _require_mapping(document, "scenario")
    _check_keys(doc, {"init", "schedule", "run", "tolerances"}, "scenario")
    for key in ("init", "schedule", "run"):
        if key not in doc:
            raise ScenarioError(f"scenario is missing required section '{key}'")

    init = _build("init", recovered_from, doc["init"], ("s", "i"))

    sched_node = doc["schedule"]
    if not isinstance(sched_node, list) or not sched_node:
        raise ScenarioError("schedule must be a non-empty list")
    times, params = zip(
        *(
            _build(f"schedule[{k}]", _switch, entry, ("t", "beta", "gamma"))
            for k, entry in enumerate(sched_node)
        )
    )
    schedule = _construct("schedule", ParamSchedule, times, params)

    run_node = doc["run"]
    if not isinstance(run_node, list) or not run_node:
        raise ScenarioError("run must be a non-empty list")
    runs = tuple(_build(f"run[{k}]", RunSpec, entry) for k, entry in enumerate(run_node))
    labels = [spec.name for spec in runs]
    if len(set(labels)) != len(labels):
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        raise ScenarioError(f"duplicate run label(s): {', '.join(dupes)}")
    for k, spec in enumerate(runs):
        _construct(f"run[{k}] ({spec.name})", _check_schedule, spec, schedule)

    tolerances = _build("tolerances", Tolerances, doc.get("tolerances", {}))
    return Scenario(init=init, schedule=schedule, runs=runs, tolerances=tolerances)


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario YAML file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        document = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"invalid YAML in {path}: {exc}") from exc
    return parse_scenario(document)


def default_scenario_path() -> Path:
    """Filesystem path of the scenario shipped with the package."""
    return Path(str(resources.files("sirham").joinpath("data", "default.yaml")))
