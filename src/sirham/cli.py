"""Command-line front end: run, grade, sweep, and plot scenarios.

Exit codes form the contract batch harnesses rely on:

* 0  success (for ``check``: every graded quantity within tolerance)
* 1  a check ran to completion and failed its tolerance
* 2  configuration problem (bad file, bad key, bad grid value or ``--jobs``,
     run labels that share a CSV name, malformed CSV, an output that
     cannot be written)
* 3  numerical failure (domain violation, a trajectory that leaves the
     simplex, Newton divergence, singular clock); a failure inside the
     march names its step and the clock it started from

``run`` writes one CSV per run plus a manifest; ``check`` integrates the
scenario's runs once and grades conservation and cross-formulation
agreement against the scenario's tolerances; ``sweep`` repeats the first
run over a parameter grid; ``plot`` turns a run CSV back into an SVG.

``run`` and ``check`` share one loop over the runs, which marches each
distinct march once: a run that marches what an earlier run marched, such
as an extended run and its chart's canonical run at one step, horizon and
stride, takes that run's trajectory with its own coordinate columns, or
the failure its march raised.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import errno
import functools
import itertools
import json
import logging
import math
import os
import sys
import time
from dataclasses import fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .core import CompartmentState, EpidemicParams, ParamSchedule
from .csvformat import format_table
from .diagnostics import _relative_drift, conservation_report, pairwise_sup_diff
from .errors import ScenarioError, SirhamError
from .integrators import Method, RunSpec, Trajectory, _UNMARCHED, _march_key, _shared_march
from .integrators import integrate
from .plotting import render_curves
from .scenario import Scenario, default_scenario_path, load_scenario

__all__ = ["main"]

log = logging.getLogger("sirham")

CSV_HEADER = "t,tau,S,I,R,H,H_rel_drift"
_SWEEP_KEYS = ("beta", "gamma", "dt", "method")


# ---------------------------------------------------------------------------
# shared plumbing

def trajectory_csv(traj: Trajectory) -> str:
    """Serialize a trajectory to the documented CSV schema.

    Every float is written at 17 significant digits, enough for a lossless
    round trip: each cell is exactly ``"%.17g" % x``.  ``H`` is the run's
    energy column, and ``H_rel_drift`` is its signed relative deviation
    from its starting value, ``(H - H[0]) / |H[0]|``, as
    :mod:`sirham.diagnostics` grades it.

    :func:`sirham.csvformat.format_table` spells the cells in one
    vectorised pass whose bytes do not depend on numpy's SIMD level.  It
    rounds half to even wherever its double-double digits are farther than
    2**-40 from a tie (its error is below 5e-15), and ``"%.17g" % x`` itself
    spells the cells it cannot decide: ±0, cells whose decimal exponent it
    guesses wrong, near-ties, nan, ±inf, subnormals and ``|x| >= 1e16``.
    """
    drift = _relative_drift(traj.h)
    table = np.column_stack((traj.t, traj.tau, traj.s, traj.i, traj.r, traj.h, drift))
    return "".join([CSV_HEADER, "\n", format_table(table)])


def _safe_name(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in label)


def _spec_digest(scenario: Scenario, spec: RunSpec) -> str:
    """Stable 12-hex-digit digest of the scenario's start and schedule and
    of the run's fields.

    Every ``RunSpec`` field is hashed, enums by their value, except the
    cosmetic ``label`` and the others the march does not read
    (``integrators._UNMARCHED``), so runs that differ only in those share a
    digest.  The formulation and both Newton settings are hashed whatever
    the method reads, so an extended run and its chart's canonical run, or
    two explicit runs that differ only in ``newton_tol``, write the same
    CSV under two digests.
    """
    run = {}
    for field in fields(spec):
        if field.name not in _UNMARCHED:
            value = getattr(spec, field.name)
            run[field.name] = value.value if isinstance(value, Enum) else value
    payload = {
        "init": {"s": scenario.init.s, "i": scenario.init.i},
        "schedule": [
            [t, p.beta, p.gamma]
            for t, p in zip(scenario.schedule.switch_times, scenario.schedule.params)
        ],
        "run": run,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return _sha256_constructor()(blob.encode()).hexdigest()[:12]


@functools.cache
def _sha256_constructor():
    """The SHA-256 constructor of ``_spec_digest``, looked up at its first
    call: ``hashlib`` maps OpenSSL's libcrypto, and the interpreter's own
    SHA-256 does not.  A failed import is not cached, so each later call
    would search ``sys.path`` again."""
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256  # a build without the built-in hashes
    return sha256


def _each_run(scenario: Scenario):
    """Each run of ``scenario`` in order, as ``(spec, outcome, marched,
    started)``: the trajectory of the run or the SirhamError its march
    raised, whether the run marched, and the ``perf_counter`` time its turn
    began.

    A run whose ``integrators._march_key`` equals an earlier run's marches
    what that run marched, so it takes that march's outcome, its trajectory
    relabelled by ``integrators._shared_march`` or its SirhamError, and
    says so under ``--verbose``.  Every march that is run is one call of
    this module's ``integrate``, by name.
    """
    marched: dict[tuple, tuple[RunSpec, Trajectory | SirhamError]] = {}
    for spec in scenario.runs:
        started = time.perf_counter()
        key = _march_key(spec)
        if key in marched:
            twin, outcome = marched[key]
            log.info("run %s shares the march of %s", spec.name, twin.name)
            if isinstance(outcome, Trajectory):
                outcome = _shared_march(outcome, spec)
            yield spec, outcome, False, started
            continue
        try:
            outcome = integrate(spec, scenario.init, scenario.schedule)
        except SirhamError as exc:
            outcome = exc
        marched[key] = (spec, outcome)
        yield spec, outcome, True, started


# ---------------------------------------------------------------------------
# run

def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    owners: dict[str, str] = {}
    for spec in scenario.runs:
        csv_name = f"{_safe_name(spec.name)}.csv"
        if csv_name in owners:
            raise ScenarioError(
                f"runs {owners[csv_name]!r} and {spec.name!r} would both write {csv_name}"
            )
        owners[csv_name] = spec.name
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # a name the directory refuses is refused before any march or write
    name_max = os.pathconf(out_dir, "PC_NAME_MAX")
    for csv_name, label in owners.items():
        size = len(os.fsencode(csv_name))
        if size > name_max:
            raise ScenarioError(
                f"run {label!r}: its CSV name is {size} bytes, over the {name_max}"
                f" that {out_dir} allows: {os.strerror(errno.ENAMETOOLONG)}"
            )
    manifest = []
    failed = False
    for spec, traj, _, started in _each_run(scenario):
        status = "ok"
        if isinstance(traj, SirhamError):
            failed = True
            status = type(traj).__name__
            print(f"error: run {spec.name}: {traj}", file=sys.stderr)
        else:
            path = out_dir / f"{_safe_name(spec.name)}.csv"
            path.write_text(trajectory_csv(traj))
            log.info(
                "run %s: %d samples -> %s", spec.name, traj.n_samples, path.name
            )
        wall = time.perf_counter() - started
        digest = _spec_digest(scenario, spec)
        manifest.append(f"{spec.name}\t{digest}\t{status}\t{wall:.3f}")
    (out_dir / "manifest.tsv").write_text("\n".join(manifest) + "\n")
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# check

def cmd_check(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    tol = scenario.tolerances
    trajectories = []
    for spec, traj, marched, started in _each_run(scenario):
        if isinstance(traj, SirhamError):
            raise traj
        trajectories.append(traj)
        if marched:
            log.info("integrated %s in %.2fs", spec.name, time.perf_counter() - started)

    graded: list[tuple[str, float, float]] = []
    for spec, traj in zip(scenario.runs, trajectories):
        report = conservation_report(traj)
        h_drift = float(np.max(report.per_segment_rel_h_drift))  # max() drops a NaN
        graded.append((f"h_drift {spec.name}", h_drift, tol.h_drift))
        graded.append(
            (f"population {spec.name}", report.max_population_residual, tol.population)
        )
        if report.max_constraint_norm is not None:
            graded.append(
                (f"constraint {spec.name}", report.max_constraint_norm, tol.constraint)
            )
    if len(trajectories) >= 2:
        worst = float(np.max(pairwise_sup_diff(trajectories)))
        graded.append((f"equivalence ({len(trajectories)} runs)", worst, tol.equivalence))

    all_ok = True
    for name, value, bound in graded:
        ok = math.isfinite(value) and value <= bound
        all_ok &= ok
        verdict = "PASS" if ok else "FAIL"
        print(f"{name:<44} {value:12.5e}  tol {bound:8.1e}  {verdict}")
    print("all checks passed" if all_ok else "CHECK FAILED")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# sweep

def _parse_grid(grid: str) -> list[tuple[str, list]]:
    """Parse ``"beta=0.3,0.4;dt=0.01"`` into ordered (key, values) pairs."""
    axes: list[tuple[str, list]] = []
    for chunk in grid.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ScenarioError(f"grid axis {chunk!r} is not of the form key=v1,v2")
        key, _, rest = chunk.partition("=")
        key = key.strip()
        if key not in _SWEEP_KEYS:
            raise ScenarioError(
                f"cannot sweep {key!r}; supported: {', '.join(_SWEEP_KEYS)}"
            )
        if any(k == key for k, _ in axes):
            raise ScenarioError(f"grid axis {key!r} given twice")
        values: list = []
        for item in rest.split(","):
            item = item.strip()
            if not item:
                continue
            if key == "method":
                try:
                    values.append(Method(item))
                except ValueError as exc:
                    raise ScenarioError(f"unknown method {item!r}") from exc
            else:
                try:
                    values.append(float(item))
                except ValueError as exc:
                    raise ScenarioError(f"bad numeric value {item!r} for {key}") from exc
        if not values:
            raise ScenarioError(f"grid axis {key!r} has no values")
        axes.append((key, values))
    if not axes:
        raise ScenarioError("empty sweep grid")
    return axes


def _grid_points(
    scenario: Scenario, axes: list[tuple[str, list]]
) -> tuple[list[RunSpec], list[EpidemicParams]]:
    """Every grid point's run and rates, built from the first run.

    The constructors refuse a bad value here, before anything is written.
    """
    spec, params = scenario.runs[0], scenario.schedule.params[0]
    keys = [k for k, _ in axes]
    specs, rates = [], []
    for index, combo in enumerate(itertools.product(*(v for _, v in axes))):
        point = dict(zip(keys, combo))
        point_rates = {k: point.pop(k) for k in ("beta", "gamma") if k in point}
        try:
            rates.append(replace(params, **point_rates))
            specs.append(replace(spec, label=f"point{index:04d}", **point))
        except (ScenarioError, ValueError) as exc:
            raise ScenarioError(f"grid point {index}: {exc}") from exc
    return specs, rates


def _sweep_point(
    init: CompartmentState,
    index: int,
    spec: RunSpec,
    params: EpidemicParams,
    out_dir: Path,
) -> dict:
    """Run one grid point, serially or in a pool worker.

    Returns the complete summary row; its keys, in order, are the
    ``summary.csv`` header.
    """
    row = {
        "point": index,
        "label": spec.label,
        "beta": params.beta,
        "gamma": params.gamma,
        "dt": spec.dt,
        "method": spec.method.value,
        "formulation": spec.formulation.value,
        "status": "ok",
        "final_S": "",
        "final_I": "",
        "peak_I": "",
        "max_rel_h_drift": "",
    }
    try:
        traj = integrate(spec, init, ParamSchedule.constant(params))
    except SirhamError as exc:
        row["status"] = type(exc).__name__
        return row
    (out_dir / f"{row['label']}.csv").write_text(trajectory_csv(traj))
    report = conservation_report(traj)
    row["final_S"] = f"{traj.s[-1]:.17g}"
    row["final_I"] = f"{traj.i[-1]:.17g}"
    row["peak_I"] = f"{np.max(traj.i):.17g}"
    row["max_rel_h_drift"] = f"{report.max_rel_h_drift:.17g}"
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ScenarioError(f"--jobs must be at least 1, got {args.jobs}")
    scenario = load_scenario(args.scenario)
    axes = _parse_grid(args.grid)
    if not scenario.schedule.is_constant:
        raise ScenarioError("parameter sweeps need a constant schedule")
    if len(scenario.runs) > 1:
        log.info("sweep uses the first run (%s) as template", scenario.runs[0].name)
    specs, rates = _grid_points(scenario, axes)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    log.info("sweeping %d point(s) over %s", len(specs), ", ".join(k for k, _ in axes))
    point_args = (
        itertools.repeat(scenario.init), itertools.count(), specs, rates, itertools.repeat(out_dir)
    )
    if args.jobs > 1:
        workers = min(args.jobs, len(specs))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, *point_args))
    else:
        rows = list(map(_sweep_point, *point_args))

    lines = [",".join(rows[0])]
    lines.extend(",".join(str(value) for value in row.values()) for row in rows)
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")

    failed = [row for row in rows if row["status"] != "ok"]
    for row in failed:
        print(f"point {row['point']}: {row['status']}", file=sys.stderr)
    log.info("%d/%d point(s) succeeded", len(rows) - len(failed), len(rows))
    return 0 if len(failed) < len(rows) else 3


# ---------------------------------------------------------------------------
# plot

def cmd_plot(args: argparse.Namespace) -> int:
    path = Path(args.csv)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read CSV {path}: {exc}") from exc
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows or rows[0].strip() != CSV_HEADER:
        raise ScenarioError(
            f"{path} is not a run CSV (expected header '{CSV_HEADER}')"
        )
    if len(rows) == 1:
        raise ScenarioError(f"{path} has a header but no data rows")
    try:
        data = np.array(
            [[float(cell) for cell in row.split(",")] for row in rows[1:]]
        )
    except ValueError as exc:
        raise ScenarioError(f"malformed CSV row in {path}: {exc}") from exc
    if data.shape[1] != 7:
        raise ScenarioError(
            f"malformed CSV in {path}: expected 7 columns, got {data.shape[1]}"
        )
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        row = rows[1 + int(np.argmin(finite))]
        raise ScenarioError(f"malformed CSV row in {path}: a cell is not finite: {row}")
    svg = render_curves(
        t=data[:, 0],
        s=data[:, 2],
        i=data[:, 3],
        r=data[:, 4],
        drift=None if args.no_energy else data[:, 6],
    )
    Path(args.out).write_text(svg)
    log.info("wrote %s", args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was, and each command is bound here by its function."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--verbose", action="store_true", help="per-run progress lines on stderr"
    )

    parser = argparse.ArgumentParser(
        prog="sirham",
        description="structure-preserving integrators for the SIR model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", parents=[common], help="integrate every run, write CSVs")
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "check", parents=[common], help="grade a scenario against its tolerances"
    )
    p.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario YAML file (default: the shipped scenario)",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "sweep", parents=[common], help="repeat the first run over a parameter grid"
    )
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument(
        "--grid", required=True, help="e.g. 'beta=0.2,0.3;dt=0.01,0.005'"
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", parents=[common], help="render a run CSV to SVG")
    p.add_argument("csv", help="CSV produced by 'run' or 'sweep'")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument(
        "--no-energy", action="store_true", help="omit the energy-drift panel"
    )
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # set up anew on each call, against the stderr of this call
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(message)s",
        force=True,
    )
    if args.func is cmd_check and args.scenario is None:
        args.scenario = default_scenario_path()
    try:
        return args.func(args)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SirhamError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
