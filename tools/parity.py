"""Byte-for-byte parity of the command line between this tree and another.

Usage::

    python tools/parity.py REF [--cases N]

``REF`` is a git revision of this repository, unpacked with ``git
archive`` into a temporary directory, or a directory that contains
``src/``.  Each tree runs the same cases in its own Python process, with
its own ``src/`` first on ``sys.path``:

* the grid method x formulation x extended mode x stride {1, 7} x
  {constant, three-segment} schedule x dt {0.1, 4, 40 on t; 0.002, 0.25
  on tau} x t_end {100 on t; 3 and 3.2 on tau}, 1152 cases.  The tau
  horizon 3.2 lies past the singularity of the time map (tau_max = 3.10),
  so those runs reach the dilation floor.  Each case writes a one-run
  scenario, runs ``sirham run`` on it and, separately, ``integrate`` on
  its parsed run;
* the twin cases: two-run scenarios of a canonical formulation and the
  extended formulation that marches its record (``rescaled_tau`` with
  ``extended_4d_direct``, ``log_t`` with ``extended_4d_log``), for every
  method that steps both, at the grid's step sizes, horizons and
  schedules, both runs at stride 1 with the canonical run first or both at
  stride 7 with the extended run first, plus one case per pair at unequal
  strides, 102 cases.  Each runs ``sirham run`` and ``sirham check``;
* the zero-step cases: two schedules with a switch within 1e-9 dt of the
  next, so that one segment takes no step (a switch at 1e-12 at dt 8, and
  switches at 30 and 30 + 1e-12 at dt 0.1), x method {explicit_euler,
  rk4, implicit_midpoint} x formulation {basic_t, log_t, single_ode_log} x
  stride {1, 7}, 36 cases, each run as a grid case is;
* ``plot`` of one run CSV, with and without ``--no-energy``;
* ``sweep`` of a constant-schedule scenario;
* ``check`` on the shipped scenario.

Compared per case, in this order: the exit code, stdout and stderr of the
command; every file it wrote (the manifest without its wall-time column);
and the arrays ``integrate`` returns, or what it raised.  The tool prints
one line per differing case, naming every field that differs in it, then
the numbers of identical and differing cases, and exits 1 on any
difference.

``--cases N`` runs only N grid cases, spread evenly over the grid, and
none of the other cases or commands.  The tool needs git and numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import subprocess
import sys
import tarfile
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INIT = "init: {s: 0.99, i: 0.01}\n"
SCHEDULES = {
    "constant": "schedule:\n  - {t: 0.0, beta: 0.3, gamma: 0.1}\n",
    # the second switch falls off the dt grid, so segments end on a short step
    "three-segment": (
        "schedule:\n"
        "  - {t: 0.0, beta: 0.3, gamma: 0.1}\n"
        "  - {t: 30.0, beta: 0.15, gamma: 0.1}\n"
        "  - {t: 61.5, beta: 0.3, gamma: 0.25}\n"
    ),
}
METHODS = (
    "explicit_euler",
    "rk4",
    "symplectic_euler",
    "implicit_midpoint",
    "variational_midpoint",
    "time_fe_cg1_gauss2",
)
#: formulation -> (horizons, step sizes), in the formulation's own clock; a
#: tau run from the start above ends at tau = 3.10, between its two horizons
FORMULATIONS = {
    "basic_t": ((100.0,), (0.1, 4.0, 40.0)),
    "log_t": ((100.0,), (0.1, 4.0, 40.0)),
    "single_ode_log": ((100.0,), (0.1, 4.0, 40.0)),
    "extended_4d_log": ((100.0,), (0.1, 4.0, 40.0)),
    "rescaled_tau": ((3.0, 3.2), (0.002, 0.25)),
    "single_ode_direct": ((3.0, 3.2), (0.002, 0.25)),
    "extended_4d_direct": ((3.0, 3.2), (0.002, 0.25)),
}


#: schedules with a segment of no steps: (init, schedule, dt, t_end)
ZERO_STEP = {
    "at-start": (
        "init: {s: 0.6, i: 0.3}\n",
        "schedule:\n"
        "  - {t: 0.0, beta: 1.0, gamma: 0.1}\n"
        "  - {t: 1.0e-12, beta: 1.0, gamma: 0.1}\n",
        8.0,
        40.0,
    ),
    "mid-run": (
        INIT,
        "schedule:\n"
        "  - {t: 0.0, beta: 0.3, gamma: 0.1}\n"
        "  - {t: 30.0, beta: 0.15, gamma: 0.1}\n"
        "  - {t: 30.000000000001, beta: 0.3, gamma: 0.25}\n",
        0.1,
        60.0,
    ),
}

#: each canonical formulation with the extended one that marches its record
TWINS = {"rescaled_tau": "extended_4d_direct", "log_t": "extended_4d_log"}


def twins() -> list[tuple[str, str]]:
    """Every twin case as ``(name, scenario text)``."""
    cases = []

    def case(method, pair, sched, t_end, dt, strides):
        runs = "".join(
            f"  - {{method: {method}, formulation: {form}, dt: {dt}, t_end: {t_end}, "
            f"sample_stride: {stride}}}\n"
            for form, stride in zip(pair, strides)
        )
        name = f"twins {method} {' '.join(pair)} strides={strides} {sched} t_end={t_end} dt={dt}"
        cases.append((name, INIT + SCHEDULES[sched] + "run:\n" + runs))

    for method in METHODS:
        if method == "variational_midpoint":
            continue  # it refuses the extended formulations
        for canonical, extended in TWINS.items():
            t_ends, dts = FORMULATIONS[canonical]
            scheds = SCHEDULES if canonical == "log_t" else ("constant",)
            for sched, t_end, dt in itertools.product(scheds, t_ends, dts):
                case(method, (canonical, extended), sched, t_end, dt, (1, 1))
                case(method, (extended, canonical), sched, t_end, dt, (7, 7))
    for canonical, extended in TWINS.items():
        t_ends, dts = FORMULATIONS[canonical]
        case("rk4", (canonical, extended), "constant", t_ends[0], dts[0], (1, 7))
    return cases


def grid() -> list[tuple[str, str]]:
    """Every grid case as ``(name, scenario text)``."""
    cases = []
    for method, (form, (t_ends, dts)), mode, stride, sched in itertools.product(
        METHODS, FORMULATIONS.items(), ("direct4d", "reconstruct"), (1, 7), SCHEDULES
    ):
        for t_end, dt in itertools.product(t_ends, dts):
            run = (
                f"run:\n  - {{method: {method}, formulation: {form}, dt: {dt}, "
                f"t_end: {t_end}, sample_stride: {stride}, extended_mode: {mode}, "
                "label: case}\n"
            )
            name = f"run {method} {form} {mode} stride={stride} {sched} t_end={t_end} dt={dt}"
            cases.append((name, INIT + SCHEDULES[sched] + run))
    return cases


def zero_step() -> list[tuple[str, str]]:
    """Every zero-step case as ``(name, scenario text)``."""
    cases = []
    for (sched, (init, schedule, dt, t_end)), method, form, stride in itertools.product(
        ZERO_STEP.items(),
        ("explicit_euler", "rk4", "implicit_midpoint"),
        ("basic_t", "log_t", "single_ode_log"),
        (1, 7),
    ):
        run = (
            f"run:\n  - {{method: {method}, formulation: {form}, dt: {dt}, "
            f"t_end: {t_end}, sample_stride: {stride}, label: case}}\n"
        )
        name = f"zero-step {method} {form} stride={stride} {sched}"
        cases.append((name, init + schedule + run))
    return cases


# ---------------------------------------------------------------------------
# one tree, in its own process


def _call(main, argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a result to compare too
                code = f"raised {type(exc).__name__}: {exc}"
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _files(directory: Path) -> dict:
    """Every file under ``directory``; a manifest loses its wall times."""
    found = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            text = path.read_text()
            if path.name == "manifest.tsv":
                text = "\n".join(line.rpartition("\t")[0] for line in text.splitlines())
            found[f"file {path.relative_to(directory)}"] = text
    return found


def _arrays(integrate, load_scenario, path: Path) -> dict:
    """A digest of each array ``integrate`` returns, or what it raised."""
    try:
        scenario = load_scenario(path)
        traj = integrate(scenario.runs[0], scenario.init, scenario.schedule)
    except Exception as exc:
        return {"integrate": f"raised {type(exc).__name__}: {exc}"}
    found = {}
    for name in ("t", "tau", "s", "i", "r", "h", "coords"):
        a = getattr(traj, name)
        digest = hashlib.sha256(a.tobytes()).hexdigest()
        found[f"array {name}"] = f"{a.dtype} {a.shape} {digest}"
    return found


def worker(src: Path, limit: int | None, result: Path) -> None:
    sys.path.insert(0, str(src))
    import sirham
    from sirham.cli import main
    from sirham.integrators import integrate
    from sirham.scenario import load_scenario

    if Path(sirham.__file__).resolve().parent != (src / "sirham").resolve():
        raise SystemExit(f"imported sirham from {sirham.__file__}, not from {src}")
    cases = grid()
    if limit is not None:
        cases = [cases[k * len(cases) // limit] for k in range(limit)]
    else:
        cases += zero_step()
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for n, (name, text) in enumerate(cases):
            scenario, out = work / f"{n}.yaml", work / str(n)
            scenario.write_text(text)
            res = _call(main, ["run", str(scenario), "--out", str(out)])
            res.update(_files(out))
            res.update(_arrays(integrate, load_scenario, scenario))
            results[name] = res
        if limit is None:
            results.update(_twin_commands(main, work))
            results.update(_other_commands(main, work))
    result.write_text(json.dumps(results))


def _twin_commands(main, work: Path) -> dict:
    """``run`` and ``check`` of every twin case; the fields of ``check``
    are prefixed."""
    results = {}
    for n, (name, text) in enumerate(twins()):
        scenario, out = work / f"twins{n}.yaml", work / f"twins{n}"
        scenario.write_text(text)
        res = _call(main, ["run", str(scenario), "--out", str(out)])
        res.update(_files(out))
        checked = _call(main, ["check", str(scenario)])
        res.update({f"check {key}": value for key, value in checked.items()})
        results[name] = res
    return results


def _other_commands(main, work: Path) -> dict:
    run = (
        "run:\n  - {method: implicit_midpoint, formulation: log_t, dt: 0.5, "
        "t_end: 100.0, label: base}\n"
    )
    scenario = work / "switched.yaml"
    scenario.write_text(INIT + SCHEDULES["three-segment"] + run)
    _call(main, ["run", str(scenario), "--out", str(work / "switched")])
    results = {}
    for flags in ([], ["--no-energy"]):
        svg = work / "plot.svg"
        res = _call(main, ["plot", str(work / "switched" / "base.csv"), "--out", str(svg), *flags])
        res["file plot.svg"] = svg.read_text() if svg.exists() else None
        svg.unlink(missing_ok=True)
        results[" ".join(["plot", *flags])] = res
    scenario = work / "constant.yaml"
    scenario.write_text(INIT + SCHEDULES["constant"] + run)
    out = work / "sweep"
    grid_arg = "beta=0.25,0.3;dt=0.5,0.25;method=rk4,symplectic_euler"
    res = _call(main, ["sweep", str(scenario), "--grid", grid_arg, "--out", str(out)])
    res.update(_files(out))
    results["sweep"] = res
    results["check"] = _call(main, ["check"])
    return results


# ---------------------------------------------------------------------------
# the two trees


def _unpack(ref: str, into: Path) -> Path:
    """The tree of REF: a directory with ``src/``, or a git revision."""
    path = Path(ref)
    if (path / "src").is_dir():
        return path
    blob = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return into


def _differences(a: dict, b: dict) -> list[str]:
    """Every field whose value differs, or is present on one side only."""
    keys = list(a) + [k for k in b if k not in a]
    return [key for key in keys if a.get(key, "<absent>") != b.get(key, "<absent>")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", help="a git revision, or a directory that contains src/")
    parser.add_argument("--cases", type=int, help="run only this many grid cases")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cases is not None and args.cases < 1:
        parser.error("--cases must be at least 1")
    if args.worker:
        worker(Path(args.worker), args.cases, Path(args.result))
        return 0
    if args.ref is None:
        parser.error("give REF, a git revision or a directory that contains src/")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"ref": _unpack(args.ref, tmp / "ref"), "tree": ROOT}
        limit = [] if args.cases is None else ["--cases", str(args.cases)]
        procs = {}
        for side, tree in trees.items():
            (tmp / side).mkdir(exist_ok=True)
            cmd = [sys.executable, str(Path(__file__).resolve()), *limit]
            cmd += ["--worker", str(tree / "src"), "--result", str(tmp / f"{side}.json")]
            # each tree in its own process and working directory
            procs[side] = subprocess.Popen(cmd, cwd=tmp / side)
        for side, proc in procs.items():
            if proc.wait() != 0:
                print(f"the {side} process exited with {proc.returncode}", file=sys.stderr)
                return 2
        ref, new = (json.loads((tmp / f"{side}.json").read_text()) for side in trees)

    names = list(ref) + [k for k in new if k not in ref]
    differing = 0
    for name in names:
        fields = _differences(ref.get(name, {}), new.get(name, {}))
        if fields:
            differing += 1
            print(f"differs: {name}: {', '.join(fields)}")
    print(f"{len(names) - differing} identical, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
