"""sirham benchmark: the real CLI, driven in-process by one closed-loop client.

Usage (from the repository root):

    python3 perfbench/run.py --workload check_rk4 --seed 1 --seconds 30 --trace 0

``--workload`` is ``check_rk4``, ``implicit_run``, ``sweep_grid`` or ``all``.
The program is imported from ``src/`` next to this directory; nothing is
built or installed.  Outputs go to ``perfbench/work/`` (removed at exit);
with ``--trace 1`` the spans are written to ``perfbench/out/``.

One single-threaded process sends ``sirham.cli.main`` one invocation at a
time (see ``workloads.py``) and repeats the seeded cycle of invocations
until ``--seconds`` have passed, always ending on a whole cycle.  Each
invocation is timed between two slices of the frozen yardstick kernel and
reported in normalised seconds (see ``yardstick.py`` for why).  Outputs
are checked against the independent oracle in ``oracle.py`` after each
cycle, outside the timed region.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: a fresh interpreter to ``sirham.cli`` imported and the first
  scenario loaded; median over several spawned interpreters.
* ``op_s``: each invocation of the cycle gets the median of its steady
  repetitions (see :func:`steady`); ``op_s`` is the median over the cycle.
* ``op_tail_s``: the highest whole percentile of steady invocation times
  with at least ten beyond it (the percentile and count are printed).
* ``steps_per_s`` / ``runs_per_s``: integration steps and trajectories
  completed per second, as ratios of sums over whole cycles.  Rates, not
  totals, so that fixing a failing combination does not read as a
  slowdown.
* ``ok_frac``: invocations that succeeded with correct outputs, over those
  attempted (1 - the failure share, which may be 0 and so cannot carry a
  relative bound).
* ``peak_rss_mb``: the benchmark process's peak resident set.

``--trace 1`` reports per-layer metrics from separate passes: an untraced
pass (for ``bench.ref_s`` and ``bench.trace_overhead``), a coarse traced
pass for the per-step table and a fine traced pass for the rest (see
``tracing.py``).  Times are normalised seconds per invocation, counts are
per invocation, both averaged over whole cycles.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import yardstick
from workloads import (
    ALL_FORMULATIONS,
    SWEEP_FORMULATION,
    SWEEP_METHODS,
    WORKLOADS,
    Op,
    implicit_combinations,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
OUT = HERE / "out"

SETUP_REPS = 15
#: brackets whose slices differ by more than this share are not steady
STEADY_SKEW = 0.05
WARMUP_OPS = 3
#: shares of --seconds for the untraced, coarse and fine passes of --trace 1
TRACE_SHARES = (0.4, 0.2, 0.4)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "op_tail_s": "s",
    "steps_per_s": "1/s",
    "runs_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "scenario.load_s": "s/op",
    "hamiltonian.calls": "count/op",
    "hamiltonian.self_s": "s/op",
    "dynamics.calls": "count/op",
    "dynamics.self_s": "s/op",
    "lagrangian.calls": "count/op",
    "lagrangian.self_s": "s/op",
    "integrators.calls": "count/op",
    "integrators.steps": "count/op",
    "integrators.integrate_s": "s/op",
    "integrators.rhs_per_step": "count/step",
    "integrators.step_self_s": "s/op",
    "integrators.march_self_s": "s/op",
    "diagnostics.report_s": "s/op",
    "diagnostics.pairwise_s": "s/op",
    "cli.csv_s": "s/op",
    "cli.csv_rows": "count/op",
    "cli.csv_bytes": "count/op",
    "cli.self_s": "s/op",
    "bench.ref_s": "s",
    "bench.trace_overhead": "ratio",
}
#: per-layer time metric of each CLI-level span
SPAN_METRICS = {
    "scenario.load": "scenario.load_s",
    "integrators.integrate": "integrators.integrate_s",
    "diagnostics.report": "diagnostics.report_s",
    "diagnostics.pairwise": "diagnostics.pairwise_s",
    "cli.csv": "cli.csv_s",
}


def combination(method: str, formulation: str, mode: str = "direct4d") -> str:
    """Name of one (method, formulation, extended_mode) in the per-step table."""
    suffix = ".reconstruct" if mode == "reconstruct" else ""
    return f"integrators.us.{method}.{formulation}{suffix}"


STEP_TABLE = sorted(
    {combination("rk4", form) for form in ALL_FORMULATIONS}
    | {combination(*combo) for combo in implicit_combinations()}
    | {combination(method, SWEEP_FORMULATION) for method in SWEEP_METHODS}
)


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def import_cli():
    """Import ``sirham.cli`` from this checkout's ``src/``, and nowhere else."""
    if not (SRC / "sirham" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import sirham.cli

    if Path(sirham.cli.__file__).resolve().parent != (SRC / "sirham").resolve():
        raise BenchError(f"imported sirham from {sirham.cli.__file__}, not {SRC}")
    return sirham.cli


# ---------------------------------------------------------------------------
# timed invocations


def bracket(before: float, after: float) -> tuple[float, float]:
    """Normalising ratio and skew of one op from the slices around it."""
    mean = 0.5 * (before + after)
    return yardstick.NOMINAL_S / mean, abs(after - before) / mean


def steady(values: list[tuple[float, float]]) -> list[float]:
    """Values, from ``(value, skew)`` pairs, whose bracket held steady.

    When the machine switches speed during a bracket, the two slices
    disagree and the op's normalised time is off by up to the ratio of
    the two speeds.  Brackets within ``STEADY_SKEW`` give times about three
    times tighter, so estimates use those when there are any.
    """
    kept = [v for v, skew in values if skew <= STEADY_SKEW]
    return kept or [v for v, _ in values]


@dataclass
class Outcome:
    op: Op
    raw_s: float
    ratio: float  # nominal yardstick time over the mean of the two slices
    skew: float  # how far the two slices disagree, relative to their mean
    rc: int | None
    stdout: str
    stderr: str
    problems: list[str] = field(default_factory=list)

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.ratio

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems


def _invoke(cli, argv: list[str], tracer, name: str) -> tuple[int | None, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer:
            tracer.begin_op(name)
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed op, reported with its traceback
            traceback.print_exc()
        finally:
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.end_op("ok" if rc == 0 else f"exit {rc}")
    return rc, out.getvalue(), err.getvalue(), elapsed


def run_pass(cli, ops: list[Op], dirs: list[Path], seconds: float, tracer=None) -> tuple[list[Outcome], list[float]]:
    """Repeat the cycle for ``seconds`` (at least once); returns outcomes and slices."""
    outcomes: list[Outcome] = []
    slices: list[float] = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        before = yardstick.slice_s()
        slices.append(before)
        cycle = []
        for op, d in zip(ops, dirs):
            argv = [a.replace("{dir}", str(d)) for a in op.argv]
            rc, stdout, stderr, raw = _invoke(cli, argv, tracer, op.name)
            after = yardstick.slice_s()
            slices.append(after)
            ratio, skew = bracket(before, after)
            cycle.append(Outcome(op, raw, ratio, skew, rc, stdout, stderr))
            before = after
        for outcome, d in zip(cycle, dirs):
            if outcome.rc == 0:
                outcome.problems = oracle.check_op(outcome.op, d / "out", outcome.stdout)
            shutil.rmtree(d / "out", ignore_errors=True)
        outcomes += cycle
    return outcomes, slices


def prepare(ops: list[Op], root: Path) -> list[Path]:
    """Write each op's scenario into a directory of its own."""
    shutil.rmtree(root, ignore_errors=True)
    dirs = []
    for k, op in enumerate(ops):
        d = root / f"op{k:02d}"
        d.mkdir(parents=True)
        (d / "scenario.yaml").write_text(op.scenario)
        dirs.append(d)
    return dirs


def measure_setup(scenario: Path) -> list[float]:
    """Normalised seconds from spawning an interpreter to the scenario loaded.

    A spawn spans about 0.3 s and few of its brackets hold steady, so the
    steady filter would leave one or two values: all of them are kept.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(scenario)]

    def spawn() -> float:
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        return elapsed

    spawn()  # the first spawn may compile bytecode; users pay that once
    times = []
    for _ in range(SETUP_REPS):
        before = yardstick.slice_s()
        raw = spawn()
        ratio, _ = bracket(before, yardstick.slice_s())
        times.append(raw * ratio)
    return times


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile with at least ten values beyond it."""
    n = len(values)
    pct = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return sorted(values)[rank - 1], pct


def end_to_end(outcomes: list[Outcome], setup: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics from the timed pass.

    Each op of the cycle gets one time, the median normalised time of its
    steady repetitions; ``op_s`` is the median of those, and the rates are
    ratios of sums over one cycle of them, with each op's steps and
    trajectories weighted by the share of its repetitions that succeeded.
    """
    by_op: dict[str, list[Outcome]] = {}
    for o in outcomes:
        by_op.setdefault(o.op.name, []).append(o)
    op_times = []
    steps = runs = 0.0
    for reps in by_op.values():
        ok = sum(o.ok for o in reps) / len(reps)
        op_times.append(statistics.median(steady([(o.norm_s, o.skew) for o in reps])))
        steps += ok * reps[0].op.steps
        runs += ok * reps[0].op.trajectories
    cycle_s = sum(op_times)
    times = steady([(o.norm_s, o.skew) for o in outcomes])
    tail_s, pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s": statistics.median(op_times),
        "op_tail_s": tail_s,
        "steps_per_s": steps / cycle_s,
        "runs_per_s": runs / cycle_s,
        "ok_frac": sum(o.ok for o in outcomes) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters",
        f"op_s, rates: {len(by_op)} ops per cycle, {len(outcomes) // len(by_op)} cycles",
        f"op_tail_s: p{pct} of {len(times)} steady of {len(outcomes)} ops",
    ]
    return metrics, notes


def per_layer(base: list[Outcome], slices: list[float], coarse, coarse_out: list[Outcome], fine, fine_out: list[Outcome]) -> tuple[dict, list[str]]:
    """Per-layer metrics: normalised seconds and counts per op of the fine pass."""
    n = len(fine_out)
    sums: dict[str, float] = {name: 0.0 for name in LAYER_UNITS}
    op_s = 0.0
    for span in fine.spans:
        ratio = fine_out[span["op"]].ratio
        name = span["name"]
        if name == "op":
            op_s += ratio * (span["end"] - span["start"])
            sums["cli.self_s"] += ratio * span["self_s"]
            continue
        sums[SPAN_METRICS[name]] += ratio * (span["end"] - span["start"])
        if name == "integrators.integrate":
            sums["integrators.calls"] += 1
            sums["integrators.march_self_s"] += ratio * span["self_s"]
        elif name == "cli.csv":
            sums["cli.csv_rows"] += span.get("rows", 0)
            sums["cli.csv_bytes"] += span.get("bytes", 0)
    rhs_calls = 0
    for op_index, layers in enumerate(fine.layers):
        ratio = fine_out[op_index].ratio
        for layer, (calls, _, self_s) in layers.items():
            if layer == "integrators.step":
                sums["integrators.steps"] += calls
                sums["integrators.step_self_s"] += ratio * self_s
            else:
                sums[f"{layer}.calls"] += calls
                sums[f"{layer}.self_s"] += ratio * self_s
                rhs_calls += calls
    metrics = {name: sums[name] / n for name in LAYER_UNITS}
    steps = sums["integrators.steps"]
    metrics["integrators.rhs_per_step"] = rhs_calls / steps if steps else 0.0
    metrics["bench.ref_s"] = statistics.median(slices)
    metrics["bench.trace_overhead"] = statistics.median(o.norm_s for o in fine_out) / statistics.median(
        o.norm_s for o in base
    )

    # the per-step table, from the coarse pass: nothing inside the march is wrapped
    per_step: dict[str, list[float]] = {name: [] for name in STEP_TABLE}
    calls: dict[int, int] = {}
    for span in coarse.spans:
        if span["name"] != "integrators.integrate":
            continue
        outcome = coarse_out[span["op"]]
        k = calls.get(span["op"], 0)
        calls[span["op"]] = k + 1
        if span["status"] == "ok":
            run = outcome.op.marches[k]
            key = combination(run.method, run.formulation, run.extended_mode)
            per_step[key].append(1e6 * outcome.ratio * (span["end"] - span["start"]) / run.steps)
    for name, values in per_step.items():
        metrics[name] = statistics.median(values) if values else 0.0
    notes = [
        f"per layer: {n} traced ops; child spans cover {1 - sums['cli.self_s'] / op_s:.1%} of op time",
        f"bench.trace_overhead: fine-traced op_s over untraced op_s from {len(base)} ops",
    ]
    return metrics, notes


# ---------------------------------------------------------------------------
# one workload


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = WORKLOADS[workload](seed)
    dirs = prepare(ops, WORK / workload)
    for op, d in list(zip(ops, dirs))[:WARMUP_OPS]:
        _invoke(cli, [a.replace("{dir}", str(d)) for a in op.argv], None, op.name)
        shutil.rmtree(d / "out", ignore_errors=True)

    if not trace:
        setup = measure_setup(dirs[0] / "scenario.yaml")
        outcomes, _ = run_pass(cli, ops, dirs, seconds)
        metrics, notes = end_to_end(outcomes, setup)
        units = END_TO_END_UNITS
        checked = outcomes
    else:
        from tracing import Tracer

        base, slices = run_pass(cli, ops, dirs, seconds * TRACE_SHARES[0])
        coarse, fine = Tracer(), Tracer()
        with coarse.patched("coarse"):
            coarse_out, _ = run_pass(cli, ops, dirs, seconds * TRACE_SHARES[1], coarse)
        with fine.patched("fine"):
            fine_out, _ = run_pass(cli, ops, dirs, seconds * TRACE_SHARES[2], fine)
        OUT.mkdir(exist_ok=True)
        coarse.write(OUT / f"spans-{workload}-seed{seed}-coarse.jsonl")
        fine.write(OUT / f"spans-{workload}-seed{seed}-fine.jsonl")
        metrics, notes = per_layer(base, slices, coarse, coarse_out, fine, fine_out)
        units = {**LAYER_UNITS, **{name: "us/step" for name in STEP_TABLE}}
        checked = base + coarse_out + fine_out
    shutil.rmtree(WORK / workload, ignore_errors=True)

    wrong = [o for o in checked if o.problems]
    failed = [o for o in checked if not o.ok]
    print(f"== {workload}  seed {seed}  trace {int(trace)}  ({len(checked)} ops)")
    for name, value in metrics.items():
        print(f"  {name:<62} {value:14.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    print(f"  oracle: {len(checked) - len(wrong)} of {len(checked)} ops passed, {len(wrong)} wrong outputs")
    for name in sorted({o.op.name for o in failed}):
        first = next(o for o in failed if o.op.name == name)
        said = (first.stderr or first.stdout).strip().splitlines() or [f"exit {first.rc}"]
        why = first.problems[0] if first.problems else said[-1]
        print(f"  failed: {name}: {why[:160]}")
    return {
        "correct": not wrong,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        cli = import_cli()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {w: run_workload(cli, w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
