"""Independent checks of what each op wrote or printed.

Nothing here imports ``sirham``: the truth comes from the model itself.

* Peak I.  On the conserved energy level through the initial state the
  infectious fraction peaks where S = gamma/beta, at
  ``I_max = s0 + i0 - rho - rho ln(s0 / rho)`` with ``rho = gamma/beta``.
  A sampled curve may miss the peak by the sampling gap and by the
  method's integration error; the tolerance is the sum of the two bounds,
  both fixed by the run's step and stride (see :func:`peak_tolerance`).
* Population.  S + I + R = 1 on every CSV row, to four rounding errors.
* Bookkeeping.  Row counts, clock end points, ``summary.csv`` rows and
  statuses, and ``check`` printing a PASS line per graded quantity.
"""

from __future__ import annotations

import math
from pathlib import Path

from workloads import METHOD_ORDER, Epidemic, Op, Run

CSV_HEADER = "t,tau,S,I,R,H,H_rel_drift"
SUMMARY_HEADER = (
    "point,label,beta,gamma,dt,method,formulation,status,"
    "final_S,final_I,peak_I,max_rel_h_drift"
)
#: S + R + I is formed from R = 1 - S - I and summed again: four roundings
POPULATION_TOL = 4 * 2.0**-52


def peak_tolerance(epi: Epidemic, run: Run) -> float:
    """How far a correct sampled peak may sit from the exact one.

    Sampling: near the peak I is a parabola, so samples spaced ``d`` apart
    in the native clock miss the top by at most |I''| d^2 / 8, doubled
    here to cover the Taylor remainder.  At the peak |I''| is
    beta gamma I_max^2 in ordinary time and beta^3 / gamma in the
    rescaled clock.

    Integration: an order-p method's error scale (lam h)^p, with lam the
    largest rate of the chart along the run (beta in ordinary time,
    gamma / S_end^2 in the rescaled clock, where dI/dtau = beta - gamma/S
    stiffens as S falls) and fractions bounded by one.
    """
    d = run.dt * run.sample_stride
    if run.clock == "t":
        curvature = epi.beta * epi.gamma * epi.i_max**2
        lam = epi.beta
    else:
        curvature = epi.beta**3 / epi.gamma
        s_end = epi.s0 - epi.beta * run.t_end
        lam = max(epi.beta, epi.gamma / s_end**2)
    return curvature * d * d / 4.0 + (lam * run.dt) ** METHOD_ORDER[run.method]


def _read_csv(path: Path) -> list[list[float]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path.name}: bad header")
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def check_trajectory(path: Path, epi: Epidemic, run: Run) -> tuple[list[str], float]:
    """Problems with one run CSV (none when it passed), and its peak I."""
    try:
        rows = _read_csv(path)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: {exc}"], math.nan
    problems = []
    if len(rows) != run.samples:
        problems.append(f"{path.name}: {len(rows)} rows, expected {run.samples}")
    if not rows:
        return problems, math.nan
    clock = 0 if run.clock == "t" else 1
    if rows[0][0] != 0.0 or rows[0][1] != 0.0:
        problems.append(f"{path.name}: clocks do not start at 0")
    if abs(rows[-1][clock] - run.t_end) > 1e-9 * run.t_end:
        problems.append(f"{path.name}: ends at {rows[-1][clock]}, expected {run.t_end}")
    worst = max(abs(r[2] + r[3] + r[4] - 1.0) for r in rows)
    if not worst <= POPULATION_TOL:
        problems.append(f"{path.name}: S+I+R-1 reaches {worst:.3e}")
    peak = max(r[3] for r in rows)
    tol = peak_tolerance(epi, run)
    if not abs(peak - epi.i_max) <= tol:
        problems.append(
            f"{path.name}: peak I {peak:.9f}, oracle {epi.i_max:.9f}, tol {tol:.2e}"
        )
    return problems, peak


def check_op(op: Op, out_dir: Path, stdout: str) -> list[str]:
    """Problems with the outputs of one op that exited 0."""
    if op.command == "check":
        lines = stdout.splitlines()
        graded = 2 * len(op.runs) + 1 + sum(r.formulation.startswith("extended_4d") for r in op.runs)
        problems = []
        if not lines or lines[-1] != "all checks passed":
            problems.append("check did not print 'all checks passed'")
        if len(lines) != graded + 1 or not all(line.endswith("PASS") for line in lines[:-1]):
            problems.append(f"check printed {len(lines) - 1} lines, expected {graded} PASS lines")
        return problems
    if op.command == "run":
        problems = []
        for run in op.runs:
            problems += check_trajectory(out_dir / f"{run.label}.csv", op.epidemic, run)[0]
        manifest = (out_dir / "manifest.tsv").read_text().splitlines()
        statuses = [line.split("\t")[2] for line in manifest]
        if statuses != ["ok"] * len(op.runs):
            problems.append(f"manifest statuses {statuses}")
        return problems
    return _check_sweep(op, out_dir)


def _check_sweep(op: Op, out_dir: Path) -> list[str]:
    try:
        lines = (out_dir / "summary.csv").read_text().splitlines()
    except OSError as exc:
        return [f"summary.csv: {exc}"]
    if not lines or lines[0] != SUMMARY_HEADER:
        return ["summary.csv: bad header"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(op.grid):
        return [f"summary.csv: {len(rows)} rows, expected {len(op.grid)}"]
    problems = []
    for k, (row, (beta, gamma, _), run) in enumerate(zip(rows, op.grid, op.marches)):
        if row[:2] != [str(k), run.label] or row[5] != run.method or row[7] != "ok":
            problems.append(f"summary.csv row {k}: {row[:8]}")
            continue
        if float(row[2]) != beta or float(row[3]) != gamma:
            problems.append(f"summary.csv row {k}: beta/gamma {row[2:4]}")
            continue
        epi = Epidemic(beta, gamma, op.epidemic.s0, op.epidemic.i0)
        found, peak = check_trajectory(out_dir / f"{run.label}.csv", epi, run)
        problems += found
        if float(row[10]) != peak:
            problems.append(f"summary.csv row {k}: peak_I {row[10]} but {run.label}.csv peaks at {peak!r}")
    return problems
