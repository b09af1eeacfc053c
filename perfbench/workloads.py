"""Seeded workload generators.

Each workload is one closed-loop client: it sends the next ``sirham``
invocation only after the previous one returned.  A generator turns a seed
into one *cycle* of operations; the benchmark repeats the cycle, so every
op mix is measured in whole cycles and the same seed always yields the
same bytes.  The program only ever sees the generated YAML files.

* ``check_rk4``: ``sirham check`` on seven-formulation RK4 scenarios.
  Nearly all of an op is the march and the rhs kernels; no Newton, no CSV.
* ``implicit_run``: ``sirham run`` of one run per op, cycling through
  every combination ``RunSpec`` accepts for the four implicit methods,
  including the six ``extended_4d_*``/``direct4d`` ones that currently fail
  at step one.  Newton with its finite-difference Jacobian dominates.
* ``sweep_grid``: ``sirham sweep --jobs 1`` over small beta x gamma x
  {rk4, explicit_euler} grids at stride 1: many short marches that sample
  every step, and heavy CSV serialisation.

Every epidemic is drawn with r0 in an outbreak range, and every
rescaled-clock horizon is a fixed fraction of the clock's asymptote
``tau_max = (s0 - s_inf) / beta`` (``s_inf`` from the final-size root), so
no generated run reaches the S*I = 0 singularity of the time map.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

#: rescaled-clock runs stop at this fraction of the clock's asymptote
TAU_FRACTION = 0.9

#: formulations whose native clock is the rescaled one
TAU_FORMULATIONS = ("rescaled_tau", "single_ode_direct", "extended_4d_direct")
ALL_FORMULATIONS = (
    "basic_t",
    "rescaled_tau",
    "log_t",
    "single_ode_direct",
    "single_ode_log",
    "extended_4d_direct",
    "extended_4d_log",
)
METHOD_ORDER = {
    "explicit_euler": 1,
    "rk4": 4,
    "symplectic_euler": 1,
    "implicit_midpoint": 2,
    "variational_midpoint": 2,
    "time_fe_cg1_gauss2": 2,
}


@dataclass(frozen=True)
class Epidemic:
    beta: float
    gamma: float
    s0: float
    i0: float

    @property
    def s_inf(self) -> float:
        """Final susceptible fraction: root of ln(S/s0) = r0 (S - s0 - i0)."""
        r0 = self.beta / self.gamma
        s0, i0 = self.s0, self.i0

        def relation(s: float) -> float:
            return math.log(s / s0) - r0 * (s - s0 - i0)

        lo, hi = 1e-300, self.gamma / self.beta
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if relation(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    @property
    def tau_max(self) -> float:
        return (self.s0 - self.s_inf) / self.beta

    def s_at_tau(self, tau: float) -> float:
        return self.s0 - self.beta * tau

    def i_at_tau(self, tau: float) -> float:
        """Exact I along the rescaled clock, where dS/dtau = -beta."""
        s = self.s_at_tau(tau)
        return self.i0 + self.beta * tau + (self.gamma / self.beta) * math.log(s / self.s0)

    def t_at_tau(self, tau: float, intervals: int = 4000) -> float:
        """Ordinary time reached at ``tau``: composite Simpson of 1/(S I)."""
        h = tau / intervals
        acc = 0.0
        for k in range(intervals + 1):
            x = k * h
            w = 1.0 if k in (0, intervals) else (4.0 if k % 2 else 2.0)
            acc += w / (self.s_at_tau(x) * self.i_at_tau(x))
        return acc * h / 3.0

    @property
    def i_max(self) -> float:
        """Peak infectious fraction from the conserved energy."""
        rho = self.gamma / self.beta
        return self.s0 + self.i0 - rho - rho * math.log(self.s0 / rho)


def draw_epidemic(rng: random.Random) -> Epidemic:
    r0 = rng.uniform(1.8, 4.0)
    gamma = rng.uniform(0.08, 0.2)
    i0 = rng.uniform(0.005, 0.02)
    return Epidemic(beta=r0 * gamma, gamma=gamma, s0=1.0 - i0, i0=i0)


def march_steps(span: float, dt: float) -> int:
    """Steps a fixed-step march takes over ``span``, counting a short last one."""
    n_full = int(math.floor(span / dt + 1e-9))
    tail = span - n_full * dt
    return n_full + (1 if tail > 1e-9 * dt else 0)


@dataclass(frozen=True)
class Run:
    """One integration run as written into a scenario."""

    label: str
    method: str
    formulation: str
    dt: float
    t_end: float
    sample_stride: int = 1
    extended_mode: str = "direct4d"

    @property
    def clock(self) -> str:
        return "tau" if self.formulation in TAU_FORMULATIONS else "t"

    @property
    def steps(self) -> int:
        return march_steps(self.t_end, self.dt)

    @property
    def samples(self) -> int:
        n = self.steps
        return n // self.sample_stride + 1 + (1 if n % self.sample_stride else 0)

    def yaml(self) -> str:
        fields = [
            f"label: {self.label}",
            f"method: {self.method}",
            f"formulation: {self.formulation}",
            f"dt: {self.dt!r}",
            f"t_end: {self.t_end!r}",
            f"sample_stride: {self.sample_stride}",
        ]
        if self.formulation.startswith("extended_4d"):
            fields.append(f"extended_mode: {self.extended_mode}")
        return "  - {" + ", ".join(fields) + "}\n"


def scenario_yaml(epi: Epidemic, runs: list[Run]) -> str:
    return (
        "init:\n"
        f"  s: {epi.s0!r}\n"
        f"  i: {epi.i0!r}\n"
        "schedule:\n"
        f"  - {{t: 0.0, beta: {epi.beta!r}, gamma: {epi.gamma!r}}}\n"
        "run:\n" + "".join(r.yaml() for r in runs)
    )


@dataclass
class Op:
    """One CLI invocation of a cycle, with what its outputs must satisfy.

    ``argv`` names files relative to the op's own directory; ``{dir}`` is
    replaced by that directory when the op runs.
    """

    name: str
    command: str
    argv: list[str]
    scenario: str
    epidemic: Epidemic
    runs: list[Run]
    grid: list[tuple[float, float, str]] = field(default_factory=list)

    @property
    def marches(self) -> list[Run]:
        """The runs the op integrates, in order: a sweep's grid points, else its runs."""
        if self.command != "sweep":
            return self.runs
        t = self.runs[0]
        return [
            Run(f"point{k:04d}", method, t.formulation, t.dt, t.t_end)
            for k, (_, _, method) in enumerate(self.grid)
        ]

    @property
    def steps(self) -> int:
        """Integration steps the op completes when it succeeds."""
        return sum(r.steps for r in self.marches)

    @property
    def trajectories(self) -> int:
        return len(self.marches)


def _horizons(epi: Epidemic) -> tuple[float, float]:
    """(ordinary-time, rescaled-clock) horizons covering the same stretch."""
    tau_end = TAU_FRACTION * epi.tau_max
    return epi.t_at_tau(tau_end), tau_end


# -- check_rk4 ---------------------------------------------------------------

CHECK_SCENARIOS = 6
#: steps per run by native clock; rescaled-clock samples are spaced in
#: ordinary time by dtau / (S I), coarsest early on where I is small, and
#: the equivalence check compares linearly interpolated curves
CHECK_STEPS = {"t": 1000, "tau": 2000}


def check_rk4(seed: int) -> list[Op]:
    rng = random.Random(f"check_rk4:{seed}")
    ops = []
    for k in range(CHECK_SCENARIOS):
        epi = draw_epidemic(rng)
        t_end, tau_end = _horizons(epi)
        runs = []
        for form in ALL_FORMULATIONS:
            clock = "tau" if form in TAU_FORMULATIONS else "t"
            horizon = tau_end if clock == "tau" else t_end
            runs.append(Run(form, "rk4", form, horizon / CHECK_STEPS[clock], horizon))
        text = scenario_yaml(epi, runs)
        ops.append(Op(f"check{k}", "check", ["check", "{dir}/scenario.yaml"], text, epi, runs))
    return ops


# -- implicit_run ------------------------------------------------------------

IMPLICIT_METHODS = (
    "symplectic_euler",
    "implicit_midpoint",
    "time_fe_cg1_gauss2",
    "variational_midpoint",
)
#: steps per op, so that every op costs roughly the same (~0.1 s)
IMPLICIT_STEPS = {
    "symplectic_euler": 4000,
    "implicit_midpoint": 2400,
    "time_fe_cg1_gauss2": 1600,
    "variational_midpoint": 2400,
}
IMPLICIT_STRIDE = 10


def implicit_combinations() -> list[tuple[str, str, str]]:
    """Every (method, formulation, extended_mode) that RunSpec accepts."""
    combos = []
    for method in IMPLICIT_METHODS:
        for form in ALL_FORMULATIONS:
            if method == "variational_midpoint" and form not in ("rescaled_tau", "log_t"):
                continue
            modes = ("direct4d", "reconstruct") if form.startswith("extended_4d") else ("direct4d",)
            combos.extend((method, form, mode) for mode in modes)
    return combos


def implicit_run(seed: int) -> list[Op]:
    rng = random.Random(f"implicit_run:{seed}")
    ops = []
    for method, form, mode in implicit_combinations():
        epi = draw_epidemic(rng)
        t_end, tau_end = _horizons(epi)
        horizon = tau_end if form in TAU_FORMULATIONS else t_end
        n = IMPLICIT_STEPS[method]
        name = f"{method}.{form}" + (".reconstruct" if mode == "reconstruct" else "")
        run = Run("run", method, form, horizon / n, horizon, IMPLICIT_STRIDE, mode)
        text = scenario_yaml(epi, [run])
        argv = ["run", "{dir}/scenario.yaml", "--out", "{dir}/out"]
        ops.append(Op(name, "run", argv, text, epi, [run]))
    return ops


# -- sweep_grid --------------------------------------------------------------

SWEEP_GRIDS = 6
SWEEP_STEPS = 500
SWEEP_FORMULATION = "log_t"
SWEEP_METHODS = ("rk4", "explicit_euler")


def sweep_grid(seed: int) -> list[Op]:
    rng = random.Random(f"sweep_grid:{seed}")
    ops = []
    for k in range(SWEEP_GRIDS):
        i0 = rng.uniform(0.005, 0.02)
        betas = sorted(round(rng.uniform(0.3, 0.6), 4) for _ in range(2))
        gammas = sorted(round(rng.uniform(0.08, 0.15), 4) for _ in range(2))
        points = [Epidemic(b, g, 1.0 - i0, i0) for b in betas for g in gammas]
        # one horizon for the whole grid: the slowest outbreak's
        t_end = max(_horizons(p)[0] for p in points)
        base = points[0]
        run = Run("template", "rk4", SWEEP_FORMULATION, t_end / SWEEP_STEPS, t_end)
        grid = [(b, g, m) for b in betas for g in gammas for m in SWEEP_METHODS]
        spec = (
            f"beta={','.join(map(repr, betas))};"
            f"gamma={','.join(map(repr, gammas))};"
            f"method={','.join(SWEEP_METHODS)}"
        )
        argv = ["sweep", "{dir}/scenario.yaml", "--grid", spec, "--out", "{dir}/out", "--jobs", "1"]
        ops.append(Op(f"sweep{k}", "sweep", argv, scenario_yaml(base, [run]), base, [run], grid))
    return ops


WORKLOADS = {"check_rk4": check_rk4, "implicit_run": implicit_run, "sweep_grid": sweep_grid}
