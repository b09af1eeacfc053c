"""Conservation monitors, analytic oracles, and cross-checks.

Two families live here.  The *monitors* grade a finished trajectory:
energy drift, population bookkeeping, and the momentum-constraint norm of
extended runs.  The *oracles* predict outbreak landmarks from the
conserved energy alone, with no integration: the level set of

    H(I, S) = beta*(I + S) - gamma*ln(S)

through the initial state determines both the infectious peak (reached
where S = gamma/beta) and the final susceptible fraction (the second
positive root of the level-set equation at I = 0).  Because the oracles
and the integrators share nothing but the model, agreement between them
is a meaningful end-to-end check, and the acceptance suite treats it as
such.

:func:`fd_gradient_check` compares the hand-written energy gradients with
central finite differences at randomly sampled chart points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import Chart, EpidemicParams, recovered_from
from .errors import MissingDiagnostic, NoEpidemic, ScenarioError
from .hamiltonian import _chart_energy, _constraint_residual, hamiltonian_direct
from .integrators import Trajectory

__all__ = [
    "ConservationReport",
    "conservation_report",
    "constraint_drift",
    "fd_gradient_check",
    "final_size_oracle",
    "hamiltonian_drift",
    "pairwise_sup_diff",
    "peak_infection_oracle",
    "population_conservation",
]


# ---------------------------------------------------------------------------
# trajectory monitors

def _relative_drift(h: np.ndarray) -> np.ndarray:
    """Signed relative drift ``(h - h[0]) / |h[0]|`` of an energy column: a
    run CSV's ``H_rel_drift``, and what the graded drifts take the largest
    magnitude of."""
    return (h - h[0]) / abs(h[0])


def hamiltonian_drift(traj: Trajectory) -> float:
    """Largest relative deviation of the energy column from its start."""
    if traj.h is None or len(traj.h) == 0:
        raise MissingDiagnostic("trajectory carries no energy column")
    if traj.h[0] == 0.0:
        raise MissingDiagnostic("relative drift undefined for zero initial energy")
    return float(np.max(np.abs(_relative_drift(traj.h))))


def population_conservation(traj: Trajectory, independent_r: bool = False) -> float:
    """Largest deviation of S + I + R from one along the trajectory.

    By default R is the stored column (closed as 1 - S - I at build time,
    so the residual is pure floating-point noise).  With ``independent_r``
    the recovered fraction is instead re-integrated from its own rate
    equation dR/dt = gamma*I by trapezoidal quadrature over the ordinary
    time column, which turns this into a genuine consistency check of
    order equal to the quadrature.  Each interval between samples takes
    the gamma of the segment that holds its midpoint; the march keeps a
    sample at every switch, so the quadrature stays second order across
    them.
    """
    if traj.n_samples == 0:
        return 0.0
    if not independent_r:
        return float(np.max(np.abs(traj.s + traj.i + traj.r - 1.0)))
    t, i = traj.t, traj.i
    mid = 0.5 * (t[1:] + t[:-1])
    idx = np.searchsorted(traj.schedule.switch_times, mid, side="right") - 1
    g = np.array([p.gamma for p in traj.schedule.params])[idx]
    increments = np.diff(t) * 0.5 * (g * i[1:] + g * i[:-1])
    r = traj.r[0] + np.concatenate(([0.0], np.cumsum(increments)))
    return float(np.max(np.abs(traj.s + traj.i + r - 1.0)))


def constraint_drift(traj: Trajectory) -> float:
    """Sup-norm of the momentum constraint C = Q + 2 J P over the samples."""
    if traj.coords.ndim != 2 or traj.coords.shape[1] != 4:
        raise MissingDiagnostic("trajectory carries no momentum block")
    return float(np.max(np.abs(_constraint_residual(*traj.coords.T))))


@dataclass(frozen=True)
class ConservationReport:
    """Summary of every conserved quantity a trajectory is expected to honour."""

    max_rel_h_drift: float
    per_segment_rel_h_drift: tuple[float, ...]
    max_population_residual: float
    max_constraint_norm: float | None


def conservation_report(traj: Trajectory) -> ConservationReport:
    """Grade a trajectory segment by segment.

    Parameter switches change the energy level, so the per-segment drifts
    recompute H from the fraction columns by ``hamiltonian_direct`` with
    each segment's own parameters (boundary samples included on both
    sides), and raise its refusal of a sample at S <= 0 or not finite; the
    global number is taken over the stored column and will show the jumps.
    """
    if traj.n_samples == 0:
        raise MissingDiagnostic("empty trajectory")
    horizon = float(traj.t[-1])
    per_segment = []
    for a, b, pars in traj.schedule.segments(horizon):
        slack = 1e-9 * max(1.0, abs(b))
        mask = (traj.t >= a - slack) & (traj.t <= b + slack)
        if not np.any(mask):
            per_segment.append(0.0)
            continue
        h = hamiltonian_direct((traj.i[mask], traj.s[mask]), pars)
        per_segment.append(float(np.max(np.abs(_relative_drift(h)))))
    constraint = None
    if traj.coords.ndim == 2 and traj.coords.shape[1] == 4:
        constraint = constraint_drift(traj)
    return ConservationReport(
        max_rel_h_drift=hamiltonian_drift(traj),
        per_segment_rel_h_drift=tuple(per_segment),
        max_population_residual=population_conservation(traj),
        max_constraint_norm=constraint,
    )


# ---------------------------------------------------------------------------
# analytic oracles

def final_size_oracle(params: EpidemicParams, s0: float, i0: float) -> float:
    """Susceptible fraction left behind by the outbreak, from conservation.

    The energy level through the initial state meets I = 0 at two
    susceptible values; the epidemic ends at the lower one, below the
    threshold gamma/beta.  It solves

        ln(S / s0) = r0 * (S - s0 - i0),

    by bisection over (0, 1/r0], where the relation increases from -inf
    (at 0, never evaluated) and is positive at 1/r0 whenever r0*s0 > 1.
    The returned value lies within 1e-15 of the root.  The bound is
    absolute: once the root is small, the steep log term leaves the
    relation's residual at the returned value far from 0.

    Raises
    ------
    NoEpidemic
        If r0 * s0 <= 1 (no outbreak to finish) or i0 = 0 (nothing ever
        happens; the relation would return a spurious root).
    """
    recovered_from(s0, i0)  # range validation
    r0 = params.r0
    if i0 <= 0.0:
        raise NoEpidemic("no outbreak without an initial infectious fraction")
    if r0 * s0 <= 1.0:
        raise NoEpidemic(
            f"subcritical state: r0*s0 = {r0 * s0:.6g} <= 1; final size "
            "equals the initial susceptible fraction only in the limit"
        )

    def relation(s: float) -> float:
        return math.log(s / s0) - r0 * (s - s0 - i0)

    lo, hi = 0.0, 1.0 / r0
    for _ in range(200):
        if hi - lo <= 1e-15:
            break
        mid = 0.5 * (lo + hi)
        if relation(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def peak_infection_oracle(
    params: EpidemicParams, s0: float, i0: float
) -> tuple[float, float]:
    """Peak infectious fraction and the susceptible fraction at the peak.

    On the conserved level set the infectious fraction is stationary where
    S = gamma/beta, giving the closed form

        i_max = i0 + s0 - (1 + ln(r0*s0)) / r0.

    The threshold case r0*s0 = 1 is allowed and returns the initial state
    (the peak happens at time zero); below threshold there is no peak and
    ``NoEpidemic`` is raised.
    """
    recovered_from(s0, i0)
    r0 = params.r0
    x = r0 * s0
    if x < 1.0:
        raise NoEpidemic(f"subcritical state: r0*s0 = {x:.6g} < 1, I only decays")
    i_max = i0 + s0 - (1.0 + math.log(x)) / r0
    return (i_max, 1.0 / r0)


# ---------------------------------------------------------------------------
# gradient verification

_SAMPLING_BOX = (0.02, 0.98)


def fd_gradient_check(
    chart: Chart,
    params: EpidemicParams,
    n_points: int = 100,
    seed: int = 0,
    step: float = 1e-6,
    points: Iterable[tuple[float, float]] | None = None,
) -> float:
    """Worst disagreement between analytic and central-difference gradients.

    Points are sampled uniformly from the physically meaningful box (both
    fractions in [0.02, 0.98], mapped through the chart), or supplied
    explicitly via ``points``.  Per component the score is the relative
    error, falling back to the absolute error where the analytic component
    is smaller than 1e-6 in magnitude; the returned value is the maximum
    score over all points and components.
    """
    energy, grad = _chart_energy(chart)
    if points is None:
        rng = np.random.default_rng(seed)
        lo, hi = _SAMPLING_BOX
        raw = rng.uniform(lo, hi, size=(n_points, 2))
        if chart is Chart.LOGARITHMIC:
            raw = np.log(raw)
        pts = [tuple(row) for row in raw]
    else:
        pts = [tuple(p) for p in points]

    worst = 0.0
    for z in pts:
        analytic = grad(z, params)
        for k in range(2):
            plus = list(z)
            minus = list(z)
            plus[k] += step
            minus[k] -= step
            fd = (energy(tuple(plus), params) - energy(tuple(minus), params)) / (
                2.0 * step
            )
            diff = abs(analytic[k] - fd)
            if abs(analytic[k]) > 1e-6:
                diff /= abs(analytic[k])
            worst = max(worst, diff)
    return worst


# ---------------------------------------------------------------------------
# cross-formulation comparison

def pairwise_sup_diff(trajectories: Sequence[Trajectory]) -> np.ndarray:
    """Pairwise sup-norm disagreement of I(t) over already-computed runs.

    The common grid is the sample grid of the coarsest run (the one with
    fewest samples) restricted to the overlap of all ordinary-time ranges;
    finer runs are linearly interpolated onto it.  Returns the symmetric
    matrix of maximum absolute differences, zero on the diagonal.
    """
    if len(trajectories) < 2:
        raise ScenarioError("need at least two runs to compare")
    lo = max(float(tr.t[0]) for tr in trajectories)
    hi = min(float(tr.t[-1]) for tr in trajectories)
    if hi <= lo:
        raise ScenarioError(
            f"no overlapping time range: latest start {lo}, earliest end {hi}"
        )
    masks = [(tr.t >= lo) & (tr.t <= hi) for tr in trajectories]
    coarsest = min(range(len(trajectories)), key=lambda k: int(np.sum(masks[k])))
    grid = trajectories[coarsest].t[masks[coarsest]]
    curves = [np.interp(grid, tr.t, tr.i) for tr in trajectories]
    n = len(curves)
    out = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            d = float(np.max(np.abs(curves[a] - curves[b])))
            out[a, b] = out[b, a] = d
    return out
