"""Spans and counts recorded from outside the program.

The traced passes patch module attributes with timing wrappers around the
public calls into each layer; nothing under ``src/`` changes.  Two depths:

* ``coarse`` wraps only the calls the CLI makes into the other layers
  (scenario load, march, diagnostics, CSV).  Its ``integrate`` spans give
  the per-step table, free of the cost of wrapping every stage.
* ``fine`` adds the one-step schemes and every rhs function the march
  looks up, for counts, rhs-per-step and self times.

CLI-level calls become spans (id, parent, op, name, start, end, self time,
status, counts) kept in memory and written out when the pass ends.  The
per-step and per-stage calls are too many to keep one by one: they are
summed per op and layer into calls, total and self time, and their counts
are added to the span that encloses them.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

import sirham.cli as cli
from sirham import dynamics, hamiltonian, integrators, lagrangian

CLI_CALLS = {
    "load_scenario": "scenario.load",
    "integrate": "integrators.integrate",
    "conservation_report": "diagnostics.report",
    "pairwise_sup_diff": "diagnostics.pairwise",
    "trajectory_csv": "cli.csv",
}
STEP_FUNCTIONS = (
    "step_explicit_euler",
    "step_rk4",
    "step_symplectic_euler",
    "step_implicit_midpoint",
    "step_variational_midpoint",
    "step_time_fe_cg1",
)
#: the rhs functions the march looks up at call time, by layer
RHS_FUNCTIONS = {
    dynamics: ("sir_rhs", "rescaled_accel", "log_accel"),
    hamiltonian: ("hamilton_rhs_direct", "hamilton_rhs_log", "_extended_rates"),
    lagrangian: ("extended_lagrangian_gradients",),
}


class _Frame:
    __slots__ = ("span_id", "step", "child", "steps", "rhs")

    def __init__(self, span_id: int | None, step: bool = False) -> None:
        self.span_id = span_id
        self.step = step
        self.child = 0.0
        self.steps = 0
        self.rhs = 0


class Tracer:
    """Records spans and per-op layer sums while its patches are applied."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: per op: layer -> [calls, total seconds, self seconds]
        self.layers: list[dict[str, list]] = []
        self._frames: list[_Frame] = []
        self._spans: list[_Frame] = []
        self._op = -1

    # -- ops -----------------------------------------------------------------

    def begin_op(self, name: str) -> None:
        self._op += 1
        self.layers.append(defaultdict(lambda: [0, 0.0, 0.0]))
        self._open_span = (name, time.perf_counter())
        root = _Frame(len(self.spans))
        self.spans.append({})
        self._frames = [root]
        self._spans = [root]

    def end_op(self, status: str) -> None:
        end = time.perf_counter()
        root = self._frames.pop()
        name, start = self._open_span
        self.spans[root.span_id] = self._record(root, None, "op", start, end, status, op_name=name)
        self._spans = []

    def _record(self, frame, parent, name, start, end, status, **extra) -> dict:
        span = {
            "id": frame.span_id,
            "parent": parent,
            "op": self._op,
            "name": name,
            "start": start,
            "end": end,
            "self_s": end - start - frame.child,
            "status": status,
        }
        if frame.steps:
            span["steps"] = frame.steps
            span["rhs_calls"] = frame.rhs
        span.update(extra)
        return span

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call is one span."""

        def wrapper(*args, **kwargs):
            parent = self._spans[-1].span_id
            frame = _Frame(len(self.spans))
            self.spans.append({})
            self._frames.append(frame)
            self._spans.append(frame)
            status = "ok"
            extra = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if name == "cli.csv":
                    extra = {"rows": result.count("\n") - 1, "bytes": len(result.encode())}
                return result
            except Exception as exc:
                status = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._frames.pop()
                self._spans.pop()
                self._frames[-1].child += end - start
                self.spans[frame.span_id] = self._record(
                    frame, parent, name, start, end, status, **extra
                )

        return wrapper

    def summed(self, layer: str, fn, *, step: bool):
        """Wrap ``fn`` so that its calls are summed per op under ``layer``.

        A step scheme called from inside another (the explicit-Euler
        predictor of the implicit schemes) is part of the outer step.
        """

        def wrapper(*args, **kwargs):
            if step and self._frames[-1].step:
                return fn(*args, **kwargs)
            frame = _Frame(None, step)
            frames = self._frames
            frames.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                frames.pop()
                frames[-1].child += elapsed
                enclosing = self._spans[-1]
                if step:
                    enclosing.steps += 1
                else:
                    enclosing.rhs += 1
                acc = self.layers[self._op][layer]
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - frame.child

        return wrapper

    # -- patching ------------------------------------------------------------

    @contextlib.contextmanager
    def patched(self, depth: str):
        """Apply the wrappers for ``depth`` ("coarse" or "fine") meanwhile."""
        targets = [(cli, attr, self.span(name, getattr(cli, attr))) for attr, name in CLI_CALLS.items()]
        if depth == "fine":
            targets += [
                (integrators, attr, self.summed("integrators.step", getattr(integrators, attr), step=True))
                for attr in STEP_FUNCTIONS
            ]
            for module, attrs in RHS_FUNCTIONS.items():
                layer = module.__name__.rsplit(".", 1)[1]
                targets += [
                    (module, attr, self.summed(layer, getattr(module, attr), step=False))
                    for attr in attrs
                ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        try:
            for module, attr, wrapper in targets:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
