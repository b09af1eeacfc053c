"""Mutation check: source edits that named tests must catch.

Usage::

    python tools/mutants.py [NAME ...]

Each entry of :data:`MUTANTS` is one edit of one file, ``old`` replaced by
``new`` where ``old`` occurs exactly once, with the test node ids that
must fail once it is made.  The tool copies the files git lists, tracked
or untracked but not ignored, into a temporary directory.  There it runs
every named test once on the unedited copy, where each must pass; then,
for each mutant, makes its edit, runs its tests with pytest and undoes
the edit.  A mutant is caught when every one of its tests fails, and
survives otherwise.

Each pytest run is a child forked from this process, which imports the
test stack once and never ``sirham`` or a test module; the child changes
into the copy and imports them from there.  A run still going after its
time limit is killed with the processes it started.

It prints one line per mutant, ``caught NAME`` or ``SURVIVED NAME`` with
the tests that passed, or ``TIMED OUT NAME`` for a run that was killed,
and exits 1 if any mutant survives or times out.  It exits 2, before any
edit, where a mutant does not apply: its ``old`` text is not found exactly
once, it names no test, or one of its tests fails, is not collected or
times out on the unedited copy.  It also exits 2 where ``os.fork`` is
missing, as on Windows.  Names select mutants; with none, all run.  The tool needs
git and the standard library; the tests it runs need what the tier-1
suite needs.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
INTEGRATORS = "src/sirham/integrators.py"
CSV_FORMAT = "src/sirham/csvformat.py"
CSV_TESTS = "tests/test_csv_format.py::"
KERNEL_TESTS = "tests/test_kernels.py::"
MARCH_TESTS = "tests/test_integrators.py::"
NOT_SHARED = "test_runs_that_march_differently_do_not_share"
NO_STEPS = "test_a_failure_after_a_segment_of_no_steps_starts_from_clock_0"
NEWTON_STOP = "if abs(r0) <= tol and abs(r1) <= tol:"
STOPS_AT_PREDICTOR = (
    MARCH_TESTS + "TestSteppers::test_a_first_residual_equal_to_tol_stops_at_the_predictor"
)


def implicit_step_test(method: str, formulation: str) -> str:
    """The test that binds the implicit step of the march to its reference."""
    return KERNEL_TESTS + f"test_implicit_steps_equal_the_reference[{method}-{formulation}]"


class Mutant(NamedTuple):
    """``old`` replaced by ``new`` in the file at ``path``, and the node ids
    of the tests that must fail once it is made."""

    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


def newton_stop_strict(method: str, residual_end: str, entry: int) -> Mutant:
    """``<=`` → ``<`` in the stopping test of residual entry ``entry`` of the
    2-d step of ``method``, whose residual line ends with ``residual_end``:
    an entry equal to ``tol`` no longer stops the iteration."""
    old = f"{residual_end}\n        {NEWTON_STOP}"
    return Mutant(
        f"{method}-stop-strict-r{entry}",
        INTEGRATORS,
        old,
        old.replace(f"abs(r{entry}) <=", f"abs(r{entry}) <"),
        (f"{STOPS_AT_PREDICTOR}[{method}-r{entry}]",),
    )


MUTANTS = [
    Mutant(
        "midpoint-a10-sign",
        INTEGRATORS,
        "_solve2(1.0 - c * d00, -c * d01, -c * d10, 1.0 - c * d11, r0, r1)",
        "_solve2(1.0 - c * d00, -c * d01, c * d10, 1.0 - c * d11, r0, r1)",
        (
            implicit_step_test("implicit_midpoint", "log_t"),
            MARCH_TESTS + "TestJacobians::test_implicit_midpoint_takes_one_newton_update",
        ),
    ),
    Mutant(
        "variational-d01-for-d10",
        INTEGRATORS,
        "_solve2(c * d10, -0.5, 0.5, -c * d01, r0, r1)",
        "_solve2(c * d01, -0.5, 0.5, -c * d01, r0, r1)",
        (
            implicit_step_test("variational_midpoint", "rescaled_tau"),
            implicit_step_test("variational_midpoint", "log_t"),
        ),
    ),
    Mutant(
        "galerkin-d01-into-a10",
        INTEGRATORS,
        "a10 += ws * d10",
        "a10 += ws * d01",
        (
            implicit_step_test("time_fe_cg1_gauss2", "basic_t"),
            implicit_step_test("time_fe_cg1_gauss2", "log_t"),
        ),
    ),
    # each stage weighted by w alone, not by w * sigma, its derivative
    Mutant(
        "galerkin-jacobian-without-sigma",
        INTEGRATORS,
        "for sigma, rest, _, ws in _CG1_STAGES:",
        "for sigma, rest, ws, _ in _CG1_STAGES:",
        (
            implicit_step_test("time_fe_cg1_gauss2", "basic_t"),
            implicit_step_test("time_fe_cg1_gauss2", "log_t"),
        ),
    ),
    Mutant(
        "symplectic-euler-pivot-sign",
        INTEGRATORS,
        "a = 1.0 - dt * jac((q, p), params)[1][1]",
        "a = 1.0 + dt * jac((q, p), params)[1][1]",
        (
            implicit_step_test("symplectic_euler", "basic_t"),
            KERNEL_TESTS + "test_newton_refusals_equal_the_reference[singular_jacobian]",
        ),
    ),
    # a solution that the last allowed update reaches is refused
    Mutant(
        "midpoint-cap-before-residual-test",
        INTEGRATORS,
        "        r0, r1 = u0 - y0 - dt * f0, u1 - y1 - dt * f1\n"
        "        if abs(r0) <= tol and abs(r1) <= tol:\n"
        "            return (u0, u1)\n"
        "        if n == max_iter:\n"
        "            raise _not_converged(max_iter, r0, r1)\n",
        "        r0, r1 = u0 - y0 - dt * f0, u1 - y1 - dt * f1\n"
        "        if n == max_iter:\n"
        "            raise _not_converged(max_iter, r0, r1)\n"
        "        if abs(r0) <= tol and abs(r1) <= tol:\n"
        "            return (u0, u1)\n",
        (MARCH_TESTS + "TestSteppers::test_newton_accepts_a_solution_found_on_its_last_iteration",),
    ),
    Mutant(
        "symplectic-euler-refusal-reports-q-p",
        INTEGRATORS,
        "raise _left_finite_range((p,))",
        "raise _left_finite_range((q, p))",
        (KERNEL_TESTS + "test_a_1d_refusal_reports_a_1_tuple",),
    ),
    Mutant(
        "march-key-without-stride",
        INTEGRATORS,
        'if field.name not in ("formulation", *_UNMARCHED)',
        'if field.name not in ("formulation", "sample_stride", *_UNMARCHED)',
        (
            MARCH_TESTS + f"TestSharedMarch::{NOT_SHARED}[same-sample_stride]",
            MARCH_TESTS + f"TestSharedMarch::{NOT_SHARED}[twin-sample_stride]",
        ),
    ),
    Mutant(
        "np-exp-log-dilation",
        INTEGRATORS,
        "dilation=lambda y, params: _exp(y[0] + y[1]),",
        "dilation=lambda y, params: np.exp(y[0] + y[1]),",
        (
            KERNEL_TESTS + "test_the_march_equals_the_step_by_step_reference[log_dilation_overflow]",
            KERNEL_TESTS + "test_the_march_equals_the_step_by_step_reference[log_t_explicit_euler]",
        ),
    ),
    # the one formula for H: the run's H column, its graded drifts and the
    # shipped check all read it
    Mutant(
        "energy-log-term-sign",
        "src/sirham/hamiltonian.py",
        "return params.beta * (i + s) - params.gamma * np.log(s)",
        "return params.beta * (i + s) + params.gamma * np.log(s)",
        (
            "tests/test_cli.py::TestCheckCommand::test_the_shipped_scenario_marches_five_times",
            "tests/test_diagnostics.py::TestConservationReport::"
            "test_each_energy_row_is_the_energy_of_its_state",
        ),
    ),
    # a failure after a segment of no steps names the clock of the last
    # state before that segment, not that segment's start
    Mutant(
        "own-clock-seeded-with-segment-start",
        INTEGRATORS,
        "own[0] = before",
        "own[0] = seg.a",
        (MARCH_TESTS + "TestIntegrate::" + NO_STEPS,),
    ),
    # the walk reads the dilation of every marched state, not only of those
    # before the first failing one, where each record's is defined
    Mutant(
        "walk-reads-every-dilation",
        INTEGRATORS,
        "dil = rec.dilation(states[marched:first].T, pars)",
        "dil = rec.dilation(states[marched:].T, pars)",
        (
            KERNEL_TESTS + "test_the_march_equals_the_step_by_step_reference[log_dilation_overflow]",
            KERNEL_TESTS
            + "test_the_march_equals_the_step_by_step_reference[rate_reaching_minus_gamma_at_a_switch]",
            "tests/test_cli.py::TestRunCommand::test_an_overflowing_rate_exits_3_with_its_step",
        ),
    ),
    # the direct rate's dilation refuses from S = 1 on, inside the simplex
    Mutant(
        "rate-dilation-refuses-from-s-1",
        INTEGRATORS,
        "if np.any(y[1] >= beta):",
        "if np.any(y[1] >= beta - params.gamma):",
        (
            MARCH_TESTS
            + "test_the_dilation_is_defined_wherever_the_walk_places_a_state[single_ode_direct]",
        ),
    ),
    Mutant(
        "reconstruct-two-samples-as-one",
        INTEGRATORS,
        "if traj.n_samples < 2:",
        "if traj.n_samples <= 2:",
        (MARCH_TESTS + "TestReconstructOrdinaryTime::test_two_samples_take_one_trapezoid",),
    ),
    # every process that imports the CLI maps OpenSSL, not only ``run``'s
    Mutant(
        "digest-hashlib-at-import",
        "src/sirham/cli.py",
        "import errno\n",
        "import errno\nimport hashlib\n",
        ("tests/test_cli.py::TestFootprint::test_no_command_maps_openssl",),
    ),
    # the manifest digest maps OpenSSL where the interpreter's own SHA-256 is there
    Mutant(
        "digest-from-hashlib",
        "src/sirham/cli.py",
        "from _sha2 import sha256  # CPython 3.12 and later\n",
        "from hashlib import sha256\n",
        ("tests/test_cli.py::TestFootprint::test_no_command_maps_openssl",),
    ),
    # each digest imports its SHA-256 again: a failed import searches sys.path
    Mutant(
        "digest-resolved-each-call",
        "src/sirham/cli.py",
        "@functools.cache\ndef _sha256_constructor():",
        "def _sha256_constructor():",
        ("tests/test_cli.py::TestFootprint::test_a_second_digest_attempts_no_import",),
    ),
    # the first momentum rate's sign: the extended flow leaves C = Q + 2 J P = 0,
    # and the walk, which appends P = J Q / 2, hides it from the shipped check
    Mutant(
        "extended-momentum-rate-sign",
        "src/sirham/hamiltonian.py",
        "return (g1, -g0, -0.5 * g0, -0.5 * g1)",
        "return (g1, -g0, 0.5 * g0, -0.5 * g1)",
        (
            "tests/test_hamiltonian.py::TestExtendedSpace::"
            "test_momentum_rate_keeps_the_constraint_frozen",
            "tests/test_acceptance.py::test_06_momentum_constraint_tracking",
        ),
    ),
    # the oracle's bisection runs all 200 halvings
    Mutant(
        "oracle-stops-on-sum",
        "src/sirham/diagnostics.py",
        "if hi - lo <= 1e-15:",
        "if hi + lo <= 1e-15:",
        (
            "tests/test_diagnostics.py::TestFinalSizeOracle::"
            "test_the_bisection_stops_at_its_tolerance[canonical]",
        ),
    ),
    # the lower bracket clamped to 1e-308 and refused where the relation is
    # not negative there: a root among the subnormals or below is refused
    Mutant(
        "oracle-bracket-clamped-and-tested",
        "src/sirham/diagnostics.py",
        "lo, hi = 0.0, 1.0 / r0\n",
        "lo, hi = max(0.5 * s0 * math.exp(-r0 * (s0 + i0)), 1e-308), 1.0 / r0\n"
        "    if relation(lo) >= 0.0:\n"
        "        raise ScenarioError('final-size bracket failed')\n",
        tuple(
            "tests/test_diagnostics.py::TestFinalSizeOracle::"
            f"test_a_root_below_the_normal_doubles_is_found[r0-{r0}]"
            for r0 in (720, 800, 1000)
        ),
    ),
    # exact halves decided in the fast path, rounding half up, with no fallback
    Mutant(
        "csv-tie-without-fallback",
        CSV_FORMAT,
        "    r = np.rint(l)\n    bad |= np.abs(l - r) > 0.5 - TIE\n",
        "    r = np.floor(l + 0.5)\n",
        (CSV_TESTS + "test_exact_halves_round_half_to_even",),
    ),
    # a cell just below a power of ten keeps the exponent of that power
    Mutant(
        "csv-power-of-ten-boundary",
        CSV_FORMAT,
        "(h - lowest) + l < 0.0",
        "h < lowest",
        (CSV_TESTS + "test_powers_of_ten_and_their_neighbours_are_spelled_as_percent_17g",),
    ),
    # a cell whose exponent guess misses is spelled from its wrong exponent
    Mutant(
        "csv-guess-miss-without-fallback",
        CSV_FORMAT,
        "    bad |= ((h - lowest) + l < 0.0) | ((h - above) + l >= 0.0)\n",
        "",
        (CSV_TESTS + "test_powers_of_ten_and_their_neighbours_are_spelled_as_percent_17g",),
    ),
    # a residual entry equal to tol takes one more Newton update
    Mutant(
        "symplectic_euler-stop-strict",
        INTEGRATORS,
        "if abs(r) <= tol:",
        "if abs(r) < tol:",
        (f"{STOPS_AT_PREDICTOR}[symplectic_euler]",),
    ),
    *(
        newton_stop_strict(method, residual_end, entry)
        for method, residual_end in (
            ("implicit_midpoint", "dt * f1"),
            ("variational_midpoint", "d_rate[1]"),
            ("time_fe_cg1_gauss2", "dt * a1"),
        )
        for entry in (0, 1)
    ),
    # a sample at exactly the slack before a segment's start is left out of it
    Mutant(
        "segment-mask-strict-start",
        "src/sirham/diagnostics.py",
        "mask = (traj.t >= a - slack)",
        "mask = (traj.t > a - slack)",
        (
            "tests/test_diagnostics.py::TestConservationReport::"
            "test_a_sample_at_the_slack_before_a_segment_is_graded_in_it",
        ),
    ),
    Mutant(
        "rk4-regrouped-sum",
        INTEGRATORS,
        "y0 + sixth * (a0 + 2.0 * (b0 + c0) + d0),",
        "y0 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0),",
        (KERNEL_TESTS + "test_marched_states_equal_the_reference[log_t-rk4]",),
    ),
]


def copy_tree(dest: Path) -> None:
    """The files git lists, tracked or untracked but not ignored, under ``dest``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT,
        check=True,
        capture_output=True,
    ).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(source, dest / name)


def junit_key(node_id: str) -> tuple[str, str]:
    """The ``(classname, name)`` pytest's JUnit report gives a node id."""
    path, *parts = node_id.split("::")
    module = path.removesuffix(".py").replace("/", ".")
    return ".".join([module, *parts[:-1]]), parts[-1]


def pytest_in_child(tree: Path, args: list[str]) -> int:
    """``pytest.main(args)`` run in ``tree`` by a forked child, with the
    tree's ``sirham`` and tests in place of any this process holds."""
    os.setpgid(0, 0)
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, 1)
    os.dup2(null, 2)
    os.chdir(tree)
    ours = str(ROOT) + os.sep
    for name, module in list(sys.modules.items()):
        where = getattr(module, "__file__", None) or ""
        if name != "__main__" and (name.split(".")[0] == "sirham" or where.startswith(ours)):
            del sys.modules[name]
    sys.path[:] = [str(tree / "src")] + [
        entry for entry in sys.path if not os.path.abspath(entry or ".").startswith(ours)
    ]
    sys.dont_write_bytecode = True
    # the interpreters the tests start import the tree's sirham too
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])
    )
    import pytest

    return int(pytest.main(args))


def run_tests(tree: Path, node_ids: list[str], limit: float) -> dict[str, bool] | None:
    """Whether each test of ``node_ids`` that pytest collected in ``tree``
    passed, or None where the run took longer than ``limit`` seconds."""
    report = tree / "junit.xml"
    args = ["-q", "-p", "no:cacheprovider", "--tb=no", f"--junitxml={report}", *node_ids]
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            status = pytest_in_child(tree, args)
        finally:
            os._exit(status)
    with contextlib.suppress(OSError):  # the child may have done it already
        os.setpgid(pid, pid)
    deadline = time.monotonic() + limit
    finished = False
    try:
        while not (finished := os.waitpid(pid, os.WNOHANG)[0] == pid):
            if time.monotonic() > deadline:
                return None
            time.sleep(0.005)
    finally:
        if not finished:
            os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            report.unlink(missing_ok=True)
    results = {}
    if report.exists():
        for case in ET.parse(report).iter("testcase"):
            results[case.get("classname"), case.get("name")] = not any(
                child.tag in ("failure", "error", "skipped") for child in case
            )
        report.unlink()
    return {node: results[junit_key(node)] for node in node_ids if junit_key(node) in results}


def check(mutants: list[Mutant], limit: float = 60.0) -> int:
    """Run ``mutants`` on a copy of the tree, each run of pytest killed after
    ``limit`` seconds; the exit status."""
    if not hasattr(os, "fork"):
        print("os.fork is missing here, and each run of pytest is a forked child")
        return 2
    # the test stack, imported once for every forked run: pytest, the plugins
    # it loads and the packages the tests import.  Never sirham or a test
    # module, which each run imports from the edited copy.
    import hypothesis  # noqa: F401
    import numpy  # noqa: F401
    import pytest
    import yaml  # noqa: F401

    pytest.PytestPluginManager().load_setuptools_entrypoints("pytest11")

    with tempfile.TemporaryDirectory(prefix="sirham-mutants-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        texts = {}
        for mutant in mutants:
            text = texts.setdefault(mutant.path, (tree / mutant.path).read_text())
            if text.count(mutant.old) != 1:
                print(f"{mutant.name}: its text is in {mutant.path} "
                      f"{text.count(mutant.old)} times, not once")
                return 2
            if not mutant.tests:
                print(f"{mutant.name}: names no test")
                return 2
        named = sorted({node for mutant in mutants for node in mutant.tests})
        unedited = run_tests(tree, named, limit)
        if unedited is None:
            print(f"the unedited copy ran past {limit:g} s")
            return 2
        broken = [node for node in named if not unedited.get(node, False)]
        if broken:
            print("failing or not collected before any edit: " + ", ".join(broken))
            return 2
        survivors = 0
        for mutant in mutants:
            path = tree / mutant.path
            path.write_text(texts[mutant.path].replace(mutant.old, mutant.new))
            try:
                outcome = run_tests(tree, list(mutant.tests), limit)
            finally:
                path.write_text(texts[mutant.path])
            if outcome is None:
                survivors += 1
                print(f"TIMED OUT {mutant.name} after {limit:g} s")
                continue
            # a test that the edit keeps from being collected fails too
            passed = [node for node in mutant.tests if outcome.get(node, False)]
            if passed:
                survivors += 1
                print(f"SURVIVED {mutant.name}: " + ", ".join(passed))
            else:
                print(f"caught {mutant.name}")
    return 1 if survivors else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="the mutants to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error("unknown mutant: " + ", ".join(unknown))
    start = time.perf_counter()
    status = check([by_name[name] for name in args.names] or MUTANTS)
    print(f"{time.perf_counter() - start:.1f} s")
    return status


if __name__ == "__main__":
    sys.exit(main())
