"""``tools/mutants.py`` on two of its mutants, and on an edit that changes
no value, which the tool must report as a survivor."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mutants.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_mutants_are_caught():
    names = ["symplectic-euler-refusal-reports-q-p", "rk4-regrouped-sum"]
    proc = subprocess.run(
        [sys.executable, str(TOOL), *names], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[:2] == [f"caught {name}" for name in names]


def test_an_edit_that_changes_no_value_survives(capsys):
    """Times 1.0 leaves every float as it is, so the test passes and the
    tool says so."""
    tool = load_tool()
    test = "tests/test_kernels.py::test_a_1d_refusal_reports_a_1_tuple"
    same = tool.Mutant(
        "times-one", tool.INTEGRATORS, "    m = a10 / a00\n", "    m = a10 / a00 * 1.0\n", (test,)
    )
    assert tool.check([same]) == 1
    assert capsys.readouterr().out == f"SURVIVED times-one: {test}\n"


def test_a_run_past_its_limit_is_killed_and_not_caught(capsys):
    """An edit that makes its test sleep is killed at the limit and reported
    as timed out, never as caught, while the unedited run finishes in time."""
    tool = load_tool()
    test = "tests/test_kernels.py::test_marched_states_equal_the_reference[log_t-rk4]"
    sleeping = tool.Mutant(
        "sleeps",
        tool.INTEGRATORS,
        "    sixth = dt / 6.0\n",
        "    sixth = dt / 6.0\n    __import__('time').sleep(600)\n",
        (test,),
    )
    assert tool.check([sleeping], limit=5.0) == 1
    assert capsys.readouterr().out == "TIMED OUT sleeps after 5 s\n"
