"""The README's Python API example runs and prints what its comments say,
and its list of optional run keys names the knobs ``RunSpec`` has."""

import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from sirham import RunSpec

README = Path(__file__).resolve().parents[1] / "README.md"
NUMBER = r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?"


def _python_api_block() -> str:
    text = README.read_text()
    section = text.split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _half_unit(approx: str) -> float:
    """Half a unit in the last written digit of ``approx``, e.g. 5e-5 for 0.0588."""
    mantissa, _, exponent = approx.partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 0.5 * 10.0 ** (int(exponent or 0) - decimals)


def test_python_api_example_prints_its_commented_values(capsys):
    block = _python_api_block()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("#", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == 3
    for out, comment in zip(printed, comments):
        values = [float(x) for x in re.findall(NUMBER, out)]
        claimed = re.findall(r"~(" + NUMBER + ")", comment)
        assert claimed, comment
        for value, approx in zip(values, claimed):
            assert abs(value - float(approx)) <= _half_unit(approx), (out, comment)
    # the peak's second value is the threshold S = gamma/beta
    assert "S = gamma/beta" in comments[2]
    params = namespace["params"]
    s_at_peak = float(re.findall(NUMBER, printed[2])[1])
    assert s_at_peak == pytest.approx(params.gamma / params.beta, rel=1e-15)


def test_the_optional_run_keys_are_the_runspec_fields_with_defaults():
    """README's list of optional run keys, in order, is every ``RunSpec``
    field with a default, so a knob cannot be added or dropped unlisted."""
    text = " ".join(README.read_text().split())
    listed = re.search(r"Optional run keys: (.*?)\.(?:\s|$)", text).group(1)
    keys = re.findall(r"`(\w+)`", listed)
    assert keys == [f.name for f in fields(RunSpec) if f.default is not MISSING]
