"""``tools/parity.py`` on a small grid: a tree against itself, and against a
copy whose CSV writer rounds one digit sooner."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parity(ref):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "parity.py"), str(ref), "--cases", "10"],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_a_tree_is_identical_to_itself():
    proc = parity(ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "10 identical, 0 differing\n"


def test_a_changed_csv_is_named(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "sirham" / "cli.py"
    text = cli.read_text()
    assert text.count('"%.17g"') == 1
    cli.write_text(text.replace('"%.17g"', '"%.16g"'))
    proc = parity(tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    *named, summary = proc.stdout.splitlines()
    # the cases that write a CSV differ there first; the refused ones agree
    assert named and all(line.endswith(": file case.csv") for line in named)
    assert summary == f"{10 - len(named)} identical, {len(named)} differing"
