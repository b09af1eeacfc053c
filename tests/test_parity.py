"""``tools/parity.py`` on a small grid: a tree against itself, against a
copy whose CSV writer rounds one digit sooner, and against a copy whose
manifest digest is one hex digit shorter too."""

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


def changed_copy(tmp_path, *edits):
    """A copy of ``src/`` with each ``(old, new)`` edit made once in ``cli.py``."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "sirham" / "cli.py"
    text = cli.read_text()
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    cli.write_text(text)
    return tmp_path


CSV_FORMAT = ('"%.17g"', '"%.16g"')
DIGEST_LENGTH = ("hexdigest()[:12]", "hexdigest()[:11]")


def test_a_tree_is_identical_to_itself():
    proc = parity(ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "10 identical, 0 differing\n"


def test_a_changed_csv_is_named(tmp_path):
    proc = parity(changed_copy(tmp_path, CSV_FORMAT))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    *named, summary = proc.stdout.splitlines()
    # the cases that write a CSV differ there; the refused ones agree
    assert named and all(line.endswith(": file case.csv") for line in named)
    assert summary == f"{10 - len(named)} identical, {len(named)} differing"


def test_every_differing_file_of_a_case_is_named(tmp_path):
    """A case that writes a CSV and a manifest names both; a run that fails
    in the march writes its manifest only."""
    proc = parity(changed_copy(tmp_path, CSV_FORMAT, DIGEST_LENGTH))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    *named, summary = proc.stdout.splitlines()
    fields = [line.rpartition(": ")[2] for line in named]
    assert "file case.csv, file manifest.tsv" in fields
    assert set(fields) <= {"file case.csv, file manifest.tsv", "file manifest.tsv"}
    assert summary == f"{10 - len(named)} identical, {len(named)} differing"
