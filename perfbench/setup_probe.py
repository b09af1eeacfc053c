"""Set-up probe: a fresh interpreter imports the CLI and loads one scenario.

Usage: python3 setup_probe.py <src dir> <scenario.yaml>

Prints ``ready`` once the scenario is loaded; the parent times the
interval from spawning this process to reading that line.
"""

import sys

sys.path.insert(0, sys.argv[1])

import sirham.cli  # noqa: E402

sirham.cli.load_scenario(sys.argv[2])
print("ready", flush=True)
