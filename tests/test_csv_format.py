"""The run CSV writer against Python's own ``%.17g``, cell by cell.

``trajectory_csv`` spells every cell with numpy (``sirham.csvformat``);
each case here builds a trajectory from a table and expects exactly the
per-cell ``"%.17g"`` join of the columns the writer serialises.  Three
cases run a child interpreter with numpy's AVX-512 loops switched off: the
writer's bytes do not depend on them, a run's CSVs differ only in the
columns README §Run CSVs names, and the shipped scenario's direct-chart
columns keep their committed digests.  The writer reuses its work arrays
from call to call; three cases check that nothing leaks from one table
into the next, that threads take turns, and that a warm call allocates
little more than its text.
"""

import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from sirham import EpidemicParams, ParamSchedule
from sirham.cli import CSV_HEADER, main, trajectory_csv
from sirham.csvformat import _SLOT, BLOCK, CHUNK, format_table
from sirham.diagnostics import _relative_drift
from sirham.integrators import Formulation, Trajectory
from sirham.scenario import default_scenario_path

ROOT = Path(__file__).resolve().parents[1]
SCHEDULE = ParamSchedule.constant(EpidemicParams(beta=0.3, gamma=0.1))
#: switches numpy's AVX-512 loops off, whose exp and log round unlike libm's
NO_AVX512 = (
    "X86_V4 AVX512_ICL AVX512_SPR AVX512F AVX512CD AVX512_SKX AVX512_CLX "
    "AVX512_CNL AVX512BW AVX512DQ AVX512VL"
)


def spelled(table: np.ndarray) -> str:
    """``table`` joined cell by cell with Python's own ``%.17g``."""
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in table.tolist())


def trajectory(columns) -> Trajectory:
    """A trajectory whose t, tau, S, I, R and H are the six ``columns``."""
    t, tau, s, i, r, h = np.asarray(columns, dtype=float).reshape(-1, 6).T
    return Trajectory(Formulation.BASIC_T, t, tau, s, i, r, h, np.zeros((len(t), 2)), SCHEDULE)


def expected(traj: Trajectory) -> str:
    with np.errstate(all="ignore"):
        drift = _relative_drift(traj.h)
    rows = zip(traj.t, traj.tau, traj.s, traj.i, traj.r, traj.h, drift)
    return CSV_HEADER + "\n" + "".join(",".join("%.17g" % x for x in row) + "\n" for row in rows)


def check(values) -> None:
    """``values``, padded with 0.5 to whole rows, spelled as ``%.17g``."""
    values = list(values)
    values += [0.5] * (-len(values) % 6)
    traj = trajectory(values)
    with np.errstate(all="ignore"):
        assert trajectory_csv(traj) == expected(traj)


def neighbours(x: float, reach: int = 2) -> list[float]:
    """``x`` and the doubles up to ``reach`` ulps either side of it."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(reach):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def without_avx512(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a child with numpy's AVX-512 loops switched off."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=False
    )


@settings(max_examples=60, derandomize=True, deadline=None, phases=[Phase.generate])
@given(st.lists(st.tuples(*[st.floats()] * 6), min_size=1, max_size=40))
def test_drawn_floats_are_spelled_as_percent_17g(rows):
    """Drawn floats include nan, ±inf, -0.0 and subnormals."""
    check(x for row in rows for x in row)


def test_random_bit_patterns_are_spelled_as_percent_17g():
    bits = np.random.default_rng(20260101).integers(0, 2**64, 200_000, dtype=np.uint64)
    check(bits.view(np.float64).tolist())


def test_powers_of_ten_and_their_neighbours_are_spelled_as_percent_17g():
    """Each power of ten, where the decimal exponent changes, ±1 and ±2 ulp;
    just below a power of ten, the double-double sits on 10**16 with a
    negative low part."""
    cells = [s * y for e in range(-308, 18) for y in neighbours(float(f"1e{e}")) for s in (1, -1)]
    assert "%.17g" % 9.9999999999999991e-05 == "9.9999999999999991e-05"
    check(cells + [9.9999999999999991e-05])


def test_exact_halves_round_half_to_even():
    """Cells whose 18th significant digit is an exact 5 and nothing follows:
    ``k / 2**(q + 1)`` with k odd is ``k 5**q / 2`` at 17 digits."""
    halves = [2191075020463384.75, 1234567890123456.25]
    for q in range(1, 25):
        lo, hi = math.ceil(2e16 / 5**q), min(math.floor(2e17 / 5**q), 2**53)
        for k in {lo | 1, (lo + hi) // 2 | 1, (hi - 2) | 1}:
            if lo <= k < hi:
                halves.append(math.ldexp(k, -(q + 1)))
    assert "%.17g" % 2191075020463384.75 == "2191075020463384.8"
    assert "%.17g" % 1234567890123456.25 == "1234567890123456.2"
    check(halves + [-x for x in halves])


def test_the_switch_to_exponent_form_at_1e_minus_4():
    cells = neighbours(1e-4, 4) + neighbours(1.2345e-4) + neighbours(9.87e-5) + [1e-5, 0.0001234]
    check(cells + [-x for x in cells])


def test_a_table_one_row_past_a_block_is_spelled_as_percent_17g():
    rows = BLOCK // 7 + 1
    t = np.arange(rows) * 0.1
    columns = np.column_stack([t, t / 3, np.exp(-t), 1 / (t + 7), t * 1e-20, np.cos(t)])
    columns[-1] = [0.0, -0.0, np.nan, 1e300, 5e-324, 1.0]
    check(columns.ravel().tolist())


CHILD = """\
import sys
import numpy as np
from sirham.csvformat import format_table
sys.stdout.write(format_table(np.load(sys.argv[1])))
"""


def test_the_bytes_do_not_depend_on_numpy_simd_level(tmp_path):
    """A child interpreter with numpy's AVX-512 loops switched off spells a
    fixed table as this process does.  On a host without AVX-512 both run
    the same loops, and the case is vacuous."""
    bits = np.random.default_rng(11).integers(0, 2**64, 7 * 2000, dtype=np.uint64)
    powers = [y for e in range(-300, 17) for y in neighbours(float(f"1e{e}"))]
    table = np.concatenate([bits.view(np.float64), powers, [0.5] * (-len(powers) % 7)])
    table = table.reshape(-1, 7)
    np.save(tmp_path / "table.npy", table)
    proc = without_avx512("-c", CHILD, str(tmp_path / "table.npy"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == format_table(table)


# the shipped scenario's RK4 settings on the two log charts
LOG_CHARTS = """\
init: {s: 0.99, i: 0.01}
schedule:
  - {t: 0.0, beta: 0.3, gamma: 0.1}
run:
  - {formulation: log_t, method: rk4, dt: 0.001, t_end: 100.0, sample_stride: 100}
  - {formulation: single_ode_log, method: rk4, dt: 0.001, t_end: 100.0, sample_stride: 100}
"""


def test_across_simd_levels_a_run_differs_only_in_its_computed_columns(tmp_path):
    """README §Run CSVs: the log charts take their fractions by ``np.exp``
    and every chart its H by ``np.log``, whose AVX-512 loops round unlike
    libm's.  A child with those loops switched off writes the same rows,
    ``t`` and ``tau`` as this process; only S, I, R, H and H_rel_drift may
    differ.  On a host without AVX-512 both run the same loops, and the
    case is vacuous."""
    scenario = tmp_path / "log.yaml"
    scenario.write_text(LOG_CHARTS)
    assert main(["run", str(scenario), "--out", str(tmp_path / "here")]) == 0
    proc = without_avx512("-m", "sirham", "run", str(scenario), "--out", str(tmp_path / "child"))
    assert proc.returncode == 0, proc.stderr
    for name in ("log_t-rk4.csv", "single_ode_log-rk4.csv"):
        here, child = (
            np.array([line.split(",") for line in (tmp_path / d / name).read_text().splitlines()])
            for d in ("here", "child")
        )
        assert here.shape == child.shape
        differs = here[0, (here != child).any(axis=0)]
        assert set(differs) <= {"S", "I", "R", "H", "H_rel_drift"}


def test_a_table_spelled_after_another_shows_nothing_of_it():
    """The passes reuse one set of work arrays and slots.  A table of
    several passes, rich in signs, exponents and 17-digit cells, is
    followed by short-spelled tables (0.5, 2, 100, 0.25, 3e-05) of other
    shapes: a byte left from the earlier table would show in them.  The
    tables end just before, at and just past a pass's end (``BLOCK`` - 1,
    ``BLOCK`` and ``BLOCK`` + 1 cells at width 1), in widths 1, 7 and 12,
    none of which but 1 divides ``BLOCK``, so rows straddle passes."""
    rng = np.random.default_rng(36)

    def mixed(cells):
        x = rng.choice([-1.0, 1.0], cells) * 10.0 ** rng.uniform(-300.0, 15.9, cells)
        x[::89] = 0.0  # the fallback spells these
        return x

    short = np.resize([0.5, 2.0, 100.0, 0.25, 3e-05], 64)
    tables = [mixed(7 * (3 * BLOCK // 7 + 5)).reshape(-1, 7), short.reshape(-1, 8)]
    for width in (1, 7, 12):
        for rows in sorted({(BLOCK + d) // width for d in (-width, -1, 0, 1, width)}):
            cells = rows * width
            tables.append(mixed(cells).reshape(rows, width))
            tables.append(np.resize(short, cells).reshape(rows, width))
    for table in tables:
        assert format_table(table) == spelled(table), table.shape


def test_threads_spelling_at_once_each_get_their_own_text():
    """numpy releases the interpreter lock inside its loops, so two threads
    in one pass would write over each other's work arrays; passes take
    turns.  Six threads, more than the cores of a CI runner, each spell a
    table of two passes of their own ten times, with the switch interval
    shortened.  A thread that raises leaves its texts missing."""
    rng = np.random.default_rng(7)
    tables = [rng.standard_normal((BLOCK // 7 + 50, 7)) * 10.0 ** k for k in range(-3, 3)]
    texts = {k: [spelled(table)] * 10 for k, table in enumerate(tables)}
    got = {}

    def spell(k):
        got[k] = [format_table(tables[k]) for _ in range(10)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=spell, args=(k,)) for k in range(len(tables))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == texts


def test_a_warm_call_allocates_little_more_than_its_text():
    """A 501 x 7 table, as ``sweep`` writes, in one pass.  Fixed from the
    layout before measuring: every array of the pass is kept for the
    process, so what a warm call allocates is its text, at most 25 bytes a
    cell (``-2.2250738585072014e-308`` and its separator), held twice while
    the chunks' strings are joined, or once beside one chunk of slot bytes
    copied for ``translate`` and ``translate``'s output of that length,
    and 8 kB of views and small objects."""
    t = np.linspace(0.0, 100.0, 501)
    table = np.column_stack(
        [t, t / 3, np.exp(-t / 9), 1e-3 * np.exp(-t / 30), -np.log1p(t), t * 1e-15, np.cos(t)]
    )
    format_table(table)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    text = format_table(table)
    peak = tracemalloc.get_traced_memory()[1] - before
    if not tracing:
        tracemalloc.stop()
    assert text == spelled(table)
    cells = table.size
    assert peak <= max(2 * 25 * cells, 25 * cells + 2 * _SLOT * CHUNK) + 8192


#: SHA-256 of the t, tau, S, I and R columns, header included, of each
#: direct-chart CSV that ``run`` writes for the shipped scenario
DIRECT_CHART_DIGESTS = {
    "basic_t-rk4.csv": "c51efe9597b605ffc1dc5f616dc91b9e8e25e9897f4fde2c8f44db6ff5e46f88",
    "rescaled_tau-rk4.csv": "bca71c3833692b6c542decd2a183ac5737fa55e4289621564bf062e128ce2556",
    "single_ode_direct-rk4.csv": "5f86add20767125ec9ab2508b745e0e9838ca09b2187f1ea5c735f908a808d46",
    "extended_4d_direct-rk4.csv": "bca71c3833692b6c542decd2a183ac5737fa55e4289621564bf062e128ce2556",
}


def direct_chart_digests(out: Path) -> dict[str, str]:
    digests = {}
    for name in DIRECT_CHART_DIGESTS:
        lines = (out / name).read_text().splitlines()
        columns = "".join(",".join(line.split(",")[:5]) + "\n" for line in lines)
        digests[name] = hashlib.sha256(columns.encode()).hexdigest()
    return digests


def test_the_shipped_direct_charts_keep_their_digests(tmp_path):
    """The direct charts' t, tau, S, I and R columns come from +, -, * and /
    only, so they hold bit for bit across interpreters, numpy releases and
    SIMD levels; the digests pin them against history, not only against
    the parent tree.  A child with numpy's AVX-512 loops switched off
    writes the same columns.  On a host without AVX-512 that half is
    vacuous."""
    scenario = str(default_scenario_path())
    assert main(["run", scenario, "--out", str(tmp_path / "here")]) == 0
    assert direct_chart_digests(tmp_path / "here") == DIRECT_CHART_DIGESTS
    proc = without_avx512("-m", "sirham", "run", scenario, "--out", str(tmp_path / "child"))
    assert proc.returncode == 0, proc.stderr
    assert direct_chart_digests(tmp_path / "child") == DIRECT_CHART_DIGESTS
