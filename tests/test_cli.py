"""Scenario files and the command-line surface.

The exit-code contract is what batch harnesses script against, so most of
these tests run the whole command line, ``sirham.cli.main(argv)``, and read
its exit code, stdout and stderr rather than calling handlers one by one.
They call ``main`` in-process; ``TestUsage`` and the acceptance suite's
``test_10`` spawn ``python -m sirham`` for the entry point itself.
"""

import builtins
import concurrent.futures
import contextlib
import importlib.util
import io
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import sirham.cli as cli_module
import sirham.scenario as scenario_module
from sirham import (
    CompartmentState,
    EpidemicParams,
    MissingDiagnostic,
    ParamSchedule,
    ScenarioError,
    final_size_oracle,
    parse_scenario,
)
from sirham.cli import CSV_HEADER, _parse_grid, trajectory_csv
from sirham.integrators import Formulation, Method, RunSpec, integrate
from sirham.plotting import render_curves
from sirham.scenario import Tolerances, default_scenario_path, load_scenario

ROOT = Path(__file__).resolve().parents[1]

TWO_RUNS = """\
init: {s: 0.99, i: 0.01}
schedule:
  - {t: 0.0, beta: 0.3, gamma: 0.1}
run:
  - {method: rk4, formulation: basic_t, dt: 0.02, t_end: 10.0, label: basic}
  - {method: rk4, formulation: log_t, dt: 0.02, t_end: 10.0, label: log}
"""

ONE_RUN = """\
init: {s: 0.99, i: 0.01}
schedule:
  - {t: 0.0, beta: 0.3, gamma: 0.1}
run:
  - {method: rk4, formulation: basic_t, dt: 0.1, t_end: 5.0, label: base}
"""

LONG_RUN = """\
init: {s: 0.99, i: 0.01}
schedule:
  - {t: 0.0, beta: 0.3, gamma: 0.1}
run:
  - {method: rk4, formulation: basic_t, dt: 0.05, t_end: 400.0,
     sample_stride: 20, label: base}
"""

# beta = 0.3 reaches the S*I singularity before t_end = 3.3; beta = 0.2 does not
SINGULAR_TAU_RUN = """\
init: {s: 0.99, i: 0.01}
schedule:
  - {t: 0.0, beta: 0.3, gamma: 0.1}
run:
  - {method: rk4, formulation: rescaled_tau, dt: 0.01, t_end: 3.3}
"""


# dt = 40 carries explicit Euler to S < 0 at the end of the second segment
LEAVES_THE_SIMPLEX = """\
init: {s: 0.99, i: 0.01}
schedule:
  - {t: 0.0, beta: 0.3, gamma: 0.1}
  - {t: 40.0, beta: 0.6, gamma: 0.1}
run:
  - {method: explicit_euler, formulation: basic_t, dt: 40.0, t_end: 80.0}
tolerances: {h_drift: 1.0}
"""


# log_t, its extended twin in both modes, and log_t again under another label
TWIN_RUNS = """\
init: {s: 0.99, i: 0.01}
schedule:
  - {t: 0.0, beta: 0.3, gamma: 0.1}
run:
  - {method: rk4, formulation: log_t, dt: 0.5, t_end: 60.0, sample_stride: 7}
  - {method: rk4, formulation: extended_4d_log, dt: 0.5, t_end: 60.0, sample_stride: 7}
  - {method: rk4, formulation: extended_4d_log, dt: 0.5, t_end: 60.0, sample_stride: 7,
     extended_mode: reconstruct, label: rebuilt}
  - {method: rk4, formulation: log_t, dt: 0.5, t_end: 60.0, sample_stride: 7, label: again}
"""


# rescaled_tau and its extended twin past the singularity of the time map
# (tau_max = 3.10): the dilation falls under the floor at step 1553
FLOOR_TWINS = """\
init: {s: 0.99, i: 0.01}
schedule:
  - {t: 0.0, beta: 0.3, gamma: 0.1}
run:
  - {method: rk4, formulation: rescaled_tau, dt: 0.002, t_end: 3.2}
  - {method: rk4, formulation: extended_4d_direct, dt: 0.002, t_end: 3.2}
"""


# dt = 5 at gamma = 0.5 carries explicit Euler's I through zero in step 1:
# I becomes -1.5 I0, which the simplex test passes down to -FRACTION_TOL
NEGATIVE_I = """\
init: {{s: 0.99, i: {i0}}}
schedule:
  - {{t: 0.0, beta: 0.3, gamma: 0.5}}
run:
  - {{method: explicit_euler, formulation: basic_t, dt: 5.0, t_end: 10.0, label: base}}
"""


def one_run_scenarios(text):
    """Each run of a scenario text alone, with the scenario's start and
    schedule."""
    doc = yaml.safe_load(text)
    return [yaml.safe_dump({**doc, "run": [run]}) for run in doc["run"]]


def counted_integrate(monkeypatch):
    """Count the calls of ``cli.integrate``, as the traced benchmark pass
    wraps it."""
    calls = []
    real = cli_module.integrate

    def integrate(spec, init, schedule):
        calls.append(spec.name)
        return real(spec, init, schedule)

    monkeypatch.setattr(cli_module, "integrate", integrate)
    return calls


def cli(*args):
    """``sirham *args`` in-process: its exit code, stdout and stderr, with
    argparse's ``SystemExit`` code read as the exit code."""
    argv = [str(arg) for arg in args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_module.main(argv)
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def minimal_doc():
    return {
        "init": {"s": 0.99, "i": 0.01},
        "schedule": [{"t": 0.0, "beta": 0.3, "gamma": 0.1}],
        "run": [
            {"method": "rk4", "formulation": "basic_t", "dt": 0.1, "t_end": 1.0}
        ],
    }


class TestScenarioParsing:
    def test_minimal_document(self):
        scenario = parse_scenario(minimal_doc())
        assert scenario.init.s == 0.99
        assert scenario.schedule.is_constant
        assert scenario.runs[0].name == "basic_t-rk4"
        # untouched tolerances fall back to the shipped defaults
        assert scenario.tolerances.equivalence == 1e-4

    def test_unknown_top_level_key(self):
        doc = minimal_doc()
        doc["runs"] = doc.pop("run")
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario(doc)

    def test_missing_section(self):
        doc = minimal_doc()
        del doc["schedule"]
        with pytest.raises(ScenarioError, match="missing required section"):
            parse_scenario(doc)

    def test_unknown_run_key(self):
        doc = minimal_doc()
        doc["run"][0]["tend"] = 5.0
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario(doc)

    def test_booleans_are_not_numbers(self):
        doc = minimal_doc()
        doc["init"]["i"] = True
        with pytest.raises(ScenarioError, match="must be a number"):
            parse_scenario(doc)

    def test_duplicate_labels(self):
        doc = minimal_doc()
        doc["run"].append(dict(doc["run"][0]))
        with pytest.raises(ScenarioError, match="duplicate run label"):
            parse_scenario(doc)

    def test_rescaled_clock_rejects_schedules(self):
        doc = minimal_doc()
        doc["schedule"].append({"t": 5.0, "beta": 0.2, "gamma": 0.1})
        doc["run"][0]["formulation"] = "rescaled_tau"
        with pytest.raises(ScenarioError, match="rescaled-clock"):
            parse_scenario(doc)

    def test_the_parser_and_the_march_refuse_switches_alike(self, init):
        doc = minimal_doc()
        doc["schedule"].append({"t": 5.0, "beta": 0.2, "gamma": 0.1})
        doc["run"][0]["formulation"] = "single_ode_direct"
        with pytest.raises(ScenarioError) as parsed:
            parse_scenario(doc)
        schedule = ParamSchedule(
            (0.0, 5.0), (EpidemicParams(0.3, 0.1), EpidemicParams(0.2, 0.1))
        )
        spec = RunSpec(**doc["run"][0])
        with pytest.raises(ScenarioError) as marched:
            integrate(spec, init, schedule)
        assert str(parsed.value) == f"run[0] (single_ode_direct-rk4): {marched.value}"
        assert str(marched.value) == (
            "rescaled-clock formulations do not support parameter switches "
            "scheduled in ordinary time"
        )

    def test_partial_tolerance_override(self):
        doc = minimal_doc()
        doc["tolerances"] = {"equivalence": 1e-6}
        scenario = parse_scenario(doc)
        assert scenario.tolerances.equivalence == 1e-6
        assert scenario.tolerances.h_drift == 1e-5

    def test_tolerances_must_be_positive(self):
        doc = minimal_doc()
        doc["tolerances"] = {"population": 0.0}
        with pytest.raises(ScenarioError, match="must be positive"):
            parse_scenario(doc)

    @pytest.mark.parametrize("path", ["yaml", "python"])
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("run", "dt", True),
            ("run", "dt", "0.1"),
            ("run", "sample_stride", 2.7),
            ("run", "newton_max_iter", 1.5),
            ("run", "label", 5),
            ("tolerances", "h_drift", True),
        ],
    )
    def test_parser_and_constructor_refuse_alike(self, path, section, key, value):
        # the parser only maps keys; the value rule lives in the constructor
        doc = minimal_doc()
        if section == "run":
            doc["run"][0][key] = value
            constructor, kwargs = RunSpec, doc["run"][0]
        else:
            doc["tolerances"] = {key: value}
            constructor, kwargs = Tolerances, doc["tolerances"]
        with pytest.raises(ScenarioError, match=f"{key} must be"):
            if path == "yaml":
                parse_scenario(doc)
            else:
                constructor(**kwargs)

    def test_refusals_name_their_section(self):
        doc = minimal_doc()
        doc["schedule"][0]["gamma"] = 0.0
        with pytest.raises(ScenarioError, match=r"^schedule\[0\]: rates must be positive"):
            parse_scenario(doc)
        doc = minimal_doc()
        doc["run"][0]["sample_stride"] = 0
        with pytest.raises(ScenarioError, match=r"^run\[0\]: sample_stride must be >= 1"):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "section, node, match",
        [
            ("init", [0.99, 0.01], r"^init must be a mapping, got list$"),
            ("init", {"s": 0.99}, r"^init is missing required key 'i'$"),
            ("schedule", [], r"^schedule must be a non-empty list$"),
            ("run", {"method": "rk4"}, r"^run must be a non-empty list$"),
        ],
    )
    def test_a_malformed_section_is_refused(self, section, node, match):
        doc = minimal_doc()
        doc[section] = node
        with pytest.raises(ScenarioError, match=match):
            parse_scenario(doc)

    def test_bad_run_values_become_scenario_errors(self):
        doc = minimal_doc()
        doc["run"][0]["dt"] = -0.1
        with pytest.raises(ScenarioError):
            parse_scenario(doc)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "nope.yaml")

    def test_load_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("init: {s: 0.99, i: [unclosed\n")
        with pytest.raises(ScenarioError, match="invalid YAML"):
            load_scenario(path)

    def test_the_loader_parses_as_the_pure_python_safe_loader(self):
        """The shipped scenario and every scenario text of the parity grid
        give the same document under ``load_scenario``'s loader (libyaml's,
        where PyYAML has it) as under ``yaml.SafeLoader``."""
        spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
        parity = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(parity)
        texts = [default_scenario_path().read_text()] + [text for _, text in parity.grid()]
        assert len(texts) == 1153
        if yaml.__with_libyaml__:
            assert scenario_module._LOADER is yaml.CSafeLoader
        for text in texts:
            assert yaml.load(text, Loader=scenario_module._LOADER) == yaml.load(
                text, Loader=yaml.SafeLoader
            )

    def test_invalid_yaml_exits_2_with_its_line_and_column(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("init: {s: 0.99, i: [unclosed\n")
        proc = cli("check", path)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: invalid YAML in {path}: ")
        assert "line 1, column 20" in proc.stderr and "line 2, column 1" in proc.stderr


class TestGridParsing:
    def test_axes_keep_their_order(self):
        axes = _parse_grid("beta=0.3,0.4; dt=0.01")
        assert axes == [("beta", [0.3, 0.4]), ("dt", [0.01])]

    def test_method_axis_resolves_names(self):
        axes = _parse_grid("method=rk4,implicit_midpoint")
        assert axes == [("method", [Method.RK4, Method.IMPLICIT_MIDPOINT])]

    def test_unknown_method(self):
        with pytest.raises(ScenarioError, match="unknown method"):
            _parse_grid("method=magic")

    def test_unknown_key(self):
        with pytest.raises(ScenarioError, match="cannot sweep"):
            _parse_grid("s0=0.5")

    def test_duplicate_axis(self):
        with pytest.raises(ScenarioError, match="given twice"):
            _parse_grid("beta=0.1;beta=0.2")

    def test_bad_numeric_value(self):
        with pytest.raises(ScenarioError, match="bad numeric value"):
            _parse_grid("dt=fast")

    def test_empty_grid(self):
        with pytest.raises(ScenarioError, match="empty sweep grid"):
            _parse_grid("  ")

    @pytest.mark.parametrize(
        "grid, match",
        [
            ("beta", r"^grid axis 'beta' is not of the form key=v1,v2$"),
            ("dt=0.1;beta=, ", r"^grid axis 'beta' has no values$"),
        ],
    )
    def test_a_malformed_axis_is_refused(self, grid, match):
        with pytest.raises(ScenarioError, match=match):
            _parse_grid(grid)


class TestRunCommand:
    def test_writes_csvs_and_manifest(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(TWO_RUNS)
        out = tmp_path / "out"
        proc = cli("run", scenario, "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert (out / "basic.csv").exists()
        assert (out / "log.csv").exists()
        manifest = (out / "manifest.tsv").read_text().splitlines()
        assert len(manifest) == 2
        digests = {}
        for line in manifest:
            name, digest, status, wall = line.split("\t")
            assert status == "ok"
            digests[name] = digest
            float(wall)
        # the digest hashes JSON of the input numbers only, so it is portable
        assert digests == {"basic": "e6c39ea17deb", "log": "810b6137311b"}

    def test_one_trajectory_has_one_digest(self, tmp_path):
        """The shipped scenario and its copy with both extended runs in
        ``reconstruct`` mode march the same trajectories, so every run keeps
        its digest."""
        copy = default_scenario_path().read_text().replace(
            "formulation: extended_4d_", "extended_mode: reconstruct, formulation: extended_4d_"
        )
        path = tmp_path / "reconstruct.yaml"
        path.write_text(copy)
        shipped, rebuilt = load_scenario(default_scenario_path()), load_scenario(path)
        assert [spec.extended_mode for spec in rebuilt.runs].count("reconstruct") == 2
        assert [cli_module._spec_digest(shipped, spec) for spec in shipped.runs] == [
            cli_module._spec_digest(rebuilt, spec) for spec in rebuilt.runs
        ]

    def test_csv_schema_and_population_rows(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(ONE_RUN)
        out = tmp_path / "out"
        assert cli("run", scenario, "--out", out).returncode == 0
        lines = (out / "base.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 52  # header + 51 samples
        previous_t = -1.0
        for line in lines[1:]:
            t, tau, s, i, r, h, drift = map(float, line.split(","))
            assert t > previous_t
            previous_t = t
            assert abs(s + i + r - 1.0) <= 1e-12
        assert float(lines[1].split(",")[6]) == 0.0  # drift starts at zero

    def test_verbose_names_each_written_csv(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(ONE_RUN)
        proc = cli("run", scenario, "--out", tmp_path / "out", "--verbose")
        assert proc.returncode == 0
        assert proc.stderr == "run base: 51 samples -> base.csv\n"

    def test_twins_write_the_bytes_of_their_own_runs(self, tmp_path, monkeypatch):
        """An extended run in either mode and a relabelled duplicate take the
        march of the first log_t run, and each writes the CSV and manifest
        row that it writes alone."""
        calls = counted_integrate(monkeypatch)
        scenario = tmp_path / "twins.yaml"
        scenario.write_text(TWIN_RUNS)
        out = tmp_path / "out"
        proc = cli("run", scenario, "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert calls == ["log_t-rk4"]
        names = ["log_t-rk4", "extended_4d_log-rk4", "rebuilt", "again"]
        rows = (out / "manifest.tsv").read_text().splitlines()
        for k, (name, text) in enumerate(zip(names, one_run_scenarios(TWIN_RUNS))):
            alone = tmp_path / f"{k}.yaml"
            alone.write_text(text)
            assert cli("run", alone, "--out", tmp_path / str(k)).returncode == 0
            csv = f"{name}.csv"
            assert (out / csv).read_bytes() == (tmp_path / str(k) / csv).read_bytes(), name
            (row,) = (tmp_path / str(k) / "manifest.tsv").read_text().splitlines()
            assert rows[k].rpartition("\t")[0] == row.rpartition("\t")[0]
        assert len(calls) == 1 + len(names)

    def test_verbose_names_the_run_whose_march_is_shared(self, tmp_path):
        scenario = tmp_path / "twins.yaml"
        scenario.write_text(TWIN_RUNS)
        proc = cli("run", scenario, "--out", tmp_path / "out", "--verbose")
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [
            "run log_t-rk4: 19 samples -> log_t-rk4.csv",
            "run extended_4d_log-rk4 shares the march of log_t-rk4",
            "run extended_4d_log-rk4: 19 samples -> extended_4d_log-rk4.csv",
            "run rebuilt shares the march of log_t-rk4",
            "run rebuilt: 19 samples -> rebuilt.csv",
            "run again shares the march of log_t-rk4",
            "run again: 19 samples -> again.csv",
        ]

    @pytest.mark.parametrize(
        "setting, digests",
        [
            ("newton_tol: 1.0e-10", ["994e02bfadd2", "45880f1be4ae"]),
            ("newton_max_iter: 20", ["994e02bfadd2", "14a2776af269"]),
        ],
        ids=["newton_tol", "newton_max_iter"],
    )
    @pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
    def test_only_a_method_that_reads_a_newton_setting_marches_for_it(
        self, tmp_path, monkeypatch, setting, digests, method
    ):
        """``rk4`` never runs Newton, so two of its runs that differ only in
        a Newton setting march once and write one CSV twice, each under its
        own digest; ``implicit_midpoint`` reads both settings and marches
        each run."""
        calls = counted_integrate(monkeypatch)
        run = f"method: {method}, formulation: log_t, dt: 0.01, t_end: 10.0"
        scenario = tmp_path / "newton.yaml"
        scenario.write_text(
            "init: {s: 0.99, i: 0.01}\n"
            "schedule:\n  - {t: 0.0, beta: 0.3, gamma: 0.1}\n"
            f"run:\n  - {{{run}, label: a}}\n  - {{{run}, label: b, {setting}}}\n"
        )
        out = tmp_path / "out"
        proc = cli("run", scenario, "--out", out, "--verbose")
        assert proc.returncode == 0, proc.stderr
        shares = "run b shares the march of a" in proc.stderr.splitlines()
        rows = (out / "manifest.tsv").read_text().splitlines()
        if method == "rk4":
            assert calls == ["a"] and shares
            assert (out / "a.csv").read_bytes() == (out / "b.csv").read_bytes()
            assert [row.split("\t")[1] for row in rows] == digests
        else:
            assert calls == ["a", "b"] and not shares

    @pytest.mark.parametrize(
        "text, status",
        [
            (
                TWIN_RUNS.replace("method: rk4", "method: explicit_euler").replace(
                    "dt: 0.5", "dt: 4.0"
                ),
                "InvalidFractions",
            ),
            (FLOOR_TWINS, "StepAcrossSingularity"),
        ],
        ids=["simplex", "floor"],
    )
    def test_a_failed_march_fails_each_twin_as_it_fails_alone(
        self, tmp_path, monkeypatch, text, status
    ):
        """Explicit Euler at dt 4 leaves the simplex at step 1, and RK4 on the
        rescaled clock crosses the dilation floor: the march runs once, and
        each twin reports the failure of its own run alone."""
        calls = counted_integrate(monkeypatch)
        scenario = tmp_path / "twins.yaml"
        scenario.write_text(text)
        out = tmp_path / "out"
        proc = cli("run", scenario, "--out", out)
        assert proc.returncode == 3
        assert len(calls) == 1
        assert list(out.iterdir()) == [out / "manifest.tsv"]
        rows = (out / "manifest.tsv").read_text().splitlines()
        errors = proc.stderr.splitlines()
        assert len(rows) == len(errors) == len(yaml.safe_load(text)["run"])
        for k, text in enumerate(one_run_scenarios(text)):
            alone = tmp_path / f"{k}.yaml"
            alone.write_text(text)
            own = cli("run", alone, "--out", tmp_path / str(k))
            assert own.returncode == 3
            assert errors[k] + "\n" == own.stderr
            (row,) = (tmp_path / str(k) / "manifest.tsv").read_text().splitlines()
            assert rows[k].rpartition("\t")[0] == row.rpartition("\t")[0]
            assert row.split("\t")[2] == status

    def test_reruns_are_bit_identical(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(ONE_RUN)
        assert cli("run", scenario, "--out", tmp_path / "a").returncode == 0
        assert cli("run", scenario, "--out", tmp_path / "b").returncode == 0
        assert (tmp_path / "a" / "base.csv").read_bytes() == (
            tmp_path / "b" / "base.csv"
        ).read_bytes()

    def test_missing_scenario_exits_2(self, tmp_path):
        proc = cli("run", tmp_path / "absent.yaml", "--out", tmp_path / "out")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_bad_scenario_key_exits_2(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(ONE_RUN.replace("t_end", "tend"))
        proc = cli("run", scenario, "--out", tmp_path / "out")
        assert proc.returncode == 2
        assert "unknown key" in proc.stderr

    def test_refused_combination_exits_2(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(ONE_RUN.replace("method: rk4", "method: variational_midpoint"))
        proc = cli("run", scenario, "--out", tmp_path / "out")
        assert proc.returncode == 2
        assert "(rescaled_tau or log_t), not basic_t" in proc.stderr

    def test_a_dt_too_small_to_count_exits_2(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(ONE_RUN.replace("dt: 0.1", "dt: 1.0e-320"))
        out = tmp_path / "out"
        proc = cli("run", scenario, "--out", out)
        assert proc.returncode == 2
        assert "t_end / dt = inf steps; the march counts at most 2**53" in proc.stderr
        assert not (out / "manifest.tsv").exists()

    def test_a_stride_beyond_2_53_exits_2(self, tmp_path):
        """No run has more than 2**53 steps, so no stride need be larger; a
        stride of 2**63 would not index the march's states."""
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(ONE_RUN.replace("label: base", "sample_stride: 9223372036854775808"))
        out = tmp_path / "out"
        proc = cli("run", scenario, "--out", out)
        assert proc.returncode == 2
        assert "run[0]: sample_stride must be at most 2**53, got 9223372036854775808" in proc.stderr
        assert not (out / "manifest.tsv").exists()

    @pytest.mark.parametrize(
        "out, label, message",
        [
            ("taken", "base", "File exists"),
            ("taken/sub", "base", "Not a directory"),
            ("out", "x" * 300, "File name too long"),
        ],
        ids=["out-is-a-file", "out-under-a-file", "label-too-long"],
    )
    def test_an_output_that_cannot_be_written_exits_2(self, tmp_path, out, label, message):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(ONE_RUN.replace("label: base", f"label: {label}"))
        (tmp_path / "taken").write_text("")
        proc = cli("run", scenario, "--out", tmp_path / out)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("label", [r'"two\tcols"', r'"line\nbreak"'], ids=["tab", "newline"])
    def test_a_label_with_a_control_character_exits_2(self, tmp_path, label):
        """A tab or a line break in a label would split its manifest row."""
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(ONE_RUN.replace("label: base", f"label: {label}"))
        out = tmp_path / "out"
        proc = cli("run", scenario, "--out", out)
        assert proc.returncode == 2
        assert "run[0]: label must be printable" in proc.stderr
        assert not (out / "manifest.tsv").exists()

    def test_newton_failure_exits_3_with_its_step(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            ONE_RUN.replace(
                "method: rk4, formulation: basic_t",
                "method: implicit_midpoint, formulation: log_t, newton_max_iter: 1,"
                " newton_tol: 1.0e-300",
            )
        )
        out = tmp_path / "out"
        proc = cli("run", scenario, "--out", out)
        assert proc.returncode == 3
        assert "error: run base: step 1 from clock 0: no convergence" in proc.stderr
        assert (out / "manifest.tsv").read_text().split("\t")[2] == "NewtonDivergence"

    def test_a_domain_failure_exits_3_with_its_step(self, tmp_path):
        # dt = 1 carries S below zero in the fourth step, from tau = 3
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            ONE_RUN.replace(
                "formulation: basic_t, dt: 0.1, t_end: 5.0",
                "formulation: rescaled_tau, dt: 1.0, t_end: 4.0",
            )
        )
        out = tmp_path / "out"
        proc = cli("run", scenario, "--out", out)
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: run base: step 4 from clock 3: "
            "susceptible fraction must be positive, got -0.060000000000000026\n"
        )
        assert not (out / "base.csv").exists()
        assert (out / "manifest.tsv").read_text().split("\t")[2] == "NonPositiveCoordinate"

    def test_labels_sharing_a_csv_name_exit_2_before_any_write(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            TWO_RUNS.replace("label: basic", "label: a b").replace("label: log", "label: a_b")
        )
        out = tmp_path / "out"
        proc = cli("run", scenario, "--out", out)
        assert proc.returncode == 2
        assert proc.stderr == "error: runs 'a b' and 'a_b' would both write a_b.csv\n"
        assert not out.exists()

    def test_a_label_too_long_for_a_file_name_exits_2_before_any_write(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        long_label = "label: " + "x" * 300
        scenario.write_text(
            TWO_RUNS.replace("label: basic", "label: first").replace("label: log", long_label)
        )
        out = tmp_path / "out"
        proc = cli("run", scenario, "--out", out)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: run 'xxx") and proc.stderr.count("\n") == 1
        assert "File name too long" in proc.stderr
        assert list(out.iterdir()) == []

    def test_a_run_leaving_the_simplex_exits_3(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(LEAVES_THE_SIMPLEX)
        out = tmp_path / "out"
        proc = cli("run", scenario, "--out", out)
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: run basic_t-explicit_euler: step 2 at clock 80: "
            "S = -0.985501, I = 1.5903, R = 0.3952 left [0, 1]\n"
        )
        assert not (out / "basic_t-explicit_euler.csv").exists()
        assert (out / "manifest.tsv").read_text().split("\t")[2] == "InvalidFractions"

    @pytest.mark.parametrize("stride", [1, 7])
    def test_a_state_between_samples_leaving_the_simplex_exits_3(self, tmp_path, stride):
        """Every marched state is tested, not only the kept samples: at stride
        7 the run keeps only its start and step 2, and is refused at step 1
        as the stride-1 run is."""
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            "init: {s: 0.99, i: 0.01}\n"
            "schedule:\n"
            "  - {t: 0.0, beta: 0.3, gamma: 0.1}\n"
            "run:\n"
            "  - {method: implicit_midpoint, formulation: basic_t, dt: 40.0, t_end: 80.0,"
            f" sample_stride: {stride}, label: base}}\n"
        )
        out = tmp_path / "out"
        proc = cli("run", scenario, "--out", out)
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: run base: step 1 at clock 40: "
            "S = 1.02962, I = -0.0165384, R = -0.0130768 left [0, 1]\n"
        )
        assert not (out / "base.csv").exists()
        assert (out / "manifest.tsv").read_text().split("\t")[2] == "InvalidFractions"

    def test_a_negative_fraction_within_the_tolerance_is_written(self, tmp_path):
        """The simplex test is absolute: a fraction as low as -FRACTION_TOL
        (1e-12) passes, so from I0 = 1e-15 the run exits 0 with a negative I
        at t = 5, and tau falls over the step after it."""
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(NEGATIVE_I.format(i0="1.0e-15"))
        out = tmp_path / "out"
        proc = cli("run", scenario, "--out", out)
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = (out / "base.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:5] for row in rows] == [
            ["0", "0", "0.98999999999999999", "1.0000000000000001e-15", "0.0099999999999990097"],
            ["5", "2.4378750000000002e-15", "0.98999999999999855", "-1.5000000000000047e-17",
             "0.010000000000001468"],
            ["10", "2.4013068750000001e-15", "0.98999999999999855", "2.2500000000003694e-19",
             "0.010000000000001452"],
        ]

    def test_the_same_sign_flip_beyond_the_tolerance_exits_3(self, tmp_path):
        """The march that writes a negative I from I0 = 1e-15 is refused from
        I0 = 1e-10, where its I of -1.5e-12 lies beyond -FRACTION_TOL."""
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(NEGATIVE_I.format(i0="1.0e-10"))
        out = tmp_path / "out"
        proc = cli("run", scenario, "--out", out)
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: run base: step 1 at clock 5: S = 0.99, I = -1.5e-12, R = 0.01 left [0, 1]\n"
        )
        assert not (out / "base.csv").exists()

    def test_an_overflowing_rate_exits_3_with_its_step(self, tmp_path):
        # at beta = 3, dt = 10 throws ln I so far within step 1 that the
        # exp(ln I) of a later stage overflows; the start is in the simplex
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            "init: {s: 0.99, i: 0.01}\n"
            "schedule:\n"
            "  - {t: 0.0, beta: 3.0, gamma: 0.1}\n"
            "run:\n"
            "  - {method: rk4, formulation: single_ode_log, dt: 10.0, t_end: 80.0}\n"
        )
        out = tmp_path / "out"
        proc = cli("run", scenario, "--out", out)
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: run single_ode_log-rk4: step 1 from clock 0: "
            "a value overflowed (math range error)\n"
        )
        assert not (out / "single_ode_log-rk4.csv").exists()
        assert (out / "manifest.tsv").read_text().split("\t")[2] == "NonFiniteInput"

    def test_singular_clock_exits_3(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            "init: {s: 0.99, i: 0.0}\n"
            "schedule:\n"
            "  - {t: 0.0, beta: 0.3, gamma: 0.1}\n"
            "run:\n"
            "  - {method: rk4, formulation: rescaled_tau, dt: 0.01, t_end: 1.0,"
            " label: stuck}\n"
        )
        out = tmp_path / "out"
        proc = cli("run", scenario, "--out", out)
        assert proc.returncode == 3
        assert "error: run stuck" in proc.stderr
        assert not (out / "stuck.csv").exists()
        manifest = (out / "manifest.tsv").read_text()
        assert "StepAcrossSingularity" in manifest


class TestTrajectoryCsv:
    @pytest.mark.parametrize(
        "formulation, t_end, stride, n_samples",
        [
            (Formulation.EXTENDED_4D_LOG, 10.0, 7, 30),  # 200 steps, final kept
            (Formulation.LOG_T, 0.0, 1, 1),
        ],
    )
    def test_matches_per_cell_formatting(self, formulation, t_end, stride, n_samples):
        spec = RunSpec(
            method=Method.RK4,
            formulation=formulation,
            dt=0.05,
            t_end=t_end,
            sample_stride=stride,
        )
        traj = integrate(
            spec,
            CompartmentState(s=0.99, i=0.01, r=0.0),
            ParamSchedule.constant(EpidemicParams(0.3, 0.1)),
        )
        assert traj.n_samples == n_samples
        # the values whose spelling could differ between format routes
        specials = (math.nan, math.inf, -math.inf, -0.0, 5e-324)
        for column, value in zip((traj.t, traj.tau, traj.s, traj.i, traj.r), specials):
            column[-1] = value
        drift = (traj.h - traj.h[0]) / abs(traj.h[0])
        columns = (traj.t, traj.tau, traj.s, traj.i, traj.r, traj.h, drift)
        expected = [CSV_HEADER] + [
            ",".join(f"{column[k]:.17g}" for column in columns)
            for k in range(n_samples)
        ]
        assert trajectory_csv(traj) == "\n".join(expected) + "\n"


class TestCheckCommand:
    def test_consistent_scenario_passes(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(TWO_RUNS)
        proc = cli("check", scenario)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all checks passed" in proc.stdout
        assert "FAIL" not in proc.stdout
        # two conservation lines per run plus the cross-run agreement line
        assert sum("PASS" in line for line in proc.stdout.splitlines()) == 5

    def test_an_extended_run_is_graded_on_its_constraint(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(TWO_RUNS.replace("log_t, dt", "extended_4d_log, dt"))
        proc = cli("check", scenario)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        (line,) = [x for x in lines if x.startswith("constraint ")]
        assert line.split()[:3] == ["constraint", "log", "0.00000e+00"]
        assert line.endswith("PASS")
        # the two runs' conservation lines, the constraint and the agreement
        assert sum(x.endswith("PASS") for x in lines) == 6
        assert lines[-1] == "all checks passed"

    def test_the_shipped_scenario_marches_five_times(self, monkeypatch):
        """Each extended run takes the march of its chart's canonical run."""
        calls = counted_integrate(monkeypatch)
        proc = cli("check")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert calls == [
            "basic_t-rk4",
            "log_t-rk4",
            "single_ode_log-rk4",
            "rescaled_tau-rk4",
            "single_ode_direct-rk4",
        ]
        assert proc.stdout.count("PASS") == 17

    def test_unreachable_tolerance_fails_with_1(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(TWO_RUNS + "tolerances: {equivalence: 1.0e-16}\n")
        proc = cli("check", scenario)
        assert proc.returncode == 1
        assert "CHECK FAILED" in proc.stdout
        assert "FAIL" in proc.stdout

    def test_missing_scenario_exits_2(self, tmp_path):
        assert cli("check", tmp_path / "absent.yaml").returncode == 2

    def test_a_nan_segment_fails(self, tmp_path):
        # dt = 40 throws explicit Euler out of the simplex in the second
        # segment, whose energy would be NaN: the march refuses the run
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(LEAVES_THE_SIMPLEX)
        proc = cli("check", scenario)
        assert proc.returncode == 3
        assert proc.stderr == (
            "numerical failure: InvalidFractions: step 2 at clock 80: "
            "S = -0.985501, I = 1.5903, R = 0.3952 left [0, 1]\n"
        )
        assert proc.stdout == ""

    def test_a_nan_drift_fails(self, tmp_path, monkeypatch, capsys):
        # a graded NaN that is not first in its list still reads FAIL
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(ONE_RUN)
        real_report = cli_module.conservation_report

        def nan_second_segment(traj):
            report = real_report(traj)
            return replace(report, per_segment_rel_h_drift=(0.0, math.nan))

        monkeypatch.setattr(cli_module, "conservation_report", nan_second_segment)
        assert cli_module.main(["check", str(scenario)]) == 1
        out = capsys.readouterr().out
        (line,) = [x for x in out.splitlines() if x.startswith("h_drift")]
        assert line.split()[2] == "nan"
        assert line.endswith("FAIL")
        assert "CHECK FAILED" in out


class TestSweepCommand:
    def test_grid_product_and_summary(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(ONE_RUN)
        out = tmp_path / "sweep"
        proc = cli(
            "sweep", scenario, "--grid", "beta=0.25,0.3;dt=0.1,0.05", "--out", out
        )
        assert proc.returncode == 0, proc.stderr
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == (
            "point,label,beta,gamma,dt,method,formulation,status,"
            "final_S,final_I,peak_I,max_rel_h_drift"
        )
        assert len(lines) == 5
        for k in range(4):
            assert (out / f"point{k:04d}.csv").exists()
        cells = [line.split(",") for line in lines[1:]]
        assert [c[2] for c in cells] == ["0.25", "0.25", "0.3", "0.3"]
        assert [c[4] for c in cells] == ["0.1", "0.05", "0.1", "0.05"]
        assert all(c[7] == "ok" for c in cells)

    def test_final_sizes_match_the_level_set_oracle(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(LONG_RUN)
        out = tmp_path / "sweep"
        proc = cli("sweep", scenario, "--grid", "beta=0.15,0.2,0.3", "--out", out)
        assert proc.returncode == 0, proc.stderr
        lines = (out / "summary.csv").read_text().splitlines()[1:]
        assert len(lines) == 3
        for line in lines:
            cells = line.split(",")
            beta, final_s = float(cells[2]), float(cells[8])
            expected = final_size_oracle(EpidemicParams(beta, 0.1), 0.99, 0.01)
            assert final_s == pytest.approx(expected, abs=1e-3)

    def test_verbose_names_the_run_a_two_run_scenario_sweeps(self, tmp_path):
        """A sweep repeats the first run only, and ``--verbose`` says so."""
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(TWO_RUNS)
        out = tmp_path / "sweep"
        proc = cli("sweep", scenario, "--grid", "beta=0.25", "--out", out, "--verbose")
        assert proc.returncode == 0, proc.stderr
        assert "sweep uses the first run (basic) as template\n" in proc.stderr
        assert (out / "summary.csv").read_text().splitlines()[1].split(",")[6] == "basic_t"

    def test_an_out_that_is_a_file_exits_2(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(ONE_RUN)
        taken = tmp_path / "taken"
        taken.write_text("")
        proc = cli("sweep", scenario, "--grid", "beta=0.25,0.3", "--out", taken)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "File exists" in proc.stderr
        assert proc.stderr.count("\n") == 1

    def test_bad_grid_key_exits_2(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(ONE_RUN)
        proc = cli("sweep", scenario, "--grid", "s0=0.5", "--out", tmp_path / "x")
        assert proc.returncode == 2
        assert "cannot sweep" in proc.stderr

    def test_empty_grid_exits_2(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(ONE_RUN)
        proc = cli("sweep", scenario, "--grid", " ", "--out", tmp_path / "x")
        assert proc.returncode == 2

    def test_parameter_sweep_needs_constant_schedule(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            "init: {s: 0.99, i: 0.01}\n"
            "schedule:\n"
            "  - {t: 0.0, beta: 0.3, gamma: 0.1}\n"
            "  - {t: 5.0, beta: 0.2, gamma: 0.1}\n"
            "run:\n"
            "  - {method: rk4, formulation: basic_t, dt: 0.1, t_end: 10.0}\n"
        )
        proc = cli("sweep", scenario, "--grid", "beta=0.2,0.3", "--out", tmp_path / "x")
        assert proc.returncode == 2
        assert "constant schedule" in proc.stderr

    def test_a_sweep_over_dt_needs_a_constant_schedule_too(self, tmp_path):
        """Each grid point integrates under constant rates, so a switch in
        the scenario would be dropped without a word."""
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            "init: {s: 0.99, i: 0.01}\n"
            "schedule:\n"
            "  - {t: 0.0, beta: 0.3, gamma: 0.1}\n"
            "  - {t: 30.0, beta: 0.15, gamma: 0.1}\n"
            "run:\n"
            "  - {method: rk4, formulation: basic_t, dt: 0.1, t_end: 100.0}\n"
        )
        out = tmp_path / "x"
        proc = cli("sweep", scenario, "--grid", "dt=0.1", "--out", out)
        assert proc.returncode == 2
        assert proc.stderr == "error: parameter sweeps need a constant schedule\n"
        assert not out.exists()

    def test_all_points_failing_exits_3(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            "init: {s: 0.99, i: 0.01}\n"
            "schedule:\n"
            "  - {t: 0.0, beta: 0.3, gamma: 0.1}\n"
            "run:\n"
            "  - {method: rk4, formulation: rescaled_tau, dt: 0.01, t_end: 3.4}\n"
        )
        out = tmp_path / "sweep"
        proc = cli("sweep", scenario, "--grid", "dt=0.01", "--out", out)
        assert proc.returncode == 3
        assert "StepAcrossSingularity" in proc.stderr
        summary = (out / "summary.csv").read_text()
        assert "StepAcrossSingularity" in summary

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("grid", ["beta=0.3,0", "beta=0.3,nan", "dt=0.1,-1", "dt=0.1,inf"])
    def test_bad_grid_value_exits_2_before_any_write(self, tmp_path, grid, jobs):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(ONE_RUN)
        out = tmp_path / "sweep"
        proc = cli("sweep", scenario, "--grid", grid, "--out", out, "--jobs", jobs)
        assert proc.returncode == 2, proc.stderr
        assert "error: grid point 1:" in proc.stderr
        assert not list(out.glob("**/*"))

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_exits_2(self, tmp_path, jobs):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(ONE_RUN)
        out = tmp_path / "sweep"
        proc = cli("sweep", scenario, "--grid", "beta=0.3", "--out", out, "--jobs", jobs)
        assert proc.returncode == 2
        assert "--jobs" in proc.stderr
        assert not list(out.glob("**/*"))

    @pytest.mark.parametrize(
        "text, grid, statuses",
        [
            (ONE_RUN, "beta=0.25,0.3", ["ok", "ok"]),
            (SINGULAR_TAU_RUN, "beta=0.2,0.3", ["ok", "StepAcrossSingularity"]),
        ],
        ids=["all_ok", "one_failing"],
    )
    def test_parallel_workers_agree_with_serial(self, tmp_path, text, grid, statuses):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(text)
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        first = cli("sweep", scenario, "--grid", grid, "--out", serial)
        assert first.returncode == 0, first.stderr
        proc = cli("sweep", scenario, "--grid", grid, "--out", parallel, "--jobs", 2)
        assert proc.returncode == 0, proc.stderr
        summary = (serial / "summary.csv").read_text()
        assert summary == (parallel / "summary.csv").read_text()
        assert proc.stderr == first.stderr
        assert [line.split(",")[7] for line in summary.splitlines()[1:]] == statuses

    @pytest.mark.parametrize("grid, workers", [("beta=0.3", 1), ("beta=0.25,0.3", 2)])
    def test_pool_has_no_more_workers_than_points(self, tmp_path, monkeypatch, grid, workers):
        sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(ONE_RUN)
        out = tmp_path / "sweep"
        argv = ["sweep", str(scenario), "--grid", grid, "--out", str(out), "--jobs", "3"]
        assert cli_module.main(argv) == 0
        assert sizes == [workers]
        assert len((out / "summary.csv").read_text().splitlines()) == workers + 1


class TestPlotCommand:
    @pytest.fixture()
    def run_csv(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(ONE_RUN)
        out = tmp_path / "out"
        assert cli("run", scenario, "--out", out).returncode == 0
        return out / "base.csv"

    def test_renders_valid_svg(self, run_csv, tmp_path):
        target = tmp_path / "curves.svg"
        proc = cli("plot", run_csv, "--out", target)
        assert proc.returncode == 0, proc.stderr
        root = ET.fromstring(target.read_text())
        assert root.tag.endswith("svg")
        assert "polyline" in target.read_text()

    def test_energy_panel_can_be_dropped(self, run_csv, tmp_path):
        with_panel = tmp_path / "with.svg"
        without_panel = tmp_path / "without.svg"
        assert cli("plot", run_csv, "--out", with_panel).returncode == 0
        assert (
            cli("plot", run_csv, "--out", without_panel, "--no-energy").returncode == 0
        )
        assert "#aa3377" in with_panel.read_text()
        assert "#aa3377" not in without_panel.read_text()

    def test_the_drift_label_reads_the_csv_column(self, tmp_path):
        """The panel's ``max`` is the largest |H_rel_drift| of the CSV, on a
        run whose drift, near 1.5e-12, ``H / H[0] - 1`` would lose in its
        sixth digit."""
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            ONE_RUN.replace("basic_t, dt: 0.1, t_end: 5.0", "log_t, dt: 0.05, t_end: 100.0")
        )
        out = tmp_path / "out"
        assert cli("run", scenario, "--out", out).returncode == 0
        target = tmp_path / "drift.svg"
        assert cli("plot", out / "base.csv", "--out", target).returncode == 0
        drift = np.loadtxt(out / "base.csv", delimiter=",", skiprows=1, usecols=6)
        assert 1e-12 < np.max(np.abs(drift)) < 2e-12
        want = f"relative energy drift (max {np.max(np.abs(drift)):.6g})"
        assert want in target.read_text()

    def test_single_sample_becomes_markers(self, run_csv, tmp_path):
        lines = run_csv.read_text().splitlines()
        short = tmp_path / "short.csv"
        short.write_text("\n".join(lines[:2]) + "\n")
        target = tmp_path / "short.svg"
        proc = cli("plot", short, "--out", target)
        assert proc.returncode == 0, proc.stderr
        assert "<circle" in target.read_text()

    def test_nothing_to_render_is_refused(self):
        empty = np.zeros(0)
        with pytest.raises(MissingDiagnostic, match=r"^nothing to plot: no samples$"):
            render_curves(empty, empty, empty, empty)

    def test_header_only_exits_2(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text(CSV_HEADER + "\n")
        proc = cli("plot", csv, "--out", tmp_path / "x.svg")
        assert proc.returncode == 2
        assert "no data rows" in proc.stderr

    def test_foreign_header_exits_2(self, tmp_path):
        csv = tmp_path / "foreign.csv"
        csv.write_text("time,S,I\n0,0.99,0.01\n")
        assert cli("plot", csv, "--out", tmp_path / "x.svg").returncode == 2

    def test_malformed_row_exits_2(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text(CSV_HEADER + "\n1,2,three,4,5,6,7\n")
        assert cli("plot", csv, "--out", tmp_path / "x.svg").returncode == 2

    @pytest.mark.parametrize(
        "data, first",
        [
            # a drift column of nan and inf would draw nan and -inf points
            (["0,0,0.99,0.01,0,0.3,nan", "1,1,0.9,0.1,0,0.3,inf", "2,2,0.8,0.2,0,0.3,inf"], 0),
            (["0,0,0.99,0.01,0,0.3,0", "1,1,nan,0.1,0,0.3,0"], 1),
        ],
        ids=["drift", "fraction"],
    )
    def test_a_cell_that_is_not_finite_exits_2(self, tmp_path, data, first):
        csv = tmp_path / "nan.csv"
        csv.write_text("\n".join([CSV_HEADER, *data]) + "\n")
        target = tmp_path / "x.svg"
        proc = cli("plot", csv, "--out", target)
        assert proc.returncode == 2
        assert f"malformed CSV row in {csv}: a cell is not finite: {data[first]}" in proc.stderr
        assert not target.exists()

    def test_wrong_column_count_exits_2(self, tmp_path):
        csv = tmp_path / "narrow.csv"
        csv.write_text(CSV_HEADER + "\n0,0,0.99,0.01,0.0,0.3\n")
        assert cli("plot", csv, "--out", tmp_path / "x.svg").returncode == 2

    def test_an_out_under_a_file_exits_2(self, run_csv, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        proc = cli("plot", run_csv, "--out", taken / "x.svg")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "Not a directory" in proc.stderr
        assert proc.stderr.count("\n") == 1

    def test_missing_file_exits_2(self, tmp_path):
        assert (
            cli("plot", tmp_path / "ghost.csv", "--out", tmp_path / "x.svg").returncode
            == 2
        )


class TestUsage:
    def test_no_arguments_is_a_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sirham"], capture_output=True, text=True
        )
        assert proc.returncode == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        assert cli("dance").returncode == 2


# ``sirham.cli`` as a fresh process runs it: each command in turn, and the
# hashing modules it has loaded after each
FOOTPRINT = """\
import sys
from pathlib import Path

from sirham.cli import main

tmp = Path(sys.argv[1])
for argv in (
    ["check", tmp / "one.yaml"],
    ["sweep", tmp / "one.yaml", "--grid", "beta=0.3", "--out", tmp / "sweep", "--jobs", "1"],
    ["plot", tmp / "sweep" / "point0000.csv", "--out", tmp / "point.svg"],
    ["run", tmp / "one.yaml", "--out", tmp / "run"],
):
    assert main([str(arg) for arg in argv]) == 0, argv
    print("loaded after", argv[0], sorted({"hashlib", "_hashlib"} & set(sys.modules)))
"""

# ``run`` in a fresh process where neither built-in SHA-256 module imports,
# as on a build that strips them, and the hashing modules it has loaded then
NO_BUILTIN_SHA256 = """\
import sys

sys.modules["_sha2"] = sys.modules["_sha256"] = None
from sirham.cli import main

assert main(["run", sys.argv[1], "--out", sys.argv[2]]) == 0
print("loaded after run", sorted({"hashlib", "_hashlib"} & set(sys.modules)))
"""


def fresh_interpreter(script, *args):
    """``script`` run by a child interpreter that imports this tree's
    ``sirham``: the test process has loaded ``hashlib`` already."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return [line for line in proc.stdout.splitlines() if line.startswith("loaded after ")]


class TestFootprint:
    def test_no_command_maps_openssl(self, tmp_path):
        """No command loads ``hashlib``, which maps OpenSSL's libcrypto:
        ``run`` digests its manifest with the interpreter's own SHA-256."""
        (tmp_path / "one.yaml").write_text(ONE_RUN)
        assert fresh_interpreter(FOOTPRINT, tmp_path) == [
            f"loaded after {command} []" for command in ("check", "sweep", "plot", "run")
        ]

    def test_a_build_without_the_builtin_sha256_digests_by_hashlib(self, tmp_path):
        """Where neither ``_sha2`` nor ``_sha256`` imports, the manifest takes
        the same digests from ``hashlib``."""
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(TWO_RUNS)
        out = tmp_path / "out"
        loaded = fresh_interpreter(NO_BUILTIN_SHA256, scenario, out)
        assert loaded == ["loaded after run ['_hashlib', 'hashlib']"]
        manifest = [line.split("\t") for line in (out / "manifest.tsv").read_text().splitlines()]
        assert {name: digest for name, digest, *_ in manifest} == {
            "basic": "e6c39ea17deb", "log": "810b6137311b"
        }

    def test_a_second_digest_attempts_no_import(self, monkeypatch):
        """The SHA-256 constructor is looked up once per process: an import
        that failed, as ``_sha2`` fails on 3.10 and 3.11, is not cached, and
        would search ``sys.path`` again on each run."""
        scenario = parse_scenario(yaml.safe_load(TWO_RUNS))
        first = [cli_module._spec_digest(scenario, spec) for spec in scenario.runs]
        attempted = []

        def spy(name, *args, **kwargs):
            attempted.append(name)
            return real_import(name, *args, **kwargs)

        real_import = builtins.__import__
        monkeypatch.setattr(builtins, "__import__", spy)
        again = [cli_module._spec_digest(scenario, spec) for spec in scenario.runs]
        monkeypatch.undo()
        assert attempted == []
        assert first == again == ["e6c39ea17deb", "810b6137311b"]


class TestParserReuse:
    def test_each_call_of_main_answers_as_a_fresh_process(self, tmp_path):
        """``main`` builds its parser once per process; a check, a refused
        sweep, a run and a verbose check, in turn in this process, exit and
        print as each does in a process of its own."""
        scenario = tmp_path / "one.yaml"
        scenario.write_text(ONE_RUN)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        calls = [
            ["check", scenario],
            ["sweep", scenario, "--grid", "beta=0.3", "--out", tmp_path / "sweep", "--jobs", "0"],
            ["run", scenario, "--out", tmp_path / "run"],
            ["check", scenario, "--verbose"],
        ]
        codes = []
        for argv in ([str(arg) for arg in call] for call in calls):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_module.main(argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "sirham", *argv],
                capture_output=True, text=True, env=env, check=False,
            )
            assert (code, out.getvalue(), err.getvalue()) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv
            codes.append(code)
        assert codes == [0, 2, 0, 0]
        assert cli_module._build_parser() is cli_module._build_parser()
