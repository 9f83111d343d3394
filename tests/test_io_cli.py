"""Field dumps, CSV schema, and the command-line surface."""

import contextlib
import io
import json
import struct
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mchb.diagnostics import CSV_HEADER
from mchb.io_formats import (MAGIC, read_csv_report, read_field_dump,
                             write_field_dump)
from mchb.parameters import (ConfigError, ModelParameters, ScenarioConfig,
                             build_default_scenario, load_config,
                             serialize_config)
import mchb.cli
import mchb.stepping
from mchb.cli import main
from mchb.flow import FlowSolverError
from mchb.stepping import TimeStepper


def run_cli(args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "mchb", *args],
                          capture_output=True, text=True, env=full_env)


class TestFieldDumps:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((4, 12, 17))
        path = tmp_path / "f.bin"
        write_field_dump(path, arr)
        back = read_field_dump(path)
        assert back.shape == (4, 12, 17)
        assert np.array_equal(back, arr)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "f.bin"
        write_field_dump(path, np.zeros((2, 3, 5)))
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        assert int.from_bytes(raw[4:8], "little") == 1   # version
        assert int.from_bytes(raw[8:12], "little") == 5  # nx
        assert int.from_bytes(raw[12:16], "little") == 3  # ny
        assert int.from_bytes(raw[16:20], "little") == 2  # components
        assert len(raw) == 32 + 2 * 3 * 5 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + bytes(60))
        with pytest.raises(ValueError, match="magic"):
            read_field_dump(path)

    @pytest.mark.parametrize("raw", [b"", MAGIC + bytes(6)],
                             ids=["empty", "magic-and-6-bytes"])
    def test_short_header_rejected(self, tmp_path, raw):
        path = tmp_path / "short.bin"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="truncated"):
            read_field_dump(path)

    @settings(deadline=None)
    @given(raw=st.binary(max_size=80)
           | st.binary(max_size=80).map(lambda tail: MAGIC + tail)
           | st.builds(lambda head, tail: struct.pack("<4sIIII12x", MAGIC, *head)
                       + tail,
                       st.tuples(*[st.integers(0, 3)] * 4),
                       st.binary(max_size=80)))
    def test_any_bytes_read_or_raise_value_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "fuzz.bin"
        path.write_bytes(raw)
        try:
            arr = read_field_dump(path)
        except ValueError:
            return
        assert 32 + 8 * arr.size == len(raw)


class TestCli:
    def test_run_zero_source_short(self, tmp_path):
        res = run_cli(["run", "--preset", "zero-source", "--steps", "3",
                       "--out-dir", str(tmp_path)])
        assert res.returncode == 0, res.stderr
        header, data = read_csv_report(tmp_path / "run_report.csv")
        assert header == CSV_HEADER
        assert data.shape[0] == 3
        e_col = data[:, CSV_HEADER.index("E")]
        assert np.all(np.diff(e_col) <= 0.0)
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["seed"] == build_default_scenario("zero-source").seed
        assert not {"L", "M", "d"} & set(meta["config"]["model"])
        assert (tmp_path / "run_state_000000.bin").exists()

    def test_missing_config_is_config_error(self, tmp_path):
        res = run_cli(["run", "--config", str(tmp_path / "missing.json")])
        assert res.returncode == 1

    @pytest.mark.parametrize("case", ["config-directory", "config-not-utf8",
                                      "run-out-dir-file",
                                      "sweep-out-dir-file",
                                      "run_report.csv", "run_meta.json",
                                      "run_state_000000.bin",
                                      "sweep_darcy.csv"])
    def test_unusable_paths_are_config_errors(self, tmp_path, case):
        # an unreadable config, an output directory that cannot be made
        # (both before any step or solve) or an output file that cannot be
        # opened, here a directory in its place, ends in one error line
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid_nx": 8, "grid_ny": 8}))
        taken = tmp_path / "taken"
        taken.write_text("")
        out = tmp_path / "out"
        run = ["run", "--config", str(cfg), "--steps", "1"]
        sweep = ["sweep-darcy", "--config", str(cfg), "--snapshot-steps", "1",
                 "--levels", "1e-2"]
        if case == "config-directory":
            argv = ["validate", "--config", str(tmp_path)]
        elif case == "config-not-utf8":
            cfg.write_bytes(b'{"grid_nx": 8, "grid_ny": 8}\xff\n')
            argv = ["validate", "--config", str(cfg)]
        elif case == "run-out-dir-file":
            argv = [*run, "--out-dir", str(taken)]
        elif case == "sweep-out-dir-file":
            argv = [*sweep, "--out-dir", str(taken)]
        else:
            (out / case).mkdir(parents=True)
            argv = [*(sweep if case.startswith("sweep") else run),
                    "--out-dir", str(out)]
        res = run_cli(argv)
        assert res.returncode == 1
        assert res.stderr.count("error:") == 1
        assert res.stderr.startswith("error: ")
        assert "Traceback" not in res.stderr
        if case.startswith("run_"):
            # a run that fails before its first step leaves no file behind
            assert [p.name for p in out.iterdir()] == [case]
        if case == "sweep_darcy.csv":
            # the solved level is printed before the CSV is opened
            assert res.stdout.startswith("eta=1.000e-02  gap=")

    def test_output_error_after_a_row_aborts_and_keeps_the_rows(self,
                                                                 tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid_nx": 8, "grid_ny": 8,
                                   "snapshot_every": 1}))
        out = tmp_path / "out"
        (out / "run_state_000002.bin").mkdir(parents=True)
        res = run_cli(["run", "--config", str(cfg), "--steps", "4",
                       "--out-dir", str(out)])
        assert res.returncode == 2
        assert res.stderr.startswith("run aborted after 2 steps: [Errno 21]")
        assert res.stderr.count("\n") == 1
        assert res.stdout == ""
        _, data = read_csv_report(out / "run_report.csv")
        assert data.shape[0] == 2
        assert sorted(p.name for p in out.iterdir()) == [
            "run_meta.json", "run_report.csv", "run_state_000000.bin",
            "run_state_000001.bin", "run_state_000002.bin"]

    def test_zero_horizon_initial_snapshot_only(self, tmp_path):
        res = run_cli(["run", "--preset", "zero-source", "--t-end", "0",
                       "--out-dir", str(tmp_path)])
        assert res.returncode == 0, res.stderr
        snaps = sorted(tmp_path.glob("run_state_*.bin"))
        assert len(snaps) == 1
        _, data = read_csv_report(tmp_path / "run_report.csv")
        assert data.shape[0] == 0

    def test_validate_default_passes(self):
        res = run_cli(["validate"])
        assert res.returncode == 0
        assert "A8: pass" in res.stdout

    def test_validate_strict_oversized_epsilon(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": {"epsilon": 0.06}}))
        res = run_cli(["validate", "--config", str(cfg), "--strict"])
        assert res.returncode == 4
        # the whole report comes first
        assert "A8: FAIL" in res.stdout.splitlines()
        assert res.stderr == "strict mode: assumption failure A8\n"

    @pytest.mark.parametrize("command", ["run", "sweep-darcy"])
    def test_strict_run_stops_before_its_output_directory(self, tmp_path,
                                                          capsys, command):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": {"epsilon": 0.06}}))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--strict",
                     "--out-dir", str(out)]) == 4
        assert capsys.readouterr().err == \
            "error: assumption check failed under strict mode: A8\n"
        assert not out.exists()

    def test_run_without_strict_warns_of_a_failed_assumption(self, tmp_path,
                                                             capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": {"epsilon": 0.06}}))
        assert main(["run", "--config", str(cfg), "--t-end", "0",
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == "warning: assumption A8 violated\n"

    def test_steps_and_t_end_are_exclusive(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--preset", "zero-source", "--steps", "2",
                     "--t-end", "1.0", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.endswith(
            "error: mchb run: argument --t-end: not allowed with argument "
            "--steps\n")
        assert not out.exists()

    @pytest.mark.parametrize("doc, note", [
        ({}, "epsilon/h = 0.0145, h the coarser cell width: unresolved, "
             "below 1"),
        ({"domain_lx": 0.25, "domain_ly": 0.25},
         "epsilon/h = 1.16, h the coarser cell width"),
        ({"domain_lx": 1.0, "domain_ly": 1.0, "grid_nx": 128, "grid_ny": 32},
         "epsilon/h = 0.145, h the coarser cell width: unresolved, below 1")],
        ids=["stratified-tumor", "resolved", "coarser-axis"])
    def test_validate_notes_the_interface_resolution(self, tmp_path, capsys,
                                                     doc, note):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"note: {note}"
        # a note, not a verdict: the verdict lines are A1 to A8 alone
        assert [line for line in lines if line.endswith(": pass")] == \
            [f"A{i}: pass" for i in range(1, 9)]

    def test_validate_bad_kappa_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": {"kappa": 2.0}}))
        res = run_cli(["validate", "--config", str(cfg)])
        assert res.returncode == 1
        assert "kappa" in res.stderr

    def test_mms_single_grid_rejected(self):
        res = run_cli(["mms", "--grids", "64"])
        assert res.returncode == 1

    def test_out_dir_env_var(self, tmp_path):
        res = run_cli(["run", "--preset", "zero-source", "--steps", "1"],
                      env={"MCHB_OUT_DIR": str(tmp_path / "envdir")})
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "envdir" / "run_report.csv").exists()

    def test_main_in_process_exit_codes(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(serialize_config(build_default_scenario("zero-source")))
        assert main(["validate", "--config", str(cfg)]) == 0
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        # the solver constants are not keys, at any value
        for doc in ({"tol_flow": 1e-9}, {"tol_ch": 1e-8},
                    {"max_nonlinear_iter": 50}, {"init_amplitude": 0.05},
                    {"grid_nx": "64"}, {"grid_nx": 64.5},
                    {"flow_enabled": "no"}, {"t_end": float("nan")},
                    {"flow_backend": "brinkman", "lambda0": float("nan")},
                    {"tol_nutrient": 1e-12}):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            assert main(["run", "--config", str(bad),
                         "--out-dir", str(tmp_path / "out")]) == 1, doc
        for sweep in (["--jobs", "0"], ["--jobs", "-1"], ["--levels=abc"],
                      ["--levels=1e-2,1e-2"], ["--levels=-1e-2"],
                      ["--levels=nan"]):
            assert main(["sweep-darcy", *sweep,
                         "--out-dir", str(tmp_path / "out")]) == 1, sweep
        for grids in ("32,abc", "4,8", "32,32", "64,-128"):
            assert main(["mms", "--grids", grids]) == 1, grids

    @pytest.mark.parametrize("doc, field", [
        ({"domain_lx": 1e-200, "grid_nx": 8, "grid_ny": 8}, "domain_lx"),
        ({"domain_lx": 1e300, "domain_ly": 1e300}, "domain_ly")])
    def test_extreme_cell_width_is_config_error(self, tmp_path, capsys, doc,
                                                field):
        # h**2 underflows to zero or overflows: the operators cannot be built
        with pytest.raises(ConfigError, match=field):
            load_config(json.dumps(doc))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err

    def test_usage_errors_are_config_errors(self, capsys):
        # validate writes no file, so it takes no output root
        for argv in ([], ["run", "--steps", "abc"], ["run", "--bogus"],
                     ["frobnicate"], ["validate", "--out-dir", "x"]):
            assert main(argv) == 1, argv
            assert "usage: mchb" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0

    def test_validate_reports_the_configured_source_variant(self, tmp_path,
                                                            capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"source_variant": "interfacial"}))
        assert main(["validate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "B_S = 1.146e+06" in out and "A_S = 7.639e+05" in out

    @pytest.mark.parametrize("tag", ["a/b", ""], ids=["separator", "empty"])
    def test_tag_that_is_not_a_file_name_stem_is_config_error(self, tmp_path,
                                                              tag):
        out = tmp_path / "out"
        res = run_cli(["run", "--preset", "zero-source", "--t-end", "0",
                       "--out-dir", str(out), "--tag", tag])
        assert res.returncode == 1
        assert res.stderr == f"error: --tag must be a non-empty file-name " \
            f"stem with no path separator, got {tag!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [
        (["validate"], 0), (["run", "--config", "missing.json"], 1),
        (["mms", "--grids", "64"], 1)],
        ids=["validate", "missing-config", "one-grid-ladder"])
    def test_configuration_paths_load_no_scipy(self, tmp_path, argv, code):
        # a fresh interpreter, so no earlier test has imported scipy
        script = ("import sys\nfrom mchb.cli import main\n"
                  f"code = main({argv!r})\n"
                  "print(code, [m for m in sys.modules "
                  "if m.split('.')[0] == 'scipy'])\n")
        res = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                             capture_output=True, text=True)
        assert res.stdout.splitlines()[-1] == f"{code} []", res.stderr


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)
WORDS = ("darcy", "brinkman", "linear", "interfacial", "stratified",
         "random-smooth", "uniform", "stokes")
TYPED = {"int": st.integers(), "float": st.floats() | st.integers(),
         "bool": st.booleans(), "str": st.sampled_from(WORDS)}


def keyed_object(cls, **extra):
    """Objects over the fields of ``cls``: mostly well typed, sometimes not."""
    known = {f.name: TYPED.get(f.type, JSON_VALUES) | JSON_VALUES
             for f in fields(cls) if f.name != "model"}
    return st.fixed_dictionaries({}, optional={**known, **extra})


CONFIG_DOCUMENTS = st.builds(
    lambda doc, unknown: {**unknown, **doc},
    keyed_object(ScenarioConfig, model=keyed_object(ModelParameters) | JSON_VALUES,
                 out_dir=st.none() | st.text(max_size=8)),
    st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=2)
    | st.just({})) | JSON_VALUES


@settings(max_examples=150, deadline=None)
@given(doc=CONFIG_DOCUMENTS)
def test_config_document_loads_or_is_config_error(tmp_path_factory, doc):
    text = json.dumps(doc)
    try:
        load_config(text)
        expected = 0
    except ConfigError:
        expected = 1
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["validate", "--config", str(path)])
    assert code == expected
    if expected:
        assert err.getvalue().startswith("error: ")


class TestSweepCli:
    def test_sweep_writes_csv(self, tmp_path):
        res = run_cli(["sweep-darcy", "--levels", "1e-2,1e-4", "--jobs", "2",
                       "--snapshot-steps", "1", "--out-dir", str(tmp_path)])
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "sweep_darcy.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "eta"
        assert len(lines) == 3
        gaps = [float(line.split(",")[1]) for line in lines[1:]]
        assert gaps[0] > gaps[1]
        printed = res.stdout.strip().splitlines()
        assert len(printed) == 2
        for line in printed:
            key, _, count = line.split()[-1].partition("=")
            assert key == "sweeps" and int(count) >= 1, line

    def test_large_viscosity_level_aborts_with_a_message(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid_nx": 8, "grid_ny": 8}))
        res = run_cli(["sweep-darcy", "--config", str(cfg), "--levels", "1e300",
                       "--snapshot-steps", "1", "--out-dir", str(tmp_path)])
        assert res.returncode == 2
        assert "sweep aborted" in res.stderr
        assert "Traceback" not in res.stderr and "Warning" not in res.stderr

    def test_failed_snapshot_step_aborts_in_one_line(self, tmp_path, capsys,
                                                     monkeypatch):
        # one phase update does not reach PHASE_TOL on the 16x16 preset
        monkeypatch.setattr(mchb.stepping, "MAX_PHASE_UPDATES", 1)
        cfg = replace(build_default_scenario("darcy-limit"), grid_nx=16,
                      grid_ny=16)
        path = tmp_path / "c.json"
        path.write_text(serialize_config(cfg))
        out = tmp_path / "out"
        assert main(["sweep-darcy", "--config", str(path),
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sweep aborted: phase solve stalled")
        assert err.count("\n") == 1
        assert not (out / "sweep_darcy.csv").exists()

    @pytest.mark.parametrize("error", [FlowSolverError, FloatingPointError])
    def test_snapshot_solver_errors_abort(self, tmp_path, capsys, monkeypatch,
                                          error):
        def failing(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(TimeStepper, "step", failing)
        assert main(["sweep-darcy", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "sweep aborted: injected\n"

    def test_negative_snapshot_steps_rejected(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr(mchb.cli, "frozen_snapshot", None)
        assert main(["sweep-darcy", "--snapshot-steps", "-1",
                     "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: snapshot steps must be nonnegative")

    def test_negative_steps_rejected(self, tmp_path, capsys):
        assert main(["run", "--preset", "zero-source", "--steps", "-3",
                     "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == \
            "error: --steps must be nonnegative, got -3\n"
        assert not any(tmp_path.iterdir())


class TestExitCodes:
    def test_aborted_run_exit_code(self, tmp_path):
        cfg = tmp_path / "abort.json"
        cfg.write_text(json.dumps({
            "grid_nx": 16, "grid_ny": 16, "dt": 1e6, "t_end": 2e6,
            "flow_enabled": False,
        }))
        res = run_cli(["run", "--config", str(cfg),
                       "--out-dir", str(tmp_path / "out")])
        assert res.returncode == 2
        assert "aborted" in res.stderr
        assert "phase solve stalled" in res.stderr

    def test_large_viscosity_run_aborts_with_a_message(self, tmp_path):
        # the Rhie-Chow face weight of eta0 = 1e300 once overflowed a float
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid_nx": 8, "grid_ny": 8,
                                   "flow_backend": "brinkman", "eta0": 1e300,
                                   "t_end": 3e-6}))
        res = run_cli(["run", "--config", str(cfg),
                       "--out-dir", str(tmp_path / "out")])
        assert res.returncode == 2
        assert "run aborted" in res.stderr
        assert "Traceback" not in res.stderr and "Warning" not in res.stderr

    def test_mms_failure_exit_code(self, monkeypatch):
        from mchb import verification

        def fake_run_all(ns):
            study = verification.ConvergenceStudy("ch-operator", list(ns),
                                                  [1.0, 0.9], 0.15)
            return [study]

        monkeypatch.setattr(verification, "run_all", fake_run_all)
        assert main(["mms", "--grids", "32,64"]) == 3

    def test_mms_flow_solver_error_aborts_in_one_line(self, monkeypatch,
                                                       capsys):
        from mchb import verification

        def failing(ns):
            raise FlowSolverError("injected")

        monkeypatch.setattr(verification, "run_all", failing)
        assert main(["mms", "--grids", "32,64"]) == 2
        assert capsys.readouterr().err == "error: injected\n"
