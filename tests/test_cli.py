import contextlib
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trapscatter
from trapscatter.cli import (
    _CONFIG_FIELDS,
    SweepConfig,
    build_config,
    build_parser,
    main,
    parse_config_file,
    sweep_temperature,
)
from trapscatter.errors import ConfigError


def run_main(args):
    return main(args)


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


# (subcommand, a valid base command line, the float flags it reads)
_NON_FINITE_CASES = [
    ("sweep-angle", ["--n", "200", "--t-over-tc", "0.7", "--delta-lo", "0.5", "--delta-hi", "2",
                     "--points", "2", "--method", "both"],
     ["t-over-tc", "t", "k-incident", "delta-lo", "delta-hi"]),
    ("sweep-temp", ["--n", "200", "--delta", "1", "--t-over-tc-lo", "0.5", "--t-over-tc-hi", "1.2",
                    "--points", "2", "--method", "both"],
     ["delta", "t-over-tc-lo", "t-over-tc-hi", "t-lo", "t-hi", "k-incident"]),
    ("oracle-compare", ["--n", "200", "--t-over-tc", "0.7", "--delta-lo", "0.5", "--delta-hi", "2",
                        "--points", "2", "--format", "json"],
     ["t-over-tc", "k-incident", "delta-lo", "delta-hi"]),
]

# Huge finite inputs and their exit codes: a temperature whose T^3 overflows
# (T above about 5.6e102) fails numerically, an N no float holds is invalid.
_HUGE_FINITE_CASES = [
    (["sweep-angle", "--n", "1000", "--t", "1e103", "--points", "3"], 3),
    (["sweep-angle", "--n", "1000", "--t-over-tc", "1e102", "--points", "3"], 3),
    (["oracle-compare", "--n", "200", "--t", "1e200", "--points", "2", "--format", "json"], 3),
    (["sweep-temp", "--n", "200", "--delta", "1", "--t-over-tc-lo", "0.5", "--t-over-tc-hi", "1e200",
      "--points", "2", "--method", "both"], 3),
    (["sweep-angle", "--n", str(10**400), "--t", "5", "--points", "3"], 2),
]


_ALL = ("sweep-angle", "sweep-temp", "oracle-compare")
_GRID = ("sweep-angle", "oracle-compare")

# config key -> (its flag arguments, its config-file value, the SweepConfig
# field both set, the value they set it to, the subcommands taking the flag)
_OPTIONS = {
    "n": (["--n", "400"], "400", "n_total", 400, _ALL),
    "t": (["--t", "5.5"], "5.5", "t", 5.5, _GRID),
    "t_over_tc": (["--t-over-tc", "0.5"], "0.5", "t_over_tc", 0.5, _GRID),
    "k_incident": (["--k-incident", "50"], "50", "k_incident", 50.0, _ALL),
    "method": (["--method", "both"], "both", "method", "both", _ALL),
    "out": (["--out", "x.csv"], "x.csv", "out", "x.csv", _ALL),
    "format": (["--format", "json"], "json", "fmt", "json", _ALL),
    "delta_lo": (["--delta-lo", "0.5"], "0.5", "delta_lo", 0.5, _GRID),
    "delta_hi": (["--delta-hi", "4"], "4", "delta_hi", 4.0, _GRID),
    "delta": (["--delta", "2"], "2", "delta_fixed", 2.0, ("sweep-temp",)),
    "t_lo": (["--t-lo", "1.5"], "1.5", "t_lo", 1.5, ("sweep-temp",)),
    "t_hi": (["--t-hi", "9"], "9", "t_hi", 9.0, ("sweep-temp",)),
    "t_over_tc_lo": (["--t-over-tc-lo", "0.2"], "0.2", "t_ratio_lo", 0.2, ("sweep-temp",)),
    "t_over_tc_hi": (["--t-over-tc-hi", "1.4"], "1.4", "t_ratio_hi", 1.4, ("sweep-temp",)),
    "points": (["--points", "7"], "7", "points", 7, _ALL),
    "log": (["--log"], "on", "log_spacing", True, _ALL),
}

class TestConfigPlumbing:
    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# comment\n"
            "n = 400\n"
            "t-over-tc = 0.5\n"
            "delta_lo = 0.5\n"
            "delta_hi = 4\n"
            "points = 3\n"
            "log = true\n"
        )
        parser = build_parser()
        args = parser.parse_args(
            ["sweep-angle", "--config", str(cfg), "--points", "5"]
        )
        config = build_config(args)
        assert config.n_total == 400
        assert config.t_over_tc == 0.5
        assert config.points == 5  # flag wins
        assert config.log_spacing is True

    def test_config_file_errors(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("points 5\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(bad))
        unknown = tmp_path / "unknown.cfg"
        unknown.write_text("frobnicate = 3\n")
        parser = build_parser()
        args = parser.parse_args(["sweep-angle", "--config", str(unknown)])
        with pytest.raises(ConfigError):
            build_config(args)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(delta_lo=0.0), "delta-lo"),
            (dict(delta_lo=3.0, delta_hi=2.0), "delta-hi"),
            (dict(points=1), "points"),
            (dict(n_total=0), "n"),
            (dict(method="magic"), "method"),
            (dict(delta_hi=500.0, k_incident=100.0), "delta-hi"),
        ],
    )
    def test_validation_fields(self, kwargs, field):
        config = SweepConfig(t_over_tc=0.5, **kwargs)
        with pytest.raises(ConfigError) as err:
            config.validate_common()
            config.resolve_temperature()
            config.delta_range()
        assert err.value.field == field

    @pytest.mark.parametrize("subcommand", ["sweep-angle", "sweep-temp"])
    def test_no_log_overrides_config_file(self, tmp_path, subcommand):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("log = true\n")
        parser = build_parser()
        base = [subcommand, "--config", str(cfg)]
        assert build_config(parser.parse_args(base)).log_spacing is True
        assert build_config(parser.parse_args(base + ["--no-log"])).log_spacing is False
        assert build_config(parser.parse_args([subcommand, "--log"])).log_spacing is True

    @pytest.mark.parametrize("subcommand", _ALL)
    @pytest.mark.parametrize("key", list(_CONFIG_FIELDS))
    def test_flag_and_config_key_agree(self, tmp_path, capsys, key, subcommand):
        # a subcommand that takes the flag gets from it what the config key
        # gives; any other subcommand rejects the flag as a usage error and
        # the key in a config file as an invalid configuration
        flag_args, text, field, value, takers = _OPTIONS[key]
        parser = build_parser()
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"{key} = {text}\n")
        if subcommand not in takers:
            with pytest.raises(SystemExit) as exit_info:
                parser.parse_args([subcommand] + flag_args)
            assert exit_info.value.code == 2
            assert ": error: " in capsys.readouterr().err
            out = tmp_path / "none.out"
            assert run_main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"config-invalid: config: {subcommand} takes no key {key!r}\n"
            assert not out.exists()
            return
        by_flag = build_config(parser.parse_args([subcommand] + flag_args))
        by_file = build_config(parser.parse_args([subcommand, "--config", str(cfg)]))
        assert by_flag == by_file
        got = getattr(by_flag, field)
        assert got == value != getattr(SweepConfig(), field) and type(got) is type(value)

    def test_config_fields_and_defaults_come_from_the_table(self):
        assert vars(SweepConfig()) == {field: default for field, default, *_ in _CONFIG_FIELDS.values()}
        # an unknown name, and a config key that is not a field name
        for fields in ({"bogus": 1}, {"n": 400}):
            with pytest.raises(TypeError):
                SweepConfig(**fields)

    @pytest.mark.parametrize("subcommand", _ALL)
    def test_help_lists_the_table_flags(self, capsys, subcommand):
        # a subcommand's --help lists --config, then every flag whose subcommands name it, in table order,
        # each with its table help and, where the table has one, its table default
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([subcommand, "--help"])
        assert exit_info.value.code == 0
        options = capsys.readouterr().out.split("\noptions:\n")[1]
        # one entry per flag: its line and the wrapped help lines under it, whitespace collapsed
        entries = [" ".join(entry.split()) for entry in re.split(r"\n(?=  -)", options)]
        listed = {entry.split()[0].rstrip(","): entry for entry in entries}
        table = {"--" + key.replace("_", "-"): (default, text)
                 for key, (_, default, _, takers, text) in _CONFIG_FIELDS.items() if subcommand in takers}
        assert list(listed) == ["-h", "--config"] + list(table)
        for flag, (default, text) in table.items():
            printed = re.findall(r"\(default: ([^)]*)\)", listed[flag])
            assert printed == ([] if default is None else [str(default)]), flag
            assert text and " ".join(text.split()) in listed[flag], flag

    def test_truncation_level_not_settable(self, tmp_path, capsys):
        # the oracle derives its truncation from (N, T): neither a flag nor a key sets it
        base = ["sweep-angle", "--n", "1000", "--t", "5", "--method", "oracle", "--points", "2"]
        with pytest.raises(SystemExit) as exit_info:
            run_main(base + ["--epsilon-max", "40"])
        assert exit_info.value.code == 2
        capsys.readouterr()
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("epsilon_max = 40\n")
        out = tmp_path / "none.csv"
        assert run_main(base + ["--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config-invalid: config: unknown key 'epsilon_max'\n"
        assert not out.exists()

    @settings(max_examples=160, deadline=None)
    @given(st.data())
    def test_non_finite_fields_exit_2(self, data):
        # any float field set to nan or +-inf, by flag or config file, is a
        # config error: exit 2, one stderr line, no table and no traceback;
        # a huge finite input exits 2 or 3 the same way
        if data.draw(st.booleans()):
            args, expected = data.draw(st.sampled_from(_HUGE_FINITE_CASES))
        else:
            subcommand, base, fields = data.draw(st.sampled_from(_NON_FINITE_CASES))
            chosen = data.draw(st.lists(st.sampled_from(fields), min_size=1, max_size=3, unique=True))
            values = data.draw(st.lists(st.sampled_from(["nan", "inf", "-inf"]), min_size=len(chosen),
                                        max_size=len(chosen)))
            args = [subcommand] + base + [f"--{flag}={value}" for flag, value in zip(chosen, values)]
            expected = 2
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
        assert code == expected, args
        assert stdout.getvalue() == ""
        prefix = "config-invalid: " if expected == 2 else "numerical-failure: "
        assert stderr.getvalue().startswith(prefix) and stderr.getvalue().count("\n") == 1

    def test_non_finite_config_file_value(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("delta-lo = nan\n")
        out = tmp_path / "none.csv"
        code = run_main(["sweep-angle", "--config", str(cfg), "--n", "200", "--t-over-tc", "0.7",
                         "--delta-hi", "5", "--points", "3", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "config-invalid: delta-lo: must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("args,config_text,field", [
        (["sweep-angle", "--t", "5", "--k-incident", "0"], None, "k-incident"),
        (["sweep-angle", "--t", "5"], "format = xml", "format"),
        (["sweep-angle", "--t", "0"], None, "t"),
        (["sweep-angle", "--t-over-tc", "0"], None, "t-over-tc"),
        (["sweep-temp", "--delta", "1", "--t-lo", "1", "--t-over-tc-hi", "1.2"], None, "t-lo"),
        (["sweep-temp", "--delta", "1", "--t-lo", "0", "--t-hi", "5"], None, "t-lo"),
        (["sweep-temp", "--delta", "1", "--t-lo", "5", "--t-hi", "5"], None, "t-hi"),
        (["sweep-temp", "--delta", "300", "--k-incident", "100", "--t-lo", "1", "--t-hi", "5"],
         None, "delta"),
        (["sweep-angle", "--t", "5"], "log = maybe", "log"),
        (["sweep-angle", "--t", "5"], "n = abc", "n"),
    ])
    def test_invalid_value_names_its_field(self, tmp_path, capsys, args, config_text, field):
        out = tmp_path / "none.out"
        if config_text is not None:
            cfg = tmp_path / "sweep.cfg"
            cfg.write_text(config_text + "\n")
            args = args + ["--config", str(cfg)]
        assert run_main(args + ["--points", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config-invalid: {field}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_log_off_in_config_file_gives_linear_grid(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("log = off\n")
        out = tmp_path / "grid.csv"
        assert run_main(["sweep-angle", "--config", str(cfg), "--n", "200", "--t", "5",
                         "--delta-lo", "1", "--delta-hi", "3", "--points", "3", "--out", str(out)]) == 0
        assert [float(row["delta"]) for row in read_rows(out)[1]] == [1.0, 2.0, 3.0]

    def test_temperature_exclusivity(self):
        with pytest.raises(ConfigError):
            SweepConfig(t=5.0, t_over_tc=0.5).resolve_temperature()
        with pytest.raises(ConfigError):
            SweepConfig().resolve_temperature()

    @pytest.mark.parametrize("args,field", [
        (["sweep-angle", "--t-over-tc", "1e308"], "t-over-tc"),
        (["sweep-temp", "--delta", "1", "--t-over-tc-lo", "0.5", "--t-over-tc-hi", "1e308"], "t-over-tc-hi"),
    ])
    def test_temperature_past_the_float_range(self, tmp_path, capsys, args, field):
        # a finite ratio whose temperature overflows is invalid, as an N no float holds is
        out = tmp_path / "none.csv"
        assert run_main(args + ["--n", "300", "--points", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config-invalid: {field}: temperature too large for a float\n"
        assert not out.exists()

    @pytest.mark.parametrize("config_bytes", [None, b"n = 300\xff\n"])
    def test_unreadable_config_file(self, tmp_path, capsys, config_bytes):
        # a missing or non-UTF-8 --config is an invalid configuration, not a traceback
        cfg = tmp_path / "sweep.cfg"
        if config_bytes is not None:
            cfg.write_bytes(config_bytes)
        out = tmp_path / "none.csv"
        assert run_main(["sweep-angle", "--t", "5", "--points", "2", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config-invalid: config: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("out", ["missing/table.csv", "."])
    def test_unopenable_out(self, tmp_path, capsys, out):
        # an --out whose parent is missing, or that is a directory
        args = ["sweep-angle", "--n", "300", "--t", "5", "--points", "2", "--out", str(tmp_path / out)]
        assert run_main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config-invalid: out: ") and err.count("\n") == 1

    def test_stdout_closed_by_the_reader(self):
        # the read end is closed before the command starts: its first write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "trapscatter.cli", "sweep-angle", "--n", "300", "--t", "5", "--points", "2"],
                env=_fresh_env(), stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 2
        assert done.stderr == "config-invalid: out: [Errno 32] Broken pipe\n"


class TestSweepAngle:
    def test_exit_codes_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = [
            "sweep-angle", "--n", "300", "--t-over-tc", "0.6",
            "--k-incident", "100", "--delta-lo", "0.5", "--delta-hi", "6",
            "--points", "7", "--log",
        ]
        assert run_main(args + ["--out", str(out1)]) == 0
        assert run_main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_shape_and_total_consistency(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_main([
            "sweep-angle", "--n", "300", "--t-over-tc", "0.6",
            "--k-incident", "100", "--delta-lo", "1.0", "--delta-hi", "5",
            "--points", "4", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["delta", "theta", "rayleigh", "diffraction",
                          "bose_0m", "bose_mm", "total", "flags"]
        assert len(rows) == 4
        for row in rows:
            parts = sum(float(row[c]) for c in ("rayleigh", "diffraction", "bose_0m", "bose_mm"))
            assert abs(float(row["total"]) - parts) <= 1e-9 * max(float(row["total"]), 1.0)
            assert float(row["theta"]) == pytest.approx(float(row["delta"]) / 100.0)

    def test_method_both_paired_columns(self, tmp_path):
        out = tmp_path / "both.csv"
        code = run_main([
            "sweep-angle", "--n", "500", "--t-over-tc", "0.6",
            "--k-incident", "100", "--delta-lo", "1.0", "--delta-hi", "4",
            "--points", "3", "--method", "both", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_rows(out)
        for channel in ("rayleigh", "diffraction", "bose_0m", "bose_mm"):
            assert channel in header
            assert f"{channel}_oracle" in header
        for row in rows:
            assert float(row["rayleigh"]) == float(row["rayleigh_oracle"]) == 500.0

    def test_flags_column_reports_invalid(self, tmp_path):
        out = tmp_path / "flags.csv"
        run_main([
            "sweep-angle", "--n", "300", "--t-over-tc", "0.6",
            "--k-incident", "100", "--delta-lo", "0.2", "--delta-hi", "2",
            "--points", "2", "--out", str(out),
        ])
        _, rows = read_rows(out)
        assert "bose_0m:invalid" in rows[0]["flags"]
        assert rows[1]["flags"] == "ok"

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = run_main([
            "sweep-angle", "--n", "300", "--t-over-tc", "0.6",
            "--k-incident", "100", "--delta-lo", "1.0", "--delta-hi", "4",
            "--points", "3", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["version"]
        assert payload["meta"]["command"] == "sweep-angle"
        assert len(payload["rows"]) == 3

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        code = run_main([
            "sweep-angle", "--n", "300", "--t-over-tc", "0.6",
            "--delta-lo", "0", "--delta-hi", "4", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "config-invalid" in capsys.readouterr().err

    def test_failure_before_rows_exit_code(self, tmp_path, capsys):
        # no truncation up to 600 controls the tail at N = 1e5, T = 0.9 Tc:
        # the shared discrete ensemble cannot be solved
        out = tmp_path / "none.csv"
        code = run_main([
            "sweep-angle", "--n", "100000", "--t-over-tc", "0.9", "--method", "oracle",
            "--out", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical-failure: TruncationError: no truncation below 600 ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("method,solves", [("oracle", 0), ("both", 1)])
    def test_only_the_semiclassical_method_solves_a_continuum_ensemble(self, tmp_path, monkeypatch, method, solves):
        # an oracle-only sweep reads t_critical from N and solves only the discrete ensemble;
        # a TrapEnsemble solves its mu at construction, through thermo.chemical_potential
        from trapscatter import thermo

        calls, real = [], thermo.chemical_potential
        monkeypatch.setattr(thermo, "chemical_potential", lambda *args: calls.append(args) or real(*args))
        out = tmp_path / "angle.json"
        assert run_main([
            "sweep-angle", "--n", "300", "--t-over-tc", "0.6", "--method", method,
            "--delta-lo", "1", "--delta-hi", "4", "--points", "3", "--format", "json", "--out", str(out),
        ]) == 0
        assert len(calls) == solves
        assert json.loads(out.read_text())["meta"]["t_critical"] == trapscatter.critical_temperature(300)

    def test_oracle_failure_before_rows_at_an_overflowing_temperature(self, capsys):
        # without the semiclassical method no continuum T^3 overflows: the oracle's truncation fails first
        code = run_main([
            "sweep-angle", "--n", "1000", "--t", "1e103", "--method", "oracle",
            "--delta-lo", "1", "--delta-hi", "2", "--points", "2", "--k-incident", "100",
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == ("numerical-failure: TruncationError: no truncation below 600 "
                                "controls the tail for N=1000, T=1e+103\n")
        assert captured.out == ""

    @pytest.mark.parametrize("args,context", [
        (["sweep-angle", "--t", "1e-323", "--delta-lo", "1", "--delta-hi", "2"], "chemical_potential"),
        (["sweep-temp", "--t-lo", "1e-323", "--t-hi", "1e-322", "--delta", "1", "--method", "both"],
         "chemical_potential"),
        (["sweep-angle", "--t", "1e-323", "--delta-lo", "1", "--delta-hi", "2", "--method", "oracle"],
         "solve_mu_discrete"),
    ])
    def test_failure_before_rows_at_a_tiny_temperature(self, capsys, args, context):
        # mu0 = -T ln(1 + 1/N) underflows to -0.0: the solve refuses its start point, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_main([*args, "--n", "1000", "--points", "2"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == (f"numerical-failure: ConvergenceError: {context}: "
                                "the start point mu0=-0.0 is not below 0 at T=1e-323\n")
        assert captured.out == ""

    def test_python_m_matches_main(self, tmp_path):
        # run as __main__, the CLI module must still recognise the second
        # stage's tables: JSON writes them as tables
        src = str(Path(trapscatter.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        for fmt in ("csv", "json"):
            args = [
                "sweep-angle", "--n", "300", "--t-over-tc", "0.6",
                "--k-incident", "100", "--points", "3", "--format", fmt,
            ]
            # the JSON echoes --out, so both runs name the same file
            out = tmp_path / f"table.{fmt}"
            assert run_main(args + ["--out", str(out)]) == 0
            via_main = out.read_bytes()
            done = subprocess.run(
                [sys.executable, "-m", "trapscatter.cli", *args, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            assert out.read_bytes() == via_main


    @settings(max_examples=40, deadline=None)
    @given(st.floats(1e100, 1e308), st.floats(1.0, 10.0), st.floats(0.0, 1.0), st.floats(0.5, 2.0),
           st.sampled_from(["semiclassical", "both"]))
    # a delta within 11 digits of the largest float must not print as inf
    @example(k_incident=8.988465674250001e+307, delta_lo=1.0, fraction=1.0, ratio=1.0, method="both")
    # 2 k_incident overflows: the grid still ends at the largest float
    @example(k_incident=8.98846567431158e+307, delta_lo=1.0, fraction=1.0, ratio=1.0, method="both")
    def test_huge_delta_rates_underflow(self, k_incident, delta_lo, fraction, ratio, method):
        # delta^2 and delta^4 leave the float range: every rate that depends
        # on delta is 0 in double there, a valid cell, and nothing warns
        delta_hi = max(min(fraction * 2.0 * k_incident, sys.float_info.max), 2.0 * delta_lo)
        stdout = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout):
            warnings.simplefilter("error")
            code = main(["sweep-angle", "--n", "1000", "--t-over-tc", repr(ratio),
                         "--k-incident", repr(k_incident), "--delta-lo", repr(delta_lo),
                         "--delta-hi", repr(delta_hi), "--points", "3", "--method", method, "--out", "-"])
        assert code == 0
        for line in stdout.getvalue().splitlines()[1:]:
            *cells, flags = line.split(",")
            assert flags == "ok" and all(math.isfinite(float(c)) for c in cells), line

    def test_classical_regime(self, tmp_path):
        out = tmp_path / "hot.csv"
        assert run_main([
            "sweep-angle", "--n", "10000", "--t-over-tc", "10",
            "--delta-lo", "1", "--delta-hi", "5", "--points", "3", "--out", str(out),
        ]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 3


class TestSweepTemperature:
    def test_columns_and_mu_crossing(self, tmp_path):
        out = tmp_path / "temp.csv"
        code = run_main([
            "sweep-temp", "--n", "1000", "--t-over-tc-lo", "0.2",
            "--t-over-tc-hi", "1.4", "--points", "7", "--delta", "1.0",
            "--k-incident", "100", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_rows(out)
        assert header[:5] == ["t", "t_over_tc", "mu", "n0", "ne"]
        below = [r for r in rows if float(r["t_over_tc"]) < 1.0]
        above = [r for r in rows if float(r["t_over_tc"]) > 1.05]
        assert all(abs(float(r["mu"])) < 0.1 for r in below)
        assert all(float(r["mu"]) < -0.5 for r in above)
        assert all(float(r["n0"]) == 0.0 for r in above)
        assert all(float(r["bose_0m"]) == 0.0 for r in above)

    def test_cold_rows_only_coherent_channels(self, tmp_path):
        out = tmp_path / "cold.csv"
        code = run_main([
            "sweep-temp", "--n", "1000", "--t-over-tc-lo", "0.0005",
            "--t-over-tc-hi", "0.001", "--points", "2", "--delta", "1.0",
            "--k-incident", "100", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_rows(out)
        for row in rows:
            assert float(row["rayleigh"]) == 1000.0
            # the thermal-cloud term still contributes 4T/delta^4 ~ 0.04
            # to the amplitude here, a few 1e-5 of the condensate square
            assert float(row["diffraction"]) == pytest.approx(
                1000.0**2 * math.exp(-0.5), rel=1e-3
            )
            assert float(row["bose_0m"]) == 0.0
            assert float(row["bose_mm"]) == 0.0

    def test_json_failed_rows_are_null(self, tmp_path):
        # at N = 1000 no truncation up to 600 controls the oracle tail from
        # T = 3 Tc up: the rows at 3, 5.5 and 8 Tc fail
        out = tmp_path / "temp.json"
        code = run_main([
            "sweep-temp", "--n", "1000", "--t-over-tc-lo", "0.5", "--t-over-tc-hi", "8",
            "--points", "4", "--delta", "1", "--method", "oracle",
            "--format", "json", "--out", str(out),
        ])
        assert code == 3

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        flags = payload["columns"].index("flags")
        oracle = [payload["columns"].index(f"{c}_oracle")
                  for c in ("rayleigh", "diffraction", "bose_0m", "bose_mm", "total")]
        ok, *failed = payload["rows"]
        assert ok[flags] == "ok"
        assert all(isinstance(ok[i], float) for i in oracle)
        assert [row[flags] for row in failed] == ["oracle:error:TruncationError"] * 3
        assert all(row[i] is None for row in failed for i in oracle)

    def test_oracle_beyond_level_guard_fails_rows(self, tmp_path):
        # at N = 1e6 the default truncation passes the level guard below Tc:
        # those rows are flagged, the cold row and the semiclassical cells stay
        out = tmp_path / "temp.csv"
        code = run_main([
            "sweep-temp", "--n", "1000000", "--t-over-tc-lo", "0.2", "--t-over-tc-hi", "1.2",
            "--points", "3", "--delta", "1", "--k-incident", "1000", "--method", "both",
            "--out", str(out),
        ])
        assert code == 3
        _, rows = read_rows(out)
        assert [row["flags"] for row in rows] == ["ok"] + ["oracle:error:TruncationError"] * 2
        assert all(math.isfinite(float(row["total"])) for row in rows)
        assert math.isfinite(float(rows[0]["total_oracle"]))
        assert all(row["total_oracle"] == "nan" for row in rows[1:])

    def test_semiclassical_failure_comes_first(self, tmp_path, capsys):
        # at T = 1e308 both solves fail: the semiclassical one is reported,
        # not the discrete truncation search's overflow
        out = tmp_path / "none.csv"
        assert run_main(["sweep-temp", "--n", "1000", "--delta", "1", "--t-lo", "1", "--t-hi", "1e308",
                         "--points", "2", "--method", "oracle", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical-failure: ConvergenceError: chemical_potential: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_requires_delta(self):
        config = SweepConfig(n_total=300, t_ratio_lo=0.3, t_ratio_hi=0.9, points=3)
        with pytest.raises(ConfigError) as err:
            sweep_temperature(config)
        assert err.value.field == "delta"

    def test_requires_temperature_grid(self):
        config = SweepConfig(n_total=300, delta_fixed=1.0, points=3)
        with pytest.raises(ConfigError):
            sweep_temperature(config)


class TestOracleCompare:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "cmp.json"
        code = run_main([
            "oracle-compare", "--n", "1000", "--t-over-tc", "0.6",
            "--k-incident", "100", "--delta-lo", "1.0", "--delta-hi", "4",
            "--points", "3", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["channel_stats"]["rayleigh"]["max_rel_dev"] == 0.0
        assert report["scaling_fits"]["rayleigh"]["exponent"] == pytest.approx(1.0, abs=1e-6)
        assert 1.7 < report["scaling_fits"]["diffraction"]["exponent"] < 2.2
        assert len(report["rows"]) == 3

    @pytest.mark.parametrize("method", ["semiclassical", "oracle"])
    def test_rows_are_sweep_angle_both_rows(self, tmp_path, method):
        # rows from delta 0.3, where semiclassical channels are flagged, to 4
        common = ["--n", "500", "--t-over-tc", "0.6", "--k-incident", "100", "--delta-lo", "0.3",
                  "--delta-hi", "4", "--points", "5", "--format", "json"]
        report_path, table_path = tmp_path / "cmp.json", tmp_path / "both.json"
        assert run_main(["oracle-compare", *common, "--method", method, "--out", str(report_path)]) == 0
        assert run_main(["sweep-angle", *common, "--method", "both", "--out", str(table_path)]) == 0
        report, table = json.loads(report_path.read_text()), json.loads(table_path.read_text())
        assert report["config"]["method"] == method
        columns = table["columns"]
        for row, cells in zip(report["rows"], table["rows"], strict=True):
            assert row["delta"] == cells[columns.index("delta")]
            for ch in ("rayleigh", "diffraction", "bose_0m", "bose_mm"):
                assert row[ch] == cells[columns.index(ch)]
                assert row[f"{ch}_oracle"] == cells[columns.index(f"{ch}_oracle")]

    def test_failure_before_rows_exit_code(self, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        code = run_main([
            "oracle-compare", "--n", "100000", "--t-over-tc", "0.9",
            "--format", "json", "--out", str(out),
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical-failure: TruncationError: no truncation below 600 ")
        assert not out.exists()

    def test_csv_rejected(self, capsys):
        code = run_main([
            "oracle-compare", "--n", "500", "--t-over-tc", "0.6",
            "--delta-lo", "1.0", "--delta-hi", "4", "--points", "3",
            "--format", "csv",
        ])
        assert code == 2
        assert "config-invalid" in capsys.readouterr().err

    def test_large_n_runs(self, tmp_path):
        # the oracle's cost depends on N only through its truncation level,
        # which the level guard bounds; a cold N = 2e5 ensemble needs few levels
        out = tmp_path / "cmp.json"
        assert run_main([
            "oracle-compare", "--n", "200000", "--t-over-tc", "0.2", "--k-incident", "1000",
            "--delta-lo", "1", "--delta-hi", "4", "--points", "3", "--format", "json",
            "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert len(report["rows"]) == 3
        assert report["scaling_fits"]["rayleigh"]["n_values"][-1] == 200_000


class TestRowFunction:
    def test_temp_and_angle_rows_agree(self, tmp_path):
        # (N, T, delta) = (500, 5, 1) and (500, 6, 1) are exact grid end
        # points of both sweeps; their channel cells must print identically
        common = ["--n", "500", "--k-incident", "100", "--method", "both"]
        temp = tmp_path / "temp.csv"
        assert run_main(["sweep-temp", *common, "--t-lo", "5", "--t-hi", "6",
                         "--points", "2", "--delta", "1", "--out", str(temp)]) == 0
        header_t, rows_t = read_rows(temp)
        channels = header_t[header_t.index("rayleigh"):]
        assert channels[-2:] == ["total_oracle", "flags"]
        for t, temp_row in zip(("5", "6"), rows_t):
            angle = tmp_path / f"angle_{t}.csv"
            assert run_main(["sweep-angle", *common, "--t", t, "--delta-lo", "1",
                             "--delta-hi", "2", "--points", "2", "--out", str(angle)]) == 0
            _, rows_a = read_rows(angle)
            assert [rows_a[0][c] for c in channels] == [temp_row[c] for c in channels]


class TestOracleStream:
    """A sweep runs one overlap recurrence for all its rows, not one per row or per delta."""

    @pytest.fixture
    def recurrences(self, monkeypatch):
        from trapscatter import oscillator

        calls = []
        real = oscillator._overlap_rows

        def counted(m_max, deltas):
            calls.append((m_max, list(deltas)))
            return real(m_max, deltas)

        monkeypatch.setattr(oscillator, "_overlap_rows", counted)
        return calls

    def test_temperature_sweep_runs_one_recurrence(self, tmp_path, recurrences):
        out = tmp_path / "temp.csv"
        assert run_main([
            "sweep-temp", "--n", "10000", "--t-over-tc-lo", "0.2", "--t-over-tc-hi", "1.4",
            "--points", "60", "--delta", "1.0", "--k-incident", "1000", "--method", "both",
            "--out", str(out),
        ]) == 0
        assert len(read_rows(out)[1]) == 60
        assert len(recurrences) == 1 and recurrences[0][1] == [1.0]
        # streamed to the largest truncation, the hottest row's
        hottest = trapscatter.solve_mu_discrete(10_000, 1.4 * trapscatter.critical_temperature(10_000))
        assert recurrences[0][0] == hottest.epsilon_max

    def test_angle_sweep_runs_one_recurrence(self, tmp_path, recurrences):
        out = tmp_path / "angle.csv"
        assert run_main([
            "sweep-angle", "--n", "3000", "--t-over-tc", "0.7", "--k-incident", "100",
            "--delta-lo", "0.5", "--delta-hi", "8", "--points", "20", "--method", "oracle",
            "--out", str(out),
        ]) == 0
        assert len(read_rows(out)[1]) == 20
        assert len(recurrences) == 1 and len(recurrences[0][1]) == 20


@pytest.mark.parametrize("args", [
    # cold rows overflow the discrete solve's expm1; rows across Tc and the
    # classical end exercise both slopes of the number equation
    ["sweep-temp", "--n", "20", "--t-over-tc-lo", "0.01", "--t-over-tc-hi", "1.4",
     "--points", "30", "--delta", "1.0", "--method", "both"],
    ["sweep-temp", "--n", "1", "--t-over-tc-lo", "0.05", "--t-over-tc-hi", "100",
     "--points", "12", "--log", "--delta", "1.0", "--method", "semiclassical"],
    ["sweep-angle", "--n", "3000", "--t-over-tc", "0.7", "--delta-lo", "0.1", "--delta-hi", "8",
     "--points", "8", "--method", "oracle"],
])
def test_no_runtime_warnings(tmp_path, args):
    out = tmp_path / "table.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_main(args + ["--k-incident", "100", "--out", str(out)]) == 0
    assert out.exists()


def _readme_block(heading, language):
    """The first `language` code block under the README's `## heading`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(f"\n## {heading}\n", 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _readme_commands():
    """The argument lists of the README's CLI commands."""
    block = _readme_block("CLI", "sh")
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line and not line.startswith("#")]
    assert lines and all(line.startswith("trapscatter ") for line in lines)
    return [line.split()[1:] for line in lines]


def test_readme_cli_commands_run(tmp_path):
    for argv in _readme_commands():
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
        assert run_main(argv) == 0, argv
        assert Path(argv[at]).exists()


def test_readme_library_example_runs():
    # a fresh interpreter, so the example runs with only the imports it writes
    _run_fresh("-c", _readme_block("Library", "python"))


# (a README command, one of its flags or --config) pairs, and hostile values:
# relative paths name a missing parent and the working directory
_README_FLAGS = [(tuple(argv), flag) for argv in _readme_commands()
                 for flag in dict.fromkeys([w for w in argv if w.startswith("--")] + ["--config"])]
_HOSTILE = ["nan", "inf", "-inf", "0", "-1", "1e308", "", "not-a-number", "missing/table.csv", "."]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_README_FLAGS), st.sampled_from(_HOSTILE))
@example(case=(_README_FLAGS[0][0], "--config"), value="missing/table.csv")
@example(case=(_README_FLAGS[0][0], "--config"), value=".")
@example(case=(_README_FLAGS[0][0], "--out"), value="missing/table.csv")
@example(case=(_README_FLAGS[0][0], "--out"), value=".")
def test_hostile_flag_value_exits_cleanly(case, value):
    # a README command at N = 300 and 5 points with one flag overridden by a
    # hostile value: main() returns 0, 2 or 3, or argparse exits 2
    argv, flag = case
    args = list(argv) + ["--n", "300", "--points", "5", "--out", "table.out", f"{flag}={value}"]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(args)
        except SystemExit as exc:
            assert exc.code == 2, args
            return
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3), args


def test_cli_runs_without_scipy(tmp_path):
    # a fresh interpreter runs one command of each kind in-process and the
    # angle-integrated bose_mm, then reports every scipy module it loaded and
    # whether numpy.polynomial was imported
    script = f"""
import sys
from trapscatter import TrapEnsemble, bose_mm_total, decompose
from trapscatter.cli import main
out = {str(tmp_path)!r}
codes = [
    main(["sweep-angle", "--n", "500", "--t-over-tc", "0.7", "--k-incident", "100",
          "--delta-lo", "0.5", "--delta-hi", "8", "--points", "3", "--out", out + "/a.csv"]),
    main(["sweep-temp", "--n", "500", "--t-over-tc-lo", "0.5", "--t-over-tc-hi", "1.2",
          "--points", "3", "--delta", "1.0", "--k-incident", "100", "--method", "both",
          "--out", out + "/t.csv"]),
    main(["oracle-compare", "--n", "500", "--t-over-tc", "0.6", "--k-incident", "100",
          "--delta-lo", "1", "--delta-hi", "4", "--points", "3", "--format", "json",
          "--out", out + "/c.json"]),
]
ens = TrapEnsemble.at_ratio(1000, 0.7)
assert bose_mm_total(ens, 100.0) > 0.0
assert decompose(ens, 2.0).total > 0.0
print(codes)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print("numpy.polynomial" in sys.modules)
"""
    codes, loaded, polynomial = _run_fresh("-c", script).splitlines()[-3:]
    assert codes == "[0, 0, 0]"
    assert loaded == "[]"
    assert polynomial == "False"


@pytest.mark.parametrize("args,stderr", [
    # the oracle's population overflows at mu0: a ConvergenceError, not a numpy overflow warning
    (["--n", str(10**308), "--t", "1e-10", "--delta-lo", "1", "--delta-hi", "2", "--method", "oracle"],
     "numerical-failure: ConvergenceError: solve_mu_discrete: population 1.0000012515059665e+308 "
     "with slope inf at mu=-1e-318\n"),
    # a diffraction amplitude beyond the float range squares to inf without a warning
    (["--n", "459000", "--t", "1.1e78", "--delta-lo", "1e-39", "--delta-hi", "2e-39", "--k-incident", "100"],
     ""),
])
def test_extreme_inputs_print_no_warning(args, stderr):
    # a fresh interpreter: numpy's warnings print once per process and call site
    done = subprocess.run([sys.executable, "-m", "trapscatter.cli", "sweep-angle", *args, "--points", "2"],
                          env=_fresh_env(), capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (3 if stderr else 0, stderr)


_SMALL_SWEEP = ["sweep-angle", "--n", "300", "--t", "5", "--points", "2"]


# a semiclassical sweep, an oracle sweep and the oracle-compare report
_FREEZE_COMMANDS = [
    _SMALL_SWEEP,
    ["sweep-temp", "--n", "300", "--delta", "1", "--t-lo", "2", "--t-hi", "5", "--points", "2",
     "--method", "oracle"],
    ["oracle-compare", "--n", "300", "--t", "5", "--points", "2", "--format", "json"],
]


def test_entrypoint_freezes_the_import_heap(tmp_path):
    # the CLI process keeps numpy's and the model's import-time objects out of
    # every later collection: entrypoint() freezes once they are loaded, before
    # the table is written, and no package module loads after the freeze;
    # main() called from Python leaves the heap alone
    for i, argv in enumerate(_FREEZE_COMMANDS):
        by_main = f"""
import gc, json, sys
from trapscatter import cli
code = cli.main({argv + ["--out", str(tmp_path / f"main{i}.out")]!r})
print(json.dumps([code, "numpy" in sys.modules, gc.get_freeze_count()]))
"""
        assert json.loads(_run_fresh("-c", by_main).splitlines()[-1]) == [0, True, 0], argv
        out = str(tmp_path / f"entrypoint{i}.out")
        by_entrypoint = f"""
import gc, json, os, sys
from trapscatter import cli
freezes, frozen_modules, freeze = [], set(), gc.freeze
def recorded():
    freezes.append(["numpy" in sys.modules, "trapscatter.scattering" in sys.modules, os.path.exists({out!r})])
    frozen_modules.update(sys.modules)
    freeze()
gc.freeze = recorded
sys.argv = ["trapscatter", *{argv + ["--out", out]!r}]
before = "numpy" in sys.modules
try:
    cli.entrypoint()
except SystemExit as done:
    code = done.code
late = sorted(m for m in sys.modules if m.startswith("trapscatter") and m not in frozen_modules)
print(json.dumps([code, before, freezes, gc.get_freeze_count() > 0, os.path.exists({out!r}), late]))
"""
        report = json.loads(_run_fresh("-c", by_entrypoint).splitlines()[-1])
        assert report == [0, False, [[True, True, False]], True, True, []], argv


# (a command line stopped before any computing, its exit code, the last line
# of its stderr); the config file "unknown.cfg" holds "frobnicate = 3"
_STAGE_ONE_EXITS = [
    (["--help"], 0, None),
    (["sweep-angle", "--points", "x"], 2,
     "trapscatter sweep-angle: error: argument --points: invalid int value: 'x'\n"),
    (["sweep-angle", "--t", "5", "--config", "unknown.cfg"], 2,
     "config-invalid: config: unknown key 'frobnicate'\n"),
    (["sweep-angle", "--t-over-tc", "0.7", "--points", "1"], 2, "config-invalid: points: must be >= 2\n"),
    (["sweep-angle", "--t", "5", "--k-incident", "-1"], 2, "config-invalid: k-incident: must be positive\n"),
    (["sweep-temp", "--t-over-tc-lo", "0.2", "--t-over-tc-hi", "1.4"], 2,
     "config-invalid: delta: sweep-temp needs a positive fixed --delta\n"),
]
_MODEL = ["numpy", "trapscatter.sweeps", "trapscatter.quad", "trapscatter.scattering",
          "trapscatter.thermo", "trapscatter.oracle", "trapscatter.oscillator"]


def test_cli_checks_the_command_line_before_numpy_loads(tmp_path):
    # a fresh interpreter imports the CLI and runs, in-process, command lines
    # that exit before computing: none of them loads numpy or the model
    (tmp_path / "unknown.cfg").write_text("frobnicate = 3\n")
    script = f"""
import contextlib, io, json, os, sys
os.chdir({str(tmp_path)!r})
import trapscatter.cli
model = {_MODEL!r}
report = [[m for m in model if m in sys.modules], [m for m in ("dataclasses", "inspect") if m in sys.modules]]
for argv in {[argv for argv, _, _ in _STAGE_ONE_EXITS]!r}:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = trapscatter.cli.main(argv)
        except SystemExit as done:
            code = done.code
    report.append([code, stdout.getvalue(), stderr.getvalue(), [m for m in model if m in sys.modules]])
print(json.dumps(report))
"""
    imported, declared_by, *runs = json.loads(_run_fresh("-c", script).splitlines()[-1])
    assert imported == []
    # the options are declared by one table, with no dataclass machinery
    assert declared_by == []
    for (argv, code, err), (got_code, got_out, got_err, loaded) in zip(_STAGE_ONE_EXITS, runs, strict=True):
        assert (got_code, loaded) == (code, []), argv
        if err is None:  # --help
            assert got_out.startswith("usage: trapscatter ") and got_err == ""
        else:
            assert got_out == "" and got_err.endswith(err), argv
            assert got_err == err or got_err.startswith("usage: trapscatter sweep-angle "), argv


def test_cli_loads_the_oracle_only_for_its_methods(tmp_path):
    # semiclassical sweeps load numpy, thermo and scattering but not the
    # oracle and its oscillator; --method both and oracle-compare load them
    common = ["--n", "300", "--k-incident", "100", "--points", "2"]
    commands = [
        ["sweep-angle", "--t", "5", "--method", "semiclassical", *common],
        ["sweep-temp", "--delta", "1", "--t-lo", "2", "--t-hi", "5", *common],
        ["sweep-angle", "--t", "5", "--method", "both", *common],
    ]
    compare = ["oracle-compare", "--t", "5", "--format", "json", *common]
    script = """
import json, sys
from trapscatter.cli import main
report = []
for i, argv in enumerate(json.loads(sys.argv[1])):
    code = main(argv + ["--out", f"{sys.argv[2]}/{i}.out"])
    report.append([code] + [m in sys.modules for m in json.loads(sys.argv[3])])
print(json.dumps(report))
"""
    loaded = ["numpy", "trapscatter.thermo", "trapscatter.scattering", "trapscatter.oracle",
              "trapscatter.oscillator"]
    sweeps = _run_fresh("-c", script, json.dumps(commands), str(tmp_path), json.dumps(loaded))
    assert json.loads(sweeps.splitlines()[-1]) == [
        [0, True, True, True, False, False],
        [0, True, True, True, False, False],
        [0, True, True, True, True, True],
    ]
    report = _run_fresh("-c", script, json.dumps([compare]), str(tmp_path), json.dumps(loaded))
    assert json.loads(report.splitlines()[-1]) == [[0, True, True, True, True, True]]


def _fresh_env(openblas_threads=None):
    """This environment with the package imported from this tree and the caller's OPENBLAS_NUM_THREADS."""
    src = str(Path(trapscatter.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return env


def _run_fresh(*args, openblas_threads=None):
    """stdout of a fresh interpreter run with `args`, importing the package from this tree.

    OPENBLAS_NUM_THREADS is the caller's value or unset: once this process has
    imported `trapscatter.cli` its own environment holds the CLI's default,
    which a child inheriting it would report back whatever the code did.
    """
    done = subprocess.run([sys.executable, *args], env=_fresh_env(openblas_threads), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_package_root_is_lazy():
    script = """
import json, sys
import trapscatter
before = "numpy" in sys.modules
trapscatter.TrapEnsemble
touched = "numpy" in sys.modules
namespace = {}
exec("from trapscatter import *", namespace)
try:
    trapscatter.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({"before": before, "touched": touched, "unknown": unknown,
                  "unresolved": [n for n in trapscatter.__all__ if n not in namespace]}))
"""
    report = json.loads(_run_fresh("-c", script).splitlines()[-1])
    assert report["before"] is False
    assert report["touched"] is True
    assert report["unknown"] == "AttributeError"
    assert report["unresolved"] == []


def test_every_submodule_all_resolves():
    # a name deleted from a module but left in its __all__ breaks `import *`
    modules = [info.name for info in pkgutil.iter_modules(trapscatter.__path__)]
    assert {"cli", "oracle", "oscillator", "quad", "scattering", "thermo"} <= set(modules)
    for module in modules:
        namespace = {}
        exec(f"from trapscatter.{module} import *", namespace)
        exported = getattr(sys.modules[f"trapscatter.{module}"], "__all__", ())
        assert [name for name in exported if name not in namespace] == [], module


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="threads counted from /proc")
@pytest.mark.parametrize("caller_value, threads", [(None, 1), ("2", 2)])
def test_cli_runs_blas_single_threaded_by_default(caller_value, threads):
    # numpy, and with it OpenBLAS, loads once a command has passed its checks
    if caller_value is not None and len(os.sched_getaffinity(0)) < int(caller_value):
        pytest.skip("OpenBLAS starts no more threads than there are usable CPUs")
    script = (f"import os, trapscatter.cli; trapscatter.cli.main({_SMALL_SWEEP + ['--out', os.devnull]!r}); "
              "print(len(os.listdir('/proc/self/task')))")
    assert _run_fresh("-c", script, openblas_threads=caller_value).split() == [str(threads)]


def test_perfbench_tracer_runs_on_the_lazy_root(tmp_path):
    # the tracer swaps wrappers into every loaded trapscatter module's dict,
    # and the package root's dict fills only as its names are first read
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"
    spans_path = tmp_path / "spans.json"
    _run_fresh(str(tracer), str(spans_path), "sweep-angle", "--n", "500", "--t-over-tc", "0.7",
               "--k-incident", "100", "--delta-lo", "0.5", "--delta-hi", "8", "--points", "3",
               "--out", str(tmp_path / "a.csv"))
    names = {span[0] for span in json.loads(spans_path.read_text())["spans"]}
    assert {"cli.sweep", "scattering.excited_pair_shape", "quad.polylog3"} <= names


@pytest.mark.parametrize("args", [
    ["sweep-angle", "--n", "500", "--t-over-tc", "0.7", "--k-incident", "100", "--delta-lo", "0.5",
     "--delta-hi", "8", "--points", "3", "--method", "both"],
    ["sweep-temp", "--n", "500", "--t-over-tc-lo", "0.5", "--t-over-tc-hi", "1.2", "--points", "3",
     "--delta", "1.0", "--k-incident", "100", "--method", "both"],
])
def test_perfbench_tracer_finds_every_traced_name(tmp_path, args):
    # the tracer looks its functions up by name: a renamed one fails its run
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"
    spans_path = tmp_path / "spans.json"
    _run_fresh(str(tracer), str(spans_path), *args, "--out", str(tmp_path / "table.csv"))
    names = {span[0] for span in json.loads(spans_path.read_text())["spans"]}
    assert {"cli.sweep", "oracle.solve_mu_discrete"} <= names
