import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trapscatter
from trapscatter.cli import (
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
            config.delta_grid()
        assert err.value.field == field

    def test_temperature_exclusivity(self):
        with pytest.raises(ConfigError):
            SweepConfig(t=5.0, t_over_tc=0.5).resolve_temperature()
        with pytest.raises(ConfigError):
            SweepConfig().resolve_temperature()


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

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        import trapscatter.cli as cli
        from trapscatter.scattering import RateBreakdown

        def broken(ensemble, kin, delta=None, spec=None):
            return RateBreakdown.build(
                float(ensemble.n_total), 0.0, 0.0, 0.0,
                valid={c: False for c in ("rayleigh", "diffraction", "bose_0m", "bose_mm")},
                errors={"diffraction": "ConvergenceError: synthetic"},
            )

        monkeypatch.setattr(cli, "decompose", broken)
        out = tmp_path / "fail.csv"
        code = run_main([
            "sweep-angle", "--n", "300", "--t-over-tc", "0.6",
            "--delta-lo", "1.0", "--delta-hi", "4", "--points", "3",
            "--out", str(out),
        ])
        assert code == 3
        _, rows = read_rows(out)  # table still written
        assert len(rows) == 3
        assert "diffraction:error" in rows[0]["flags"]

    def test_failure_before_rows_exit_code(self, tmp_path, capsys):
        # epsilon_max below 10 T: the shared discrete ensemble cannot be solved
        out = tmp_path / "none.csv"
        code = run_main([
            "sweep-angle", "--n", "1000", "--t", "5", "--method", "oracle",
            "--epsilon-max", "20", "--out", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical-failure: TruncationError: epsilon_max=20")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_python_m_matches_main(self, tmp_path):
        args = [
            "sweep-angle", "--n", "300", "--t-over-tc", "0.6",
            "--k-incident", "100", "--points", "3",
        ]
        via_main = tmp_path / "main.csv"
        via_module = tmp_path / "module.csv"
        assert run_main(args + ["--out", str(via_main)]) == 0
        src = str(Path(trapscatter.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-m", "trapscatter.cli", *args, "--out", str(via_module)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert via_module.read_bytes() == via_main.read_bytes()


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
        # epsilon_max 100 cannot control the oracle tail above Tc
        out = tmp_path / "temp.json"
        code = run_main([
            "sweep-temp", "--n", "1000", "--t-over-tc-lo", "0.5", "--t-over-tc-hi", "3",
            "--points", "4", "--delta", "1", "--method", "oracle",
            "--epsilon-max", "100", "--format", "json", "--out", str(out),
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

    def test_failure_before_rows_exit_code(self, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        code = run_main([
            "oracle-compare", "--n", "1000", "--t", "5", "--method", "oracle",
            "--epsilon-max", "20", "--format", "json", "--out", str(out),
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical-failure: TruncationError")
        assert not out.exists()

    def test_csv_rejected(self, capsys):
        code = run_main([
            "oracle-compare", "--n", "500", "--t-over-tc", "0.6",
            "--delta-lo", "1.0", "--delta-hi", "4", "--points", "3",
            "--format", "csv",
        ])
        assert code == 2
        assert "config-invalid" in capsys.readouterr().err

    def test_oracle_guard(self):
        config = SweepConfig(n_total=200_000, t_over_tc=0.6, method="oracle")
        with pytest.raises(ConfigError):
            config.validate_common()


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
