"""Config parsing, sweep orchestration, CSV and CLI entry tests."""

import dataclasses
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import pinchsec as ps
from pinchsec import cli, montecarlo

DATA_DIR = Path(__file__).parent / "data"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def fast_dict(**extra):
    base = {"snr_db_grid": [0.0, 10.0, 20.0], "mc_trials": 2000,
            "quadrature_n": 200}
    base.update(extra)
    return base


class TestConfigFromDict:
    def test_empty_gives_table_defaults(self):
        cfg = cli.config_from_dict({})
        assert cfg.scenario.side_length == 25.0
        assert cfg.scenario.waveguide_height == 3.0
        assert cfg.carrier_freq == 10e9
        assert cfg.attenuation == 0.01
        assert cfg.target.rate == 0.01
        assert cfg.snr_db_grid == tuple(float(s) for s in range(-10, 55, 5))
        assert len(cfg.snr_db_grid) == 13
        assert cfg.quadrature_n == 1000
        assert (cfg.mc.trials, cfg.mc.seed, cfg.mc.chunk_size) == (50000, 12345, 4096)
        assert cfg.workers == 1
        assert cfg.output_path is None

    def test_rejects_negative_side(self):
        with pytest.raises(cli.ConfigError, match="side_length_D"):
            cli.config_from_dict({"side_length_D": -1})

    def test_rejects_unknown_key(self):
        with pytest.raises(cli.ConfigError, match="unknown config key.*side_length"):
            cli.config_from_dict({"side_length": 25.0})

    def test_rate_from_bps_and_bandwidth(self):
        cfg = cli.config_from_dict({"target_rate_bps": 10000.0, "bandwidth_hz": 1e6})
        assert cfg.target.rate == 0.01

    def test_bps_uses_default_bandwidth(self):
        assert cli.config_from_dict({"target_rate_bps": 20000.0}).target.rate == 0.02

    def test_bits_and_bps_exclusive(self):
        with pytest.raises(cli.ConfigError, match="mutually exclusive"):
            cli.config_from_dict({"target_rate_bits": 0.01, "target_rate_bps": 1e4})

    def test_bandwidth_requires_bps(self):
        with pytest.raises(cli.ConfigError, match="bandwidth_hz"):
            cli.config_from_dict({"bandwidth_hz": 1e6})

    def test_grid_validation(self):
        with pytest.raises(cli.ConfigError, match="snr_db_grid"):
            cli.config_from_dict({"snr_db_grid": []})
        with pytest.raises(cli.ConfigError, match="strictly increasing"):
            cli.config_from_dict({"snr_db_grid": [0.0, 0.0, 5.0]})
        with pytest.raises(cli.ConfigError, match="finite"):
            cli.config_from_dict({"snr_db_grid": [0.0, math.inf]})
        with pytest.raises(cli.ConfigError, match="numbers"):
            cli.config_from_dict({"snr_db_grid": ["a", "b"]})

    def test_numeric_validation(self):
        with pytest.raises(cli.ConfigError, match="attenuation_alpha"):
            cli.config_from_dict({"attenuation_alpha": -0.01})
        with pytest.raises(cli.ConfigError, match="mc_trials"):
            cli.config_from_dict({"mc_trials": 99})
        with pytest.raises(cli.ConfigError, match="mc_trials"):
            cli.config_from_dict({"mc_trials": True})
        with pytest.raises(cli.ConfigError, match="mc_seed"):
            cli.config_from_dict({"mc_seed": 1.5})
        with pytest.raises(cli.ConfigError, match="quadrature_n"):
            cli.config_from_dict({"quadrature_n": 0})
        with pytest.raises(cli.ConfigError, match="quadrature_n"):
            cli.config_from_dict({"quadrature_n": 99})
        with pytest.raises(cli.ConfigError, match="output_path"):
            cli.config_from_dict({"output_path": 7})

    def test_integral_float_accepted(self):
        assert cli.config_from_dict({"mc_trials": 2000.0}).mc.trials == 2000

    def test_unequal_noises_allowed_in_config(self):
        cfg = cli.config_from_dict({"noise_bob_var": 1.0, "noise_willie_var": 2.0})
        assert cfg.noise_willie == 2.0

    def test_channel_at_snr(self):
        cfg = cli.config_from_dict({})
        chan = cfg.channel_at_snr_db(30.0)
        assert chan.tx_power == pytest.approx(1000.0, rel=1e-15)
        assert chan.attenuation == 0.01


class TestLoadConfig:
    def test_empty_file_means_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        cfg = cli.load_config(str(path))
        assert cfg.snr_db_grid == cli.config_from_dict({}).snr_db_grid

    def test_round_trip(self, tmp_path):
        path = write_json(tmp_path, "c.json", fast_dict(attenuation_alpha=0.0))
        cfg = cli.load_config(path)
        assert cfg.attenuation == 0.0
        assert cfg.mc.trials == 2000

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(cli.ConfigError, match="not valid JSON"):
            cli.load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="cannot read"):
            cli.load_config(str(tmp_path / "absent.json"))

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(cli.ConfigError, match="JSON object"):
            cli.load_config(path.as_posix())


class TestRunSweep:
    def test_grid_order_and_sanity(self):
        cfg = cli.config_from_dict(fast_dict())
        records = cli.run_sweep(cfg)
        assert [r.snr_db for r in records] == [0.0, 10.0, 20.0]
        for r in records:
            assert 0.0 <= r.sop_lb <= r.sop_ub <= 1.0
            assert r.esc_lb <= r.esc_ub
            assert r.sop_asym_lb <= r.sop_asym_ub
            assert all(math.isfinite(v) for v in dataclasses.astuple(r))
        # asymptotes do not depend on the grid point
        assert len({r.sop_asym_ub for r in records}) == 1
        assert len({r.esc_asym_ub for r in records}) == 1

    def test_one_mc_pass_and_one_asymptote_per_sweep(self, monkeypatch):
        calls = {"draws": 0, "sop_asym": 0, "esc_asym": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(montecarlo, "_draw_positions",
                            counted("draws", montecarlo._draw_positions))
        monkeypatch.setattr(cli, "sop_asymptotic", counted("sop_asym", cli.sop_asymptotic))
        monkeypatch.setattr(cli, "esc_asymptotic", counted("esc_asym", cli.esc_asymptotic))
        cfg = cli.config_from_dict(fast_dict(mc_chunk_size=512))
        records = cli.run_sweep(cfg)
        assert calls == {"draws": cfg.mc.n_chunks, "sop_asym": 1, "esc_asym": 1}
        assert len(records) == 3

    def test_bound_rejection_precedes_mc(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("positions drawn for a config the bounds reject")

        def rejecting_bounds(*args):
            raise ValueError("bounds reject this config")

        monkeypatch.setattr(montecarlo, "_draw_positions", no_draws)
        monkeypatch.setattr(cli, "sop_bounds", rejecting_bounds)
        with pytest.raises(ValueError, match="bounds reject"):
            cli.run_sweep(cli.config_from_dict(fast_dict()))

    @pytest.mark.parametrize("extra", [{"attenuation_alpha": 20.0},
                                       {"side_length_D": 1e6}])
    def test_underflowed_span_sweeps(self, extra):
        # alpha * D >= 500 underflows exp(-2 alpha D) to 0.0; the model,
        # and with it every bracket, stays well defined
        records = cli.run_sweep(cli.config_from_dict(fast_dict(
            snr_db_grid=[0.0, 40.0, 80.0], **extra)))
        assert len(records) == 3
        for r in records:
            assert all(math.isfinite(v) for v in dataclasses.astuple(r))
            assert r.sop_lb <= r.sop_ub and r.sop_asym_lb <= r.sop_asym_ub
            assert r.esc_lb <= r.esc_ub and r.esc_asym_lb <= r.esc_asym_ub
            assert r.sop_lb - 3.0 * r.sop_mc_se <= r.sop_mc <= r.sop_ub + 3.0 * r.sop_mc_se
            assert r.esc_lb - 3.0 * r.esc_mc_se <= r.esc_mc <= r.esc_ub + 3.0 * r.esc_mc_se

    def test_zero_attenuation_collapses_columns(self):
        cfg = cli.config_from_dict(fast_dict(attenuation_alpha=0.0))
        for r in cli.run_sweep(cfg):
            assert r.sop_lb == r.sop_ub
            assert r.esc_lb == r.esc_ub
            assert r.sop_asym_lb == r.sop_asym_ub
            assert r.esc_asym_lb == r.esc_asym_ub

    def test_rejects_unequal_noises(self):
        cfg = cli.config_from_dict(fast_dict(noise_willie_var=2.0))
        with pytest.raises(cli.ConfigError, match="noise"):
            cli.run_sweep(cfg)

    def test_worker_invariance(self):
        base = cli.config_from_dict(fast_dict())
        lines1 = cli.csv_lines(cli.run_sweep(base))
        lines3 = cli.csv_lines(cli.run_sweep(dataclasses.replace(base, workers=3)))
        assert lines1 == lines3

    def test_rerun_identical(self):
        cfg = cli.config_from_dict(fast_dict())
        assert cli.csv_lines(cli.run_sweep(cfg)) == cli.csv_lines(cli.run_sweep(cfg))


class TestCsv:
    HEADER = ("snr_db,sop_lb,sop_ub,sop_asym_lb,sop_asym_ub,sop_mc,sop_mc_se,"
              "esc_lb,esc_ub,esc_asym_lb,esc_asym_ub,esc_mc,esc_mc_se,"
              "fa_sop_mc,fa_esc_mc")

    def test_column_order(self):
        assert ",".join(f.name for f in dataclasses.fields(cli.SweepRecord)) == self.HEADER

    def test_write_read_round_trip(self, tmp_path):
        cfg = cli.config_from_dict(fast_dict())
        records = cli.run_sweep(cfg)
        path = tmp_path / "sweep.csv"
        cli.write_csv(records, str(path))
        back = cli.read_csv(str(path))
        assert back == records  # float-exact field equality

    def test_file_layout(self, tmp_path):
        cfg = cli.config_from_dict(fast_dict(snr_db_grid=[20.0]))
        path = tmp_path / "one.csv"
        cli.write_csv(cli.run_sweep(cfg), str(path))
        raw = path.read_bytes()
        assert raw.startswith(self.HEADER.encode("ascii") + b"\n")
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        assert len(raw.split(b"\n")) == 3  # header + row + trailing empty

    def test_reruns_byte_identical(self, tmp_path):
        cfg = cli.config_from_dict(fast_dict())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.write_csv(cli.run_sweep(cfg), str(a))
        cli.write_csv(cli.run_sweep(dataclasses.replace(cfg, workers=4)), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_default_sweep_matches_golden(self):
        # The golden file changes only with a CHANGES.md entry saying why.
        lines = cli.csv_lines(cli.run_sweep(cli.config_from_dict({})))
        text = "".join(line + "\n" for line in lines)
        assert text.encode("ascii") == (DATA_DIR / "default_sweep.csv").read_bytes()

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="ascii")
        with pytest.raises(cli.CliError, match="header"):
            cli.read_csv(str(path))

    def test_read_rejects_short_row(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text(self.HEADER + "\n1.0,2.0\n", encoding="ascii")
        with pytest.raises(cli.CliError, match="malformed"):
            cli.read_csv(str(path))


class TestValidateStats:
    def test_default_all_pass(self):
        report = cli.validate_stats(cli.config_from_dict({}), ks_samples=20000)
        assert report.passed
        assert len(report.checks) == 9
        text = str(report)
        assert "PASS" in text and "FAIL" not in text
        assert "normalization" in text and "continuity" in text and "KS" in text

    def test_mismatched_sampler_fails_ks(self):
        report = cli.validate_stats(cli.config_from_dict({}), ks_samples=20000,
                                    sample_zb_dist=ps.ZbDistribution(26.0))
        assert not report.passed
        failing = [c.name for c in report.checks if not c.passed]
        assert failing == ["KS statistic Zb sampler"]
        assert "SOME CHECKS FAILED" in str(report)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            cli.validate_stats(cli.config_from_dict({}), ks_samples=0)

    def test_normalization_integrates_the_density(self, monkeypatch):
        pdf = ps.ZbDistribution.pdf
        monkeypatch.setattr(ps.ZbDistribution, "pdf", lambda self, z: 1.001 * pdf(self, z))
        report = cli.validate_stats(cli.config_from_dict({}), ks_samples=20000)
        failing = [c.name for c in report.checks if not c.passed]
        assert "pdf_zb normalization residual" in failing

    def test_normalization_near_the_pole(self):
        # the densities see only offsets from d^2, so d^2 = 900 >> D^2 costs
        # no resolution near the Zb pole
        cfg = cli.config_from_dict({"side_length_D": 1.0, "waveguide_height_d": 30.0})
        report = cli.validate_stats(cfg, ks_samples=20000)
        residuals = {c.name: c.value for c in report.checks if "normalization" in c.name}
        assert max(residuals.values()) < 1e-12


class TestMain:
    def test_sweep_to_file(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        rc = cli.main(["sweep", "--snr-db", "0,20", "--trials", "1000",
                       "--quad-n", "200", "--out", str(out)])
        assert rc == 0
        assert len(cli.read_csv(str(out))) == 2
        stdout = capsys.readouterr().out
        assert "wrote 2 grid points" in stdout
        assert "snr_db" in stdout

    def test_sweep_to_stdout(self, capsys):
        rc = cli.main(["sweep", "--snr-db", "20", "--trials", "1000", "--quad-n", "200"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == TestCsv.HEADER
        assert len(lines) == 2

    def test_sop_subcommand(self, capsys):
        outs = []
        for workers in ("1", "2"):
            rc = cli.main(["sop", "--snr-db", "40,45", "--trials", "5000", "--quad-n", "200",
                           "--workers", workers])
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert "snr_db 40" in outs[0] and "sop in [" in outs[0] and "+/-" in outs[0]
        assert outs[0] == outs[1]

    def test_esc_subcommand(self, capsys):
        rc = cli.main(["esc", "--snr-db", "40", "--trials", "500", "--quad-n", "200"])
        assert rc == 0
        assert "esc in [" in capsys.readouterr().out

    def test_mc_only_allows_unequal_noises(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json",
                          {"noise_willie_var": 4.0, "snr_db_grid": [30.0, 45.0],
                           "mc_trials": 5000})
        outs = []
        for workers in ("1", "2"):
            assert cli.main(["mc-only", "--config", path, "--workers", workers]) == 0
            outs.append(capsys.readouterr().out)
        assert "pa_sop" in outs[0]
        assert outs[0] == outs[1]

    def test_sop_rejects_unequal_noises(self, tmp_path, capsys):
        path = write_json(tmp_path, "u.json",
                          {"noise_willie_var": 4.0, "snr_db_grid": [30.0],
                           "mc_trials": 500})
        rc = cli.main(["sop", "--config", path])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_validate_stats_passes(self, capsys):
        rc = cli.main(["validate-stats"])
        assert rc == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_validate_stats_failure_exit_code(self, capsys, monkeypatch):
        bad = cli.StatsReport(checks=(cli.StatsCheck("forced", 1.0, 0.5, False),))
        monkeypatch.setattr(cli, "validate_stats", lambda cfg: bad)
        rc = cli.main(["validate-stats"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", {"side_length_D": -1})
        few_nodes = write_json(tmp_path, "few.json", {"quadrature_n": 99})
        # flags go through the same validator as the file, so errors name the key
        cases = ((["sweep", "--config", path], "side_length_D"),
                 (["sweep", "--config", few_nodes], "quadrature_n"),
                 (["sweep", "--alpha", "nan"], "attenuation_alpha"),
                 (["sweep", "--trials", "50"], "mc_trials"),
                 (["mc-only", "--quad-n", "0"], "quadrature_n"),
                 # two nodes gave a wrong SOP asymptote with exit 0
                 (["sop", "--quad-n", "2", "--snr-db=20,40", "--trials", "1000"],
                  "quadrature_n"))
        for argv, key in cases:
            assert cli.main(argv) == 2, argv
            assert key in capsys.readouterr().err, argv

    def test_bad_snr_list(self, capsys):
        assert cli.main(["sweep", "--snr-db", "5,3"]) == 2
        assert "strictly increasing" in capsys.readouterr().err
        for grid in ("0,nan", "0,inf"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(["sweep", "--snr-db", grid]) == 2, grid
            err = capsys.readouterr().err
            assert "snr_db_grid" in err and "finite" in err, grid

    def test_snr_list_may_start_negative(self, capsys):
        outs = []
        for flag in (["--snr-db", "-10,0"], ["--snr-db=-10,0"]):
            assert cli.main(["sweep", *flag, "--trials", "100", "--quad-n", "100"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert [line.split(",")[0] for line in outs[0].splitlines()[1:]] == ["-10.0", "0.0"]
        # a flag right after --snr-db is still a missing value
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--snr-db", "--trials", "100"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_bad_workers(self, capsys):
        assert cli.main(["sweep", "--workers", "0", "--snr-db", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_module_entry_point_runs_clean(self):
        # importing the package must not import cli, or runpy warns under -m
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "pinchsec.cli", "sweep",
             "--snr-db", "0", "--trials", "100", "--quad-n", "100"],
            capture_output=True, text=True, timeout=120,
            env={"PATH": "", "PYTHONPATH": str(SRC_DIR), "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.startswith(TestCsv.HEADER + "\n")

    def test_cli_overrides_config(self, tmp_path):
        path = write_json(tmp_path, "o.json", fast_dict(mc_seed=7))
        args = cli._build_parser().parse_args(
            ["sweep", "--config", path, "--seed", "9", "--trials", "300",
             "--alpha", "0.02", "--workers", "2"])
        cfg = cli._config_from_args(args)
        assert cfg.mc.seed == 9
        assert cfg.mc.trials == 300
        assert cfg.attenuation == 0.02
        assert cfg.workers == 2
        assert cfg.snr_db_grid == (0.0, 10.0, 20.0)
