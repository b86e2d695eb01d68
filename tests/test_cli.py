"""Config parsing, sweep orchestration, CSV and CLI entry tests."""

import dataclasses
import importlib.util
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pinchsec as ps
from conftest import DATA_DIR, NO_AVX512, golden_path
from pinchsec import cli, montecarlo

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


def assert_sweep_clean(data):
    """A small sweep of config `data` runs without a warning and gives finite records.

    It keeps the top of the config's grid, where the model's scales peak,
    and runs 3 points at 100 trials and 100 nodes: run_sweep where the
    noises are equal, the Monte Carlo alone where they differ.
    """
    cfg = cli.config_from_dict(data)
    grid = cfg.snr_db_grid
    small = cli.config_from_dict({**data, "snr_db_grid": [grid[0] - 20.0, grid[0] - 10.0,
                                                          *grid][-3:],
                                  "mc_trials": 100, "quadrature_n": 100})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if small.channel.noise_bob == small.channel.noise_willie:
            values = [v for rec in cli.run_sweep(small) for v in vars(rec).values()]
        else:
            values = montecarlo._mc_sweep(small.scenario, small.channel, small.tx_powers,
                                          small.target, small.mc).ravel().tolist()
    assert len(values) >= 3 * 4 and all(math.isfinite(v) for v in values), data


class TestConfigFromDict:
    def test_empty_gives_table_defaults(self):
        cfg = cli.config_from_dict({})
        assert cfg.scenario.side_length == 25.0
        assert cfg.scenario.waveguide_height == 3.0
        assert cfg.channel.carrier_freq == 10e9
        assert cfg.channel.attenuation == 0.01
        assert cfg.target.rate == 0.01
        assert cfg.snr_db_grid == tuple(float(s) for s in range(-10, 55, 5))
        assert len(cfg.snr_db_grid) == 13
        assert cfg.quadrature_n == 200
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
        with pytest.raises(cli.ConfigError, match="numbers"):
            cli.config_from_dict({"snr_db_grid": [True, 2]})
        with pytest.raises(cli.ConfigError, match="finite"):
            cli.config_from_dict({"snr_db_grid": [0.0, 10 ** 400]})

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
        # non-finite ints, a number beyond float range and a seed beyond 64 bits
        for key, value in (("quadrature_n", math.inf), ("quadrature_n", math.nan),
                           ("mc_trials", -math.inf), ("side_length_D", 10 ** 400),
                           ("mc_seed", 2 ** 64)):
            with pytest.raises(cli.ConfigError, match=key):
                cli.config_from_dict({key: value})

    def test_float_range_limits_sit_where_the_model_overflows(self):
        # each pair straddles the limit: 3 D^3, 2 alpha D / ln 2, 5 D^2/4 + d^2 and
        # its noise power, eta, and the peak SNR eta*P/(d^2 sigma^2) at the top of the grid
        cases = (("side_length_D", {}, 3.9e102, 4.0e102),
                 ("side_length_D", {}, 2.3e-103, 2.2e-103),
                 ("attenuation_alpha", {}, 2.4e306, 2.6e306),
                 ("waveguide_height_d", {}, 1.3e154, 1.4e154),
                 ("noise_bob_var", {"noise_willie_var": 1.0}, 2e305, 3e305),
                 ("noise_bob_var", {"noise_willie_var": 2e305}, 2e305, 3e305),
                 ("carrier_freq_hz", {"snr_db_grid": [-3000.0]}, 1.0e153, 1.1e153),
                 ("carrier_freq_hz", {"snr_db_grid": [-3000.0]}, 1.8e-147, 1.7e-147),
                 ("snr_db_grid", {"carrier_freq_hz": 1e-144}, [0.0, 40.0], [0.0, 60.0]))
        for key, extra, inside, outside in cases:
            assert_sweep_clean({key: inside, **extra})
            with pytest.raises(cli.ConfigError, match=f"^{key}: .*float range"):
                cli.config_from_dict({key: outside, **extra})

    def test_accepts_every_benchmark_workload(self):
        # the benchmark feeds these dicts to config_from_dict; a row that
        # rejected one of their keys would fail every benchmark operation
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for name in workloads.WORKLOADS:
            for tiny in (False, True):
                data = workloads.config_for(name, seed=1, tiny=tiny)
                cfg = cli.config_from_dict(data)
                assert list(cfg.snr_db_grid) == data["snr_db_grid"], (name, tiny)
                assert cfg.mc.trials == data["mc_trials"], (name, tiny)

    def test_integral_float_accepted(self):
        assert cli.config_from_dict({"mc_trials": 2000.0}).mc.trials == 2000

    def test_unequal_noises_allowed_in_config(self):
        cfg = cli.config_from_dict({"noise_bob_var": 1.0, "noise_willie_var": 2.0})
        assert cfg.channel.noise_willie == 2.0

    def test_channel_at_snr(self):
        cfg = cli.config_from_dict({"snr_db_grid": [-10.0, 30.0], "noise_willie_var": 2.0})
        assert cfg.tx_powers.tolist() == [10.0 ** (-10.0 / 10.0), 10.0 ** (30.0 / 10.0)]
        assert cfg.tx_powers[1] == pytest.approx(1000.0, rel=1e-15)
        assert cfg.channel.attenuation == 0.01
        assert (cfg.channel.noise_bob, cfg.channel.noise_willie) == (1.0, 2.0)


class TestLoadConfig:
    def test_empty_file_means_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        cfg = cli.load_config(str(path))
        assert cfg.snr_db_grid == cli.config_from_dict({}).snr_db_grid

    def test_round_trip(self, tmp_path):
        path = write_json(tmp_path, "c.json", fast_dict(attenuation_alpha=0.0))
        cfg = cli.load_config(path)
        assert cfg.channel.attenuation == 0.0
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

    def test_one_mc_pass_and_one_bracket_call_per_metric(self, monkeypatch):
        calls = {"draws": 0, "sop_asym": 0, "esc_asym": 0, "sop": 0, "esc": 0}
        powers = []

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                if key in ("sop", "esc"):
                    powers.append(args[2])
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(montecarlo, "_draw_positions",
                            counted("draws", montecarlo._draw_positions))
        monkeypatch.setattr(cli, "sop_asymptotic", counted("sop_asym", cli.sop_asymptotic))
        monkeypatch.setattr(cli, "esc_asymptotic", counted("esc_asym", cli.esc_asymptotic))
        # each bound metric takes the whole grid and rho = inf in one call
        monkeypatch.setattr(cli, "sop_bounds", counted("sop", cli.sop_bounds))
        monkeypatch.setattr(cli, "esc_bounds", counted("esc", cli.esc_bounds))
        cfg = cli.config_from_dict(fast_dict(mc_chunk_size=512))
        records = cli.run_sweep(cfg)
        assert calls == {"draws": len(montecarlo._slabs(cfg.mc)), "sop_asym": 0, "esc_asym": 0,
                         "sop": 1, "esc": 1}
        for tx_powers in powers:
            assert list(tx_powers) == [*cfg.tx_powers.tolist(), math.inf]
        assert len(records) == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_leaves_numpy_ufunc_state_as_found(self, workers):
        # numpy's ufunc buffer size and error handling belong to the caller's
        # thread; a sweep may change them inside a scope, never past its return
        cfg = cli.config_from_dict(fast_dict(workers=workers, mc_chunk_size=512))
        for size in (np.getbufsize(), 4096, 16):
            old = np.setbufsize(size)
            try:
                with np.errstate(divide="ignore", over="ignore"):
                    before = (np.getbufsize(), np.geterr())
                    cli.run_sweep(cfg)
                    assert (np.getbufsize(), np.geterr()) == before
            finally:
                np.setbufsize(old)

    @pytest.mark.parametrize("alpha", [0.01, 0.0, 20.0])  # at 20 the span exp(-2 alpha D) is 0
    def test_asymptote_columns_are_the_asymptotes_bit_for_bit(self, alpha):
        cfg = cli.config_from_dict(fast_dict(attenuation_alpha=alpha, mc_trials=100))
        rule = ps.make_rule(cfg.quadrature_n)
        sop = ps.sop_asymptotic(cfg.scenario, cfg.channel, cfg.target, rule)
        esc = ps.esc_asymptotic(cfg.scenario, cfg.channel, rule)
        for r in cli.run_sweep(cfg):
            assert (r.sop_asym_lb, r.sop_asym_ub) == (sop.lower, sop.upper)
            assert (r.esc_asym_lb, r.esc_asym_ub) == (esc.lower, esc.upper)

    def test_non_finite_value_names_column_and_point(self, monkeypatch):
        esc_bounds = cli.esc_bounds

        def nan_at_second_point(*args):
            pair = esc_bounds(*args)
            pair.upper[1] = math.nan
            return pair

        monkeypatch.setattr(cli, "esc_bounds", nan_at_second_point)
        with pytest.raises(cli.CliError, match=r"^non-finite esc_ub at snr_db = 10\.0$"):
            cli.run_sweep(cli.config_from_dict(fast_dict()))

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
        """The default sweep, byte for byte, in this numpy's class.

        The golden files change only with a CHANGES.md entry saying why.  A
        change meant to move their bytes regenerates both classes' files,
        from the repository root on an AVX-512 machine, with

            PYTHONPATH=src python3 -m pinchsec.cli sweep > tests/data/default_sweep.csv
            NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" PYTHONPATH=src python3 -m pinchsec.cli sweep > tests/data/no_avx512/default_sweep.csv
        """
        lines = cli.csv_lines(cli.run_sweep(cli.config_from_dict({})))
        text = "".join(line + "\n" for line in lines)
        assert text.encode("ascii") == golden_path("default_sweep.csv").read_bytes()

    def test_goldens_match_without_avx512(self):
        # the byte-pinned checks again in a child whose numpy takes its AVX2
        # loops, so that on an AVX-512 machine both classes' files are read
        checks = ["tests/test_cli.py::TestCsv::test_default_sweep_matches_golden",
                  "tests/test_bounds.py::TestSopKernel::test_dense_grid_matches_golden",
                  "tests/test_montecarlo.py::TestInfinitePower::"
                  "test_underflowed_loss_takes_the_loss_free_limit"]
        script = ("import sys, pytest\n"
                  "from conftest import simd_class\n"
                  "assert simd_class() == 'no_avx512', simd_class()\n"
                  "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *sys.argv[1:]]))")
        proc = subprocess.run(
            [sys.executable, "-c", script, *checks], capture_output=True, text=True, timeout=300,
            cwd=SRC_DIR.parent,
            env={"PATH": "", "PYTHONPATH": f"{SRC_DIR}:{SRC_DIR.parent / 'tests'}",
                 "PYTHONDONTWRITEBYTECODE": "1", **NO_AVX512})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert f"{len(checks)} passed" in proc.stdout, proc.stdout

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="ascii")
        with pytest.raises(cli.CliError, match="header"):
            cli.read_csv(str(path))

    def test_read_rejects_short_row(self, tmp_path):
        # a short row, and one of the right length with a non-numeric field
        path = tmp_path / "y.csv"
        for row in ("1.0,2.0", ",".join(["1.0"] * 14 + ["abc"])):
            path.write_text(self.HEADER + "\n" + row + "\n", encoding="ascii")
            with pytest.raises(cli.CliError, match="malformed CSV row"):
                cli.read_csv(str(path))


class TestValidateStats:
    def test_default_all_pass(self):
        report = cli.validate_stats(cli.config_from_dict({}), ks_samples=20000)
        assert report.passed
        assert len(report.checks) == 9
        text = str(report)
        assert "PASS" in text and "FAIL" not in text
        assert "normalization" in text and "continuity" in text and "KS" in text

    def test_mismatched_sampler_fails_ks(self, monkeypatch):
        sample = ps.ZbDistribution.sample
        monkeypatch.setattr(ps.ZbDistribution, "sample",
                            lambda self, rng, n: sample(ps.ZbDistribution(26.0), rng, n))
        report = cli.validate_stats(cli.config_from_dict({}), ks_samples=20000)
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
        # only sweep writes a CSV: the other commands reject --out instead of ignoring it
        elsewhere = tmp_path / "elsewhere.csv"
        for command in ("sop", "esc", "mc-only", "validate-stats"):
            with pytest.raises(SystemExit) as exit_info:
                cli.main([command, "--snr-db", "20", "--trials", "100", "--out", str(elsewhere)])
            assert exit_info.value.code == 2
            assert "--out" in capsys.readouterr().err
        # nor do they ignore output_path from a config file
        config = tmp_path / "out.json"
        config.write_text(json.dumps({"output_path": str(elsewhere)}), encoding="utf-8")
        for command in ("sop", "esc", "mc-only", "validate-stats"):
            rc = cli.main([command, "--config", str(config), "--snr-db", "20", "--trials", "100"])
            assert rc == 2
            captured = capsys.readouterr()
            assert "output_path" in captured.err and captured.out == ""
        assert not elsewhere.exists()

    def test_sweep_summary_keeps_digits(self, tmp_path, capsys):
        # the table printed after --out: quarter-dB labels stay distinct and
        # parse back to the grid, small ESC values keep their digits, and the
        # columns stay aligned
        grid = [-0.75, -0.25, 0.25, 0.75]
        out = tmp_path / "grid.csv"
        rc = cli.main(["sweep", "--snr-db", ",".join(map(str, grid)), "--trials", "100",
                       "--out", str(out)])
        assert rc == 0
        table = capsys.readouterr().out.splitlines()[1:]
        assert len({len(line) for line in table}) == 1
        header, *rows = [line.split() for line in table]
        assert [float(row[0]) for row in rows] == grid
        for record, row in zip(cli.read_csv(str(out)), rows):
            for column, field in (("esc_lb", "esc_lb"), ("esc_ub", "esc_ub"),
                                  ("esc_mc", "esc_mc"), ("fa_esc", "fa_esc_mc")):
                value = getattr(record, field)
                assert value != 0.0
                assert float(row[header.index(column)]) == pytest.approx(value, rel=1e-5)

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

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "grid.csv"  # a directory that does not exist
        with pytest.raises(cli.CliError, match="cannot write"):
            cli.write_csv([], str(out))
        rc = cli.main(["sweep", "--snr-db", "20", "--trials", "100", "--quad-n", "100",
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and str(out) in err

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
        bad = cli.StatsReport(checks=(cli.StatsCheck("forced", 1.0, 0.5),))
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
        for i, (key, value) in enumerate((("quadrature_n", math.inf),
                                          ("quadrature_n", math.nan),
                                          ("side_length_D", 10 ** 400),
                                          ("mc_seed", 2 ** 64))):
            cases += ((["sweep", "--config", write_json(tmp_path, f"{i}.json", {key: value})],
                       key),)
        for argv, key in cases:
            assert cli.main(argv) == 2, argv
            assert key in capsys.readouterr().err, argv

    @pytest.mark.parametrize("command, key, value", [
        ("sweep", "side_length_D", 1e153),     # D^3 overflowed in diststats: errno 34
        ("mc-only", "side_length_D", 1e160),   # overflowed the MC geometry, then exit 0
        ("sweep", "carrier_freq_hz", 1e-200),  # fc^2 underflowed to 0: division by zero
        ("sweep", "attenuation_alpha", 1e308),  # 2 alpha D / ln 2 overflowed: esc_asym_lb inf
    ])
    def test_model_overflow_names_the_key(self, command, key, value, tmp_path, capsys):
        # an error line naming the key, not a traceback, errno text or warnings
        path = write_json(tmp_path, "x.json", {key: value, "snr_db_grid": [0.0, 10.0],
                                               "mc_trials": 100})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and "float range" in err, err

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

    def test_out_of_range_snr_names_the_grid(self, capsys):
        # 10^(dB/10) overflows at 3100 dB and is 0.0 at -4000 dB
        for grid in ("3100", "-4000", "0,3100"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(["sop", f"--snr-db={grid}", "--trials", "100"]) == 2, grid
            captured = capsys.readouterr()
            assert captured.out == "", grid
            assert captured.err.startswith("error: snr_db_grid: "), captured.err
            assert "out of range" in captured.err and "Traceback" not in captured.err
        # -3200 dB is 1e-320, subnormal but positive: it still runs
        assert cli.main(["sop", "--snr-db=-3200", "--trials", "100"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("snr_db -3200: sop in [1, 1],"), captured.out

    @pytest.mark.parametrize("rate", [511, 600])
    def test_huge_target_rate_is_certain_outage(self, rate, tmp_path, capsys):
        # 4^Rbar overflows from Rbar = 512 on; either way no placement meets it
        path = write_json(tmp_path, "rate.json", {"target_rate_bits": rate})
        assert cli.main(["sop", "--config", path, "--snr-db=-10,50", "--trials", "100"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["snr_db -10", "snr_db 50"]
        for line in lines:
            assert line.endswith(": sop in [1, 1], asymptote [1, 1], mc 1 +/- 0"), line

    def test_underflowed_snr_is_certain_outage(self, capsys):
        # eta * rho underflows to 0 at -3200 dB; with Rbar > 0 outage is certain
        assert cli.main(["sop", "--snr-db=-3200,0", "--trials", "100"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("snr_db -3200: sop in [1, 1],"), first

    def test_underflowed_snr_at_zero_rate_keeps_bracket(self):
        # with Rbar = 0 the SOP bracket does not depend on rho
        low, high = cli.run_sweep(cli.config_from_dict(fast_dict(
            snr_db_grid=[-3200.0, 0.0], target_rate_bits=0.0)))
        assert (low.sop_lb, low.sop_ub) == (high.sop_lb, high.sop_ub)

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

    def test_far_room_esc_asymptote_runs_clean(self, tmp_path):
        # (D/d)^2 = 1e400 passes the float-range checks; at rho = inf u/d^2
        # then overflows, yet the ESC asymptote is finite
        path = write_json(tmp_path, "far.json",
                          {"waveguide_height_d": 1e-100, "side_length_D": 1e100,
                           "snr_db_grid": [0.0, 40.0], "mc_trials": 100, "quadrature_n": 100})
        out = tmp_path / "far.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "pinchsec.cli", "sweep", "--config", path,
             "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env={"PATH": "", "PYTHONPATH": str(SRC_DIR), "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        records = cli.read_csv(str(out))
        assert len(records) == 2
        assert all(math.isfinite(v) for rec in records for v in (rec.esc_asym_lb, rec.esc_asym_ub))

    def test_cli_overrides_config(self, tmp_path):
        path = write_json(tmp_path, "o.json", fast_dict(mc_seed=7))
        args = cli._build_parser().parse_args(
            ["sweep", "--config", path, "--seed", "9", "--trials", "300",
             "--alpha", "0.02", "--workers", "2"])
        cfg = cli._config_from_args(args)
        assert cfg.mc.seed == 9
        assert cfg.mc.trials == 300
        assert cfg.channel.attenuation == 0.02
        assert cfg.workers == 2
        assert cfg.snr_db_grid == (0.0, 10.0, 20.0)

    @pytest.mark.parametrize("command", ["sop", "esc", "mc-only"])
    def test_subcommand_stdout_is_pinned(self, command, tmp_path, capsys):
        # a small fixed run of each printing subcommand, byte for byte;
        # mc-only at unequal noises, which the bounds reject
        if command == "mc-only":
            path = write_json(tmp_path, "m.json",
                              {"noise_willie_var": 4.0, "snr_db_grid": [-10.0, 30.0, 45.0, 60.0],
                               "mc_trials": 2000})
            argv = ["mc-only", "--config", path]
        else:
            argv = [command, "--snr-db=-10,20,40,45,50,60,80", "--trials", "2000",
                    "--quad-n", "200"]
        assert cli.main(argv) == 0
        want = (DATA_DIR / f"stdout_{command.replace('-', '_')}.txt").read_text(encoding="ascii")
        assert capsys.readouterr().out == want
