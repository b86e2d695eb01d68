"""Command-line front end: config loading, SNR sweeps, CSV output, checks.

`run_sweep` evaluates the analytical bounds, their high-SNR asymptotes
(once per sweep: they do not depend on rho) and, in one Monte Carlo pass
over the position stream, the PA and FA estimates on a dB grid of the
transmit SNR rho.  The `sweep` subcommand writes its records as CSV, one
row per grid point; `sop` and `esc` print column selections of the same
records; `mc-only` prints the Monte Carlo engine's output directly, which
also allows unequal noise levels.  `workers` sizes the engine's chunk
pool.  Output is data only; plotting is left to external tools.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import (_bob_sum, _willie_sums, esc_asymptotic, esc_bounds, sop_asymptotic,
                     sop_bounds)
from .diststats import ZbDistribution, ZwDistribution, cdf_pdf_fd_gap, ks_statistic
from .model import ChannelParams, Scenario, SecrecyTarget
from .montecarlo import McConfig, _mc_sweep
# unused here: bench/tracer.py patches these names, bench/smoke.py expects all of them
from .montecarlo import mc_esc_fa, mc_esc_pa, mc_sop_fa, mc_sop_pa  # noqa: F401
from .quad import make_rule


class ConfigError(ValueError):
    """Invalid or unknown configuration input; message names the key."""


class CliError(RuntimeError):
    pass


_DEFAULT_GRID = tuple(float(s) for s in range(-10, 55, 5))

_KNOWN_KEYS = frozenset({
    "side_length_D", "waveguide_height_d", "carrier_freq_hz",
    "attenuation_alpha", "noise_bob_var", "noise_willie_var",
    "target_rate_bits", "target_rate_bps", "bandwidth_hz",
    "snr_db_grid", "quadrature_n", "mc_trials", "mc_seed",
    "mc_chunk_size", "workers", "output_path",
})


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    carrier_freq: float
    attenuation: float
    noise_bob: float
    noise_willie: float
    target: SecrecyTarget
    snr_db_grid: tuple[float, ...]
    quadrature_n: int
    mc: McConfig
    workers: int
    output_path: str | None

    def channel_at_snr_db(self, snr_db: float) -> ChannelParams:
        rho = 10.0 ** (snr_db / 10.0)
        return ChannelParams(carrier_freq=self.carrier_freq,
                             attenuation=self.attenuation,
                             tx_power=rho,
                             noise_bob=self.noise_bob,
                             noise_willie=self.noise_willie)


# CSV columns, in emission order
@dataclass(frozen=True)
class SweepRecord:
    snr_db: float
    sop_lb: float
    sop_ub: float
    sop_asym_lb: float
    sop_asym_ub: float
    sop_mc: float
    sop_mc_se: float
    esc_lb: float
    esc_ub: float
    esc_asym_lb: float
    esc_asym_ub: float
    esc_mc: float
    esc_mc_se: float
    fa_sop_mc: float
    fa_esc_mc: float


def _require_number(data, key, default, minimum=None, strict=False):
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{key}: value must be finite")
    if minimum is not None:
        if strict and not value > minimum:
            raise ConfigError(f"{key}: must be > {minimum}")
        if not strict and not value >= minimum:
            raise ConfigError(f"{key}: must be >= {minimum}")
    return value


def _require_int(data, key, default, minimum):
    value = data.get(key, default)
    if isinstance(value, bool):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    if isinstance(value, float):
        if value != int(value):
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        value = int(value)
    if not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}")
    return value


def config_from_dict(data: dict) -> RunConfig:
    """RunConfig from a flat key/value mapping; absent keys take defaults."""
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config key: {sorted(unknown)[0]!r}")

    side = _require_number(data, "side_length_D", 25.0, minimum=0.0, strict=True)
    height = _require_number(data, "waveguide_height_d", 3.0, minimum=0.0, strict=True)
    carrier = _require_number(data, "carrier_freq_hz", 10e9, minimum=0.0, strict=True)
    alpha = _require_number(data, "attenuation_alpha", 0.01, minimum=0.0)
    noise_b = _require_number(data, "noise_bob_var", 1.0, minimum=0.0, strict=True)
    noise_w = _require_number(data, "noise_willie_var", 1.0, minimum=0.0, strict=True)

    if "target_rate_bits" in data and "target_rate_bps" in data:
        raise ConfigError("target_rate_bits and target_rate_bps are mutually exclusive")
    if "bandwidth_hz" in data and "target_rate_bps" not in data:
        raise ConfigError("bandwidth_hz requires target_rate_bps")
    if "target_rate_bps" in data:
        bps = _require_number(data, "target_rate_bps", None, minimum=0.0)
        bw = _require_number(data, "bandwidth_hz", 1e6, minimum=0.0, strict=True)
        rate = bps / bw
    else:
        rate = _require_number(data, "target_rate_bits", 0.01, minimum=0.0)

    grid = data.get("snr_db_grid", list(_DEFAULT_GRID))
    if not isinstance(grid, (list, tuple)) or len(grid) == 0:
        raise ConfigError("snr_db_grid: expected a nonempty list of dB values")
    try:
        grid = tuple(float(v) for v in grid)
    except (TypeError, ValueError):
        raise ConfigError("snr_db_grid: entries must be numbers") from None
    if not all(math.isfinite(v) for v in grid):
        raise ConfigError("snr_db_grid: entries must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("snr_db_grid: values must be strictly increasing")

    # below 100 nodes per interval the bounds err by more than 1e-6 (1.4 at n = 2)
    quad_n = _require_int(data, "quadrature_n", 1000, minimum=100)
    trials = _require_int(data, "mc_trials", 50000, minimum=100)
    seed = _require_int(data, "mc_seed", 12345, minimum=0)
    chunk = _require_int(data, "mc_chunk_size", 4096, minimum=1)
    workers = _require_int(data, "workers", 1, minimum=1)

    out = data.get("output_path")
    if out is not None and not isinstance(out, str):
        raise ConfigError("output_path: expected a string")

    try:
        return RunConfig(scenario=Scenario(side_length=side, waveguide_height=height),
                         carrier_freq=carrier,
                         attenuation=alpha,
                         noise_bob=noise_b,
                         noise_willie=noise_w,
                         target=SecrecyTarget(rate=rate),
                         snr_db_grid=grid,
                         quadrature_n=quad_n,
                         mc=McConfig(trials=trials, seed=seed, chunk_size=chunk),
                         workers=workers,
                         output_path=out)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read_config(path: str) -> dict:
    """The flat key/value mapping of a JSON config file; empty means {}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        data = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a JSON object")
    return data


def load_config(path: str) -> RunConfig:
    """Parse a flat JSON config file; an empty file means all defaults."""
    return config_from_dict(_read_config(path))


def run_sweep(cfg: RunConfig) -> list[SweepRecord]:
    """One SweepRecord per grid point, in grid order.

    All bounds come before the Monte Carlo pass, so a config the bounds
    reject fails before any trial is drawn.
    """
    if cfg.noise_bob != cfg.noise_willie:
        raise ConfigError("the bounds need noise_bob_var == noise_willie_var; "
                          "use mc-only for distinct noise levels")
    rule = make_rule(cfg.quadrature_n)
    chans = [cfg.channel_at_snr_db(s) for s in cfg.snr_db_grid]
    # the asymptotes depend on the channel only through attenuation_span
    sop_asym = sop_asymptotic(cfg.scenario, chans[0], cfg.target, rule)
    esc_asym = esc_asymptotic(cfg.scenario, chans[0], rule)
    brackets = [(sop_bounds(cfg.scenario, chan, cfg.target, rule),
                 esc_bounds(cfg.scenario, chan, rule)) for chan in chans]
    estimates = _mc_sweep(cfg.scenario, chans, cfg.target, cfg.mc, cfg.workers)
    records = []
    for snr_db, (sop, esc), (sop_mc, esc_mc, fa_sop, fa_esc) in zip(
            cfg.snr_db_grid, brackets, estimates):
        record = SweepRecord(snr_db=snr_db,
                             sop_lb=sop.lower, sop_ub=sop.upper,
                             sop_asym_lb=sop_asym.lower, sop_asym_ub=sop_asym.upper,
                             sop_mc=sop_mc.mean, sop_mc_se=sop_mc.std_error,
                             esc_lb=esc.lower, esc_ub=esc.upper,
                             esc_asym_lb=esc_asym.lower, esc_asym_ub=esc_asym.upper,
                             esc_mc=esc_mc.mean, esc_mc_se=esc_mc.std_error,
                             fa_sop_mc=fa_sop.mean, fa_esc_mc=fa_esc.mean)
        for name, value in dataclasses.asdict(record).items():
            if not math.isfinite(value):
                raise CliError(f"non-finite {name} at snr_db = {snr_db}")
        records.append(record)
    return records


def csv_lines(records) -> list[str]:
    names = [f.name for f in dataclasses.fields(SweepRecord)]
    lines = [",".join(names)]
    for rec in records:
        # repr of a float is the shortest string that parses back to the same bits
        lines.append(",".join(repr(float(getattr(rec, name))) for name in names))
    return lines


def write_csv(records, path: str) -> None:
    """Write records with an exact header row and LF line endings."""
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            for line in csv_lines(records):
                fh.write(line + "\n")
    except OSError as exc:
        raise CliError(f"cannot write {path!r}: {exc}") from exc


def read_csv(path: str) -> list[SweepRecord]:
    """Inverse of write_csv; round-trips every value exactly."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        lines = fh.read().split("\n")
    names = [f.name for f in dataclasses.fields(SweepRecord)]
    if lines[0] != ",".join(names):
        raise CliError(f"unexpected CSV header in {path!r}")
    records = []
    for line in lines[1:]:
        if line == "":
            continue
        parts = line.split(",")
        if len(parts) != len(names):
            raise CliError(f"malformed CSV row: {line!r}")
        records.append(SweepRecord(**{n: float(v) for n, v in zip(names, parts)}))
    return records


@dataclass(frozen=True)
class StatsCheck:
    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class StatsReport:
    checks: tuple[StatsCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        out = [f"{c.name}: {c.value:.6e} (tolerance {c.tolerance:.3e}) "
               f"{'PASS' if c.passed else 'FAIL'}" for c in self.checks]
        out.append("all checks passed" if self.passed else "SOME CHECKS FAILED")
        return "\n".join(out)


_NORMALIZATION_NODES = 65536


def validate_stats(cfg: RunConfig, ks_samples: int = 200000,
                   sample_zb_dist: ZbDistribution | None = None,
                   sample_zw_dist: ZwDistribution | None = None) -> StatsReport:
    """Self-checks of the distance distributions against their samplers.

    sample_*_dist override which distribution generates the KS samples
    (the analytical CDFs always come from cfg); they exist so a deliberate
    mismatch can be demonstrated to fail.
    """
    if ks_samples < 1:
        raise ValueError("ks_samples must be >= 1")
    zb, zw = ZbDistribution(cfg.scenario.side_length), ZwDistribution(cfg.scenario.side_length)
    rule = make_rule(_NORMALIZATION_NODES)
    res_b = abs(_bob_sum(cfg.scenario, rule, np.ones_like) - 1.0)
    res_w = abs(sum(_willie_sums(cfg.scenario, rule, np.ones_like)) - 1.0)

    b0, b1, b2, b3 = zw.breakpoints
    cont1 = abs(float(zw.cdf_piece1(b1)) - float(zw.cdf_piece2(b1)))
    cont2 = abs(float(zw.cdf_piece2(b2)) - float(zw.cdf_piece3(b2)))
    cont3 = abs(float(zw.cdf_piece3(b3)) - 1.0)

    crit = 1.63 / math.sqrt(ks_samples)
    draws_b = (sample_zb_dist or zb).sample(np.random.default_rng(cfg.mc.seed), ks_samples)
    draws_w = (sample_zw_dist or zw).sample(np.random.default_rng(cfg.mc.seed), ks_samples)
    ks_b = ks_statistic(draws_b, zb.cdf)
    ks_w = ks_statistic(draws_w, zw.cdf)

    fd_b = cdf_pdf_fd_gap(zb)
    fd_w = cdf_pdf_fd_gap(zw)

    checks = (
        StatsCheck("pdf_zb normalization residual", res_b, 1e-8, res_b < 1e-8),
        StatsCheck("pdf_zw normalization residual", res_w, 1e-8, res_w < 1e-8),
        StatsCheck("cdf_zw continuity at first breakpoint", cont1, 1e-9, cont1 < 1e-9),
        StatsCheck("cdf_zw continuity at second breakpoint", cont2, 1e-9, cont2 < 1e-9),
        StatsCheck("cdf_zw closure at support end", cont3, 1e-9, cont3 < 1e-9),
        StatsCheck("KS statistic Zb sampler", ks_b, crit, ks_b < crit),
        StatsCheck("KS statistic Zw sampler", ks_w, crit, ks_w < crit),
        StatsCheck("CDF-PDF consistency Zb", fd_b, 1e-5, fd_b < 1e-5),
        StatsCheck("CDF-PDF consistency Zw", fd_w, 1e-5, fd_w < 1e-5),
    )
    return StatsReport(checks=checks)


def _summary_lines(records) -> list[str]:
    lines = [f"{'snr_db':>7} {'sop_lb':>10} {'sop_ub':>10} {'sop_mc':>10} "
             f"{'esc_lb':>10} {'esc_ub':>10} {'esc_mc':>10} {'fa_sop':>10} {'fa_esc':>10}"]
    for r in records:
        lines.append(f"{r.snr_db:>7.1f} {r.sop_lb:>10.6f} {r.sop_ub:>10.6f} "
                     f"{r.sop_mc:>10.6f} {r.esc_lb:>10.6f} {r.esc_ub:>10.6f} "
                     f"{r.esc_mc:>10.6f} {r.fa_sop_mc:>10.6f} {r.fa_esc_mc:>10.6f}")
    return lines


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchsec",
        description="Secrecy outage and ergodic secrecy capacity of a "
                    "pinching-antenna system versus a fixed-antenna baseline.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    # each flag's dest is its config key, so config_from_dict validates it
    common.add_argument("--out", dest="output_path", metavar="PATH", help="output CSV path")
    common.add_argument("--seed", dest="mc_seed", type=int, help="Monte Carlo seed")
    common.add_argument("--trials", dest="mc_trials", type=int, help="Monte Carlo trials")
    common.add_argument("--quad-n", dest="quadrature_n", type=int,
                        help="quadrature nodes per integration interval (>= 100)")
    common.add_argument("--snr-db", dest="snr_db_grid", metavar="LIST",
                        type=lambda text: text.split(","),
                        help="comma-separated dB grid, e.g. 0,10,20")
    common.add_argument("--alpha", dest="attenuation_alpha", type=float,
                        help="attenuation in nepers/m")
    common.add_argument("--workers", type=int, help="Monte Carlo chunk workers")
    for name, help_text in (
            ("sweep", "bounds + asymptotes + Monte Carlo over the grid, to CSV"),
            ("sop", "outage bounds and Monte Carlo per grid point"),
            ("esc", "capacity bounds and Monte Carlo per grid point"),
            ("validate-stats", "distribution self-checks"),
            ("mc-only", "Monte Carlo estimates only (allows unequal noises)")):
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def _config_from_args(args) -> RunConfig:
    """The --config file (or defaults) with every given flag set under its key."""
    data = _read_config(args.config) if args.config else {}
    data.update((key, value) for key, value in vars(args).items()
                if key in _KNOWN_KEYS and value is not None)
    return config_from_dict(data)


def _cmd_sweep(cfg: RunConfig) -> int:
    records = run_sweep(cfg)
    if cfg.output_path:
        write_csv(records, cfg.output_path)
        print(f"wrote {len(records)} grid points to {cfg.output_path}")
        for line in _summary_lines(records):
            print(line)
    else:
        for line in csv_lines(records):
            print(line)
    return 0


def _cmd_metric(cfg: RunConfig, label: str) -> int:
    """The `label` (sop or esc) columns of the sweep, one line per grid point."""
    for r in run_sweep(cfg):
        lb, ub, asym_lb, asym_ub, mc, se = (getattr(r, f"{label}_{col}") for col in
                                            ("lb", "ub", "asym_lb", "asym_ub", "mc", "mc_se"))
        print(f"snr_db {r.snr_db:g}: {label} in [{lb:.12g}, {ub:.12g}], "
              f"asymptote [{asym_lb:.12g}, {asym_ub:.12g}], mc {mc:.12g} +/- {se:.3g}")
    return 0


def _cmd_mc_only(cfg: RunConfig) -> int:
    chans = [cfg.channel_at_snr_db(s) for s in cfg.snr_db_grid]
    estimates = _mc_sweep(cfg.scenario, chans, cfg.target, cfg.mc, cfg.workers)
    for snr, (sop, esc, fa_sop, fa_esc) in zip(cfg.snr_db_grid, estimates):
        print(f"snr_db {snr:g}: pa_sop {sop.mean:.12g} +/- {sop.std_error:.3g}, "
              f"pa_esc {esc.mean:.12g} +/- {esc.std_error:.3g}, "
              f"fa_sop {fa_sop.mean:.12g}, fa_esc {fa_esc.mean:.12g}")
    return 0


def _glue_snr_list(argv: list[str]) -> list[str]:
    """`--snr-db -10,0` as `--snr-db=-10,0`: argparse reads -10,0 as a flag."""
    out = []
    for arg in argv:
        if out and out[-1] == "--snr-db" and re.match(r"-\.?\d", arg):
            out[-1] = f"--snr-db={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(_glue_snr_list(sys.argv[1:] if argv is None else argv))
    try:
        cfg = _config_from_args(args)
        if args.command == "sweep":
            return _cmd_sweep(cfg)
        if args.command in ("sop", "esc"):
            return _cmd_metric(cfg, args.command)
        if args.command == "mc-only":
            return _cmd_mc_only(cfg)
        if args.command == "validate-stats":
            report = validate_stats(cfg)
            print(report)
            return 0 if report.passed else 1
        raise CliError(f"unhandled command {args.command!r}")
    except (ConfigError, CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
