"""Command-line front end: config loading, SNR sweeps, CSV output, checks.

`run_sweep` evaluates each analytical bound metric in one call over a dB
grid of the transmit power P, the SNR rho = P/sigma^2 only at unit noise,
plus P = inf, whose row is the high-SNR asymptote, and, in one Monte Carlo
pass over the position stream, the PA and FA estimates on the grid: one
channel and one array of transmit powers, whose columns form one table,
one record per row.  The `sweep` subcommand writes the records as CSV;
`sop` and `esc` print column selections of them; `mc-only` prints the
Monte Carlo engine's output directly, which also allows unequal noise
levels.  `workers` sizes the engine's slab pool.  Output is data only.
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

from .bounds import _densities, _eta_rho, esc_bounds, sop_bounds
from .diststats import ZbDistribution, ZwDistribution, cdf_pdf_fd_gap, ks_statistic
from .model import ChannelParams, Scenario, SecrecyTarget, _tx_powers
from .montecarlo import McConfig, _mc_sweep
# unused here: bench/tracer.py patches these names, bench/smoke.py expects all of them
from .bounds import esc_asymptotic, sop_asymptotic  # noqa: F401
from .montecarlo import mc_esc_fa, mc_esc_pa, mc_sop_fa, mc_sop_pa  # noqa: F401
from .quad import integrate, make_rule


class ConfigError(ValueError):
    """Invalid or unknown configuration input; message names the key."""


class CliError(RuntimeError):
    pass


# key: (kind, default, minimum, strict); a strict minimum is exclusive
_CONFIG_KEYS = {
    "side_length_D": ("number", Scenario.side_length, 0.0, True),
    "waveguide_height_d": ("number", Scenario.waveguide_height, 0.0, True),
    "carrier_freq_hz": ("number", ChannelParams.carrier_freq, 0.0, True),
    "attenuation_alpha": ("number", ChannelParams.attenuation, 0.0, False),
    "noise_bob_var": ("number", ChannelParams.noise_bob, 0.0, True),
    "noise_willie_var": ("number", ChannelParams.noise_willie, 0.0, True),
    "target_rate_bits": ("number", SecrecyTarget.rate, 0.0, False),
    "target_rate_bps": ("number", None, 0.0, False),
    "bandwidth_hz": ("number", 1e6, 0.0, True),
    "snr_db_grid": ("grid", tuple(float(s) for s in range(-10, 55, 5)), None, False),
    # brackets vs n = 4000, property configs: 3.6e-15 at n = 200, 1.4e-10 at 100, 2.1 at 2
    "quadrature_n": ("int", 200, 100, False),
    "mc_trials": ("int", McConfig.trials, 100, False),
    "mc_seed": ("int", McConfig.seed, 0, False),  # McConfig bounds it above, by 2^64
    "mc_chunk_size": ("int", McConfig.chunk_size, 1, False),
    "workers": ("int", 1, 1, False),
    "output_path": ("path", None, None, False),
}


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    channel: ChannelParams  # the sweep's one channel
    target: SecrecyTarget
    snr_db_grid: tuple[float, ...]
    quadrature_n: int
    mc: McConfig
    workers: int
    output_path: str | None

    @property
    def tx_powers(self) -> np.ndarray:
        """10^(dB/10) at each grid point, by Python's power: np.power differs in the last bit."""
        return np.array([_db_to_linear(snr_db) for snr_db in self.snr_db_grid])


def _db_to_linear(db: float) -> float:
    """10^(dB/10); +inf where that overflows (above about 3082 dB)."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


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


def _grid(value) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ConfigError("snr_db_grid: expected a nonempty list of dB values")
    if any(isinstance(v, bool) for v in value):
        raise ConfigError("snr_db_grid: entries must be numbers")
    try:
        grid = tuple(float(v) for v in value)
    except (TypeError, ValueError):
        raise ConfigError("snr_db_grid: entries must be numbers") from None
    except OverflowError:  # an int beyond float range
        raise ConfigError("snr_db_grid: entries must be finite") from None
    if not all(math.isfinite(v) for v in grid):
        raise ConfigError("snr_db_grid: entries must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("snr_db_grid: values must be strictly increasing")
    for v in grid:
        if not 0.0 < _db_to_linear(v) < math.inf:
            raise ConfigError(f"snr_db_grid: {v:g} dB is out of range "
                              "(10^(dB/10) overflows or underflows to 0)")
    return grid


def _value(data: dict, key: str):
    """data[key], or the key's default, checked against its row of _CONFIG_KEYS."""
    kind, default, minimum, strict = _CONFIG_KEYS[key]
    value = data.get(key, default)
    if kind == "grid":
        return _grid(value)
    if kind == "path":
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{key}: expected a string")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected {'an integer' if kind == 'int' else 'a number'}, "
                          f"got {value!r}")
    if not abs(value) <= sys.float_info.max:  # inf, nan or an int beyond float range
        raise ConfigError(f"{key}: value must be finite")
    if kind == "int" and value != int(value):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    value = int(value) if kind == "int" else float(value)
    if not (value > minimum if strict else value >= minimum):
        raise ConfigError(f"{key}: must be {'>' if strict else '>='} {minimum}")
    return value


def config_from_dict(data: dict) -> RunConfig:
    """RunConfig from a flat key/value mapping; absent keys take defaults."""
    unknown = data.keys() - _CONFIG_KEYS.keys()
    if unknown:
        raise ConfigError(f"unknown config key: {sorted(unknown)[0]!r}")
    if "target_rate_bits" in data and "target_rate_bps" in data:
        raise ConfigError("target_rate_bits and target_rate_bps are mutually exclusive")
    if "bandwidth_hz" in data and "target_rate_bps" not in data:
        raise ConfigError("bandwidth_hz requires target_rate_bps")
    if "target_rate_bps" in data:
        rate = _value(data, "target_rate_bps") / _value(data, "bandwidth_hz")
    else:
        rate = _value(data, "target_rate_bits")
    trials, seed, chunk = (_value(data, k) for k in ("mc_trials", "mc_seed", "mc_chunk_size"))
    try:
        mc = McConfig(trials=trials, seed=seed, chunk_size=chunk)
    except ValueError as exc:  # the rows leave McConfig only the seed's 64-bit bound
        raise ConfigError(f"mc_seed: {exc}") from exc
    cfg = RunConfig(scenario=Scenario(side_length=_value(data, "side_length_D"),
                                      waveguide_height=_value(data, "waveguide_height_d")),
                    channel=ChannelParams(carrier_freq=_value(data, "carrier_freq_hz"),
                                          attenuation=_value(data, "attenuation_alpha"),
                                          noise_bob=_value(data, "noise_bob_var"),
                                          noise_willie=_value(data, "noise_willie_var")),
                    target=SecrecyTarget(rate=rate),
                    snr_db_grid=_value(data, "snr_db_grid"),
                    quadrature_n=_value(data, "quadrature_n"),
                    mc=mc,
                    workers=_value(data, "workers"),
                    output_path=_value(data, "output_path"))
    _check_float_range(cfg)
    return cfg


def _check_float_range(cfg: RunConfig) -> None:
    """ConfigError naming the key whose value takes the model's arithmetic out of float range.

    The limits are where the model's own largest scale factors overflow:
    3 D^3 and 2 / D^3 in the Zw CDF and density, 2 alpha D / ln 2 in the ESC
    bracket at rho = inf, Willie's farthest squared distance 5 D^2/4 + d^2 and
    its noise power, eta = c^2 / (16 pi^2 fc^2) and 1 / eta (eta is 0 once
    16 pi^2 fc^2 overflows), and the peak SNR eta * P / (d^2 sigma^2) at the
    grid's largest P, which the rate kernel forms.
    """
    D, d = cfg.scenario.side_length, cfg.scenario.waveguide_height
    far = lambda: 1.25 * D ** 2 + d ** 2  # noqa: E731
    chan, top = cfg.channel, _db_to_linear(cfg.snr_db_grid[-1])
    checks = (
        ("side_length_D", "3 D^3", lambda: 3.0 * D ** 3),
        ("side_length_D", "2 / D^3", lambda: 2.0 / D ** 3),
        ("attenuation_alpha", "2 alpha D / ln 2", lambda: 2.0 * chan.attenuation * D / math.log(2)),
        ("waveguide_height_d", "5 D^2/4 + d^2", far),
        ("noise_bob_var", "(5 D^2/4 + d^2) sigma^2", lambda: far() * chan.noise_bob),
        ("noise_willie_var", "(5 D^2/4 + d^2) sigma^2", lambda: far() * chan.noise_willie),
        ("carrier_freq_hz", "eta = c^2/(16 pi^2 fc^2)", lambda: chan.eta),
        ("carrier_freq_hz", "1 / eta", lambda: 1.0 / chan.eta),
        ("snr_db_grid", f"the peak SNR eta*P/(d^2 sigma^2) at {cfg.snr_db_grid[-1]:g} dB "
                        "(it grows as carrier_freq_hz, waveguide_height_d or a noise "
                        "variance falls)",
         lambda: chan.eta * top / (d ** 2 * min(chan.noise_bob, chan.noise_willie))))
    for key, name, expression in checks:
        try:
            in_range = expression() <= sys.float_info.max
        except (OverflowError, ZeroDivisionError):
            in_range = False
        if not in_range:
            raise ConfigError(f"{key}: {name} leaves the float range")


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
    reject fails before any trial is drawn.  The columns form one table,
    checked finite at once; its first bad cell, row by row, is named.
    """
    chan, powers = cfg.channel, _tx_powers(cfg.tx_powers)
    try:
        _eta_rho(chan, powers)
    except ValueError as exc:  # the powers passed above, so this is rho's equal-noise rule
        raise ConfigError("the bounds need noise_bob_var == noise_willie_var; "
                          "use mc-only for distinct noise levels") from exc
    # each bracket's last row, at rho = inf, is its high-SNR asymptote
    rule, with_inf = make_rule(cfg.quadrature_n), np.append(powers, math.inf)
    sop = sop_bounds(cfg.scenario, chan, with_inf, cfg.target, rule)
    esc = esc_bounds(cfg.scenario, chan, with_inf, rule)
    # (mean, se) rows of pa_sop, pa_esc, fa_sop and fa_esc, each over the grid
    sop_mc, esc_mc, fa_sop, fa_esc = np.moveaxis(
        _mc_sweep(cfg.scenario, chan, powers, cfg.target, cfg.mc, cfg.workers)
        .reshape(len(powers), 4, 2), 0, -1)
    table = np.column_stack(np.broadcast_arrays(
        cfg.snr_db_grid, sop.lower[:-1], sop.upper[:-1], sop.lower[-1], sop.upper[-1], *sop_mc,
        esc.lower[:-1], esc.upper[:-1], esc.lower[-1], esc.upper[-1], *esc_mc,
        fa_sop[0], fa_esc[0]))
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        row, column = bad[0]
        raise CliError(f"non-finite {dataclasses.fields(SweepRecord)[column].name} "
                       f"at snr_db = {cfg.snr_db_grid[row]}")
    return [SweepRecord(*values) for values in table.tolist()]


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
        try:
            records.append(SweepRecord(*map(float, line.split(","))))
        except (TypeError, ValueError):  # a wrong field count or a non-numeric field
            raise CliError(f"malformed CSV row: {line!r}") from None
    return records


@dataclass(frozen=True)
class StatsCheck:
    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.value < self.tolerance


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


def validate_stats(cfg: RunConfig, ks_samples: int = 200000) -> StatsReport:
    """Self-checks of the distance distributions against their samplers."""
    if ks_samples < 1:
        raise ValueError("ks_samples must be >= 1")
    zb, zw = ZbDistribution(cfg.scenario.side_length), ZwDistribution(cfg.scenario.side_length)
    rule = make_rule(cfg.quadrature_n)
    masses = [width * integrate(rule, pdf) for width, _, pdf in _densities(cfg.scenario, rule)]
    res_b, res_w = abs(masses[0] - 1.0), abs(sum(masses[1:]) - 1.0)

    b0, b1, b2, b3 = zw.breakpoints
    cont1 = abs(float(zw.cdf_piece1(b1)) - float(zw.cdf_piece2(b1)))
    cont2 = abs(float(zw.cdf_piece2(b2)) - float(zw.cdf_piece3(b2)))
    cont3 = abs(float(zw.cdf_piece3(b3)) - 1.0)

    crit = 1.63 / math.sqrt(ks_samples)
    draws_b = zb.sample(np.random.default_rng(cfg.mc.seed), ks_samples)
    draws_w = zw.sample(np.random.default_rng(cfg.mc.seed), ks_samples)
    ks_b = ks_statistic(draws_b, zb.cdf)
    ks_w = ks_statistic(draws_w, zw.cdf)

    fd_b = cdf_pdf_fd_gap(zb)
    fd_w = cdf_pdf_fd_gap(zw)

    checks = (
        StatsCheck("pdf_zb normalization residual", res_b, 1e-8),
        StatsCheck("pdf_zw normalization residual", res_w, 1e-8),
        StatsCheck("cdf_zw continuity at first breakpoint", cont1, 1e-9),
        StatsCheck("cdf_zw continuity at second breakpoint", cont2, 1e-9),
        StatsCheck("cdf_zw closure at support end", cont3, 1e-9),
        StatsCheck("KS statistic Zb sampler", ks_b, crit),
        StatsCheck("KS statistic Zw sampler", ks_w, crit),
        StatsCheck("CDF-PDF consistency Zb", fd_b, 1e-5),
        StatsCheck("CDF-PDF consistency Zw", fd_w, 1e-5),
    )
    return StatsReport(checks=checks)


def _summary_lines(records) -> list[str]:
    """The sweep's main columns, 6 significant digits each, in columns of 8 and 12 characters."""
    lines = [f"{'snr_db':>8} {'sop_lb':>12} {'sop_ub':>12} {'sop_mc':>12} {'esc_lb':>12} "
             f"{'esc_ub':>12} {'esc_mc':>12} {'fa_sop':>12} {'fa_esc':>12}"]
    for r in records:
        values = (r.sop_lb, r.sop_ub, r.sop_mc, r.esc_lb, r.esc_ub, r.esc_mc, r.fa_sop_mc,
                  r.fa_esc_mc)
        lines.append(f"{r.snr_db:>8g}" + "".join(f" {value:>12.6g}" for value in values))
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
    common.add_argument("--seed", dest="mc_seed", type=int, help="Monte Carlo seed")
    common.add_argument("--trials", dest="mc_trials", type=int, help="Monte Carlo trials")
    common.add_argument("--quad-n", dest="quadrature_n", type=int,
                        help="quadrature nodes per integration interval "
                             f"(>= {_CONFIG_KEYS['quadrature_n'][2]})")
    common.add_argument("--snr-db", dest="snr_db_grid", metavar="LIST",
                        type=lambda text: text.split(","),
                        help="comma-separated dB grid of the transmit power P, e.g. "
                             "0,10,20; it is the SNR rho = P/sigma^2 only at unit noise")
    common.add_argument("--alpha", dest="attenuation_alpha", type=float,
                        help="attenuation in nepers/m")
    common.add_argument("--workers", type=int,
                        help="Monte Carlo threads, each taking slabs of whole chunks")
    for name, help_text in (
            ("sweep", "bounds + asymptotes + Monte Carlo over the grid, to CSV"),
            ("sop", "outage bounds and Monte Carlo per grid point"),
            ("esc", "capacity bounds and Monte Carlo per grid point"),
            ("validate-stats", "distribution self-checks"),
            ("mc-only", "Monte Carlo estimates only (allows unequal noises)")):
        command = sub.add_parser(name, parents=[common], help=help_text)
        if name == "sweep":  # the one command that writes the CSV
            command.add_argument("--out", dest="output_path", metavar="PATH",
                                 help="output CSV path")
    return parser


def _config_from_args(args) -> RunConfig:
    """The --config file (or defaults) with every given flag set under its key."""
    data = _read_config(args.config) if args.config else {}
    data.update((key, value) for key, value in vars(args).items()
                if key in _CONFIG_KEYS and value is not None)
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
    estimates = _mc_sweep(cfg.scenario, cfg.channel, cfg.tx_powers, cfg.target, cfg.mc,
                          cfg.workers)
    for snr, (((sop, sop_se), (esc, esc_se)), ((fa_sop, _), (fa_esc, _))) in zip(
            cfg.snr_db_grid, estimates.tolist()):
        print(f"snr_db {snr:g}: pa_sop {sop:.12g} +/- {sop_se:.3g}, "
              f"pa_esc {esc:.12g} +/- {esc_se:.3g}, "
              f"fa_sop {fa_sop:.12g}, fa_esc {fa_esc:.12g}")
    return 0


def _glue_snr_list(argv: list[str]) -> list[str]:
    """`--snr-db -10,0` as `--snr-db=-10,0`: argparse reads -10,0 (or -inf,0, -nan) as a flag."""
    out = []
    for arg in argv:
        if out and out[-1] == "--snr-db" and re.match(r"-(\.?\d|inf|nan)", arg, re.IGNORECASE):
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
        if cfg.output_path is not None:  # only from a config file: the parser rejects --out here
            raise ConfigError(f"output_path: only sweep writes a CSV, {args.command} does not")
        if args.command in ("sop", "esc"):
            return _cmd_metric(cfg, args.command)
        if args.command == "mc-only":
            return _cmd_mc_only(cfg)
        report = validate_stats(cfg)  # validate-stats, the parser's last command
        print(report)
        return 0 if report.passed else 1
    except (ConfigError, CliError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
