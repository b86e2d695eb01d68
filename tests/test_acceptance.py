"""End-to-end acceptance checks at the reference parameter set.

Each criterion prints one summary line with its measured values (run
with -s to see them on passing tests).  One check, 4b, asserts a
tightness ranking (the ESC upper bound is the side nearer the Monte Carlo
mean) that the exact simulation does not show at this parameter set; no
bound in the program promises it, and it fails with the measured numbers
in the message.  Criterion 6a compares PA and FA outage only where outage
can be avoided: below rho* = (4^Rbar - 1) d^2 / eta both are exactly 1.
"""

import math
import time

import numpy as np
import pytest

import pinchsec as ps
from pinchsec import bounds, cli
from conftest import (SNR_GRID_DB, esc_at, esc_term_oracles, esc_term_values, gain,
                      pdf_mass_oracle, sop_at, sop_directions, sop_term_oracles)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _line(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_distribution_correctness(zb_dist, zw_dist):
    start = time.perf_counter()
    mass_b = abs(pdf_mass_oracle(zb_dist) - 1.0)
    mass_w = abs(pdf_mass_oracle(zw_dist) - 1.0)
    _, b1, b2, b3 = zw_dist.breakpoints
    cont = (abs(float(zw_dist.cdf_piece1(b1)) - float(zw_dist.cdf_piece2(b1))),
            abs(float(zw_dist.cdf_piece2(b2)) - float(zw_dist.cdf_piece3(b2))),
            abs(float(zw_dist.cdf_piece3(b3)) - 1.0))
    fd_b = ps.cdf_pdf_fd_gap(zb_dist)
    fd_w = ps.cdf_pdf_fd_gap(zw_dist)
    elapsed = time.perf_counter() - start

    ok = (mass_b < 1e-8 and mass_w < 1e-8 and max(cont) < 1e-9
          and fd_b < 1e-5 and fd_w < 1e-5 and elapsed < 5.0)
    _line("criterion 1 (distribution correctness)", ok,
          f"pdf mass residuals {mass_b:.2e}/{mass_w:.2e}, "
          f"continuity {max(cont):.2e}, fd gaps {fd_b:.2e}/{fd_w:.2e}, {elapsed:.2f}s")
    assert mass_b < 1e-8 and mass_w < 1e-8
    assert max(cont) < 1e-9
    assert fd_b < 1e-5 and fd_w < 1e-5
    assert elapsed < 5.0


def test_criterion_2_sampler_matches_closed_form(zb_dist, zw_dist):
    start = time.perf_counter()
    n = 200000
    crit = 1.63 / math.sqrt(n)
    ks_b = ps.ks_statistic(zb_dist.sample(np.random.default_rng(12345), n), zb_dist.cdf)
    ks_w = ps.ks_statistic(zw_dist.sample(np.random.default_rng(12345), n), zw_dist.cdf)
    elapsed = time.perf_counter() - start

    ok = ks_b < crit and ks_w < crit and elapsed < 5.0
    _line("criterion 2 (sampler vs closed form)", ok,
          f"ks {ks_b:.6f}/{ks_w:.6f} vs {crit:.6f}, {elapsed:.2f}s")
    assert ks_b < crit and ks_w < crit
    assert elapsed < 5.0


def test_criterion_3_exact_case_collapse(scenario, target, rule_1000):
    start = time.perf_counter()
    cfg = ps.McConfig()
    max_width = 0.0
    worst = 0.0  # most positive (|mc - value| - 3 se), <= 0 everywhere when ok
    chan = ps.ChannelParams(attenuation=0.0)
    for snr_db in SNR_GRID_DB:
        power = 10 ** (snr_db / 10.0)
        sop = sop_at(scenario, chan, power, target, rule_1000)
        esc = esc_at(scenario, chan, power, rule_1000)
        max_width = max(max_width, abs(sop.width), abs(esc.width))
        sop_mc = ps.mc_sop_pa(scenario, chan, power, target, cfg)
        esc_mc = ps.mc_esc_pa(scenario, chan, power, cfg)
        worst = max(worst,
                    abs(sop_mc.mean - sop.lower) - 3.0 * sop_mc.std_error,
                    abs(esc_mc.mean - esc.lower) - 3.0 * esc_mc.std_error)
    elapsed = time.perf_counter() - start

    ok = max_width < 1e-12 and worst <= 0.0 and elapsed < 30.0
    _line("criterion 3 (exact-case collapse)", ok,
          f"max bound width {max_width:.2e}, worst mc excursion beyond 3se "
          f"{worst:.2e}, {elapsed:.2f}s")
    assert max_width < 1e-12
    assert worst <= 0.0
    assert elapsed < 30.0


def test_criterion_4_bracketing(scenario, target, rule_1000):
    start = time.perf_counter()
    cfg = ps.McConfig()
    worst = -math.inf
    chan = ps.ChannelParams()
    for snr_db in SNR_GRID_DB:
        power = 10 ** (snr_db / 10.0)
        sop = sop_at(scenario, chan, power, target, rule_1000)
        esc = esc_at(scenario, chan, power, rule_1000)
        sop_mc = ps.mc_sop_pa(scenario, chan, power, target, cfg)
        esc_mc = ps.mc_esc_pa(scenario, chan, power, cfg)
        worst = max(worst,
                    sop.lower - 3.0 * sop_mc.std_error - sop_mc.mean,
                    sop_mc.mean - sop.upper - 3.0 * sop_mc.std_error,
                    esc.lower - 3.0 * esc_mc.std_error - esc_mc.mean,
                    esc_mc.mean - esc.upper - 3.0 * esc_mc.std_error)
    elapsed = time.perf_counter() - start

    ok = worst <= 0.0 and elapsed < 60.0
    _line("criterion 4a (mc inside brackets)", ok,
          f"worst excursion {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 0.0
    assert elapsed < 60.0


def test_criterion_4_esc_upper_bound_tightness(scenario, rule_1000):
    start = time.perf_counter()
    cfg = ps.McConfig()
    hits = 0
    gaps = []
    chan = ps.ChannelParams()
    for snr_db in SNR_GRID_DB:
        power = 10 ** (snr_db / 10.0)
        esc = esc_at(scenario, chan, power, rule_1000)
        mc = ps.mc_esc_pa(scenario, chan, power, cfg).mean
        if abs(esc.upper - mc) <= abs(esc.lower - mc):
            hits += 1
        gaps.append((snr_db, esc.upper - mc, mc - esc.lower))
    elapsed = time.perf_counter() - start
    need = math.ceil(0.8 * len(SNR_GRID_DB))

    ok = hits >= need and elapsed < 60.0
    _line("criterion 4b (esc upper bound tighter)", ok,
          f"tighter at {hits}/{len(SNR_GRID_DB)} points, need {need}, {elapsed:.2f}s")
    assert elapsed < 60.0
    assert hits >= need, (
        f"esc upper bound is the closer side to the Monte Carlo mean at "
        f"{hits} of {len(SNR_GRID_DB)} grid points (need {need}); "
        f"(snr_db, ub-mc, mc-lb) per point: "
        + ", ".join(f"({s:g}, {u:.3e}, {l:.3e})" for s, u, l in gaps))


def test_criterion_5_saturation(scenario, target, rule_1000):
    start = time.perf_counter()
    chan = ps.ChannelParams()

    def sop_curve(side):
        return lambda rho: getattr(sop_at(scenario, chan, rho, target, rule_1000), side)

    def esc_curve(side):
        return lambda rho: getattr(esc_at(scenario, chan, rho, rule_1000), side)

    div_up = ps.diversity_estimate(sop_curve("upper"), 1e12, 1e14)
    div_lo = ps.diversity_estimate(sop_curve("lower"), 1e12, 1e14)
    slope_up = ps.slope_estimate(esc_curve("upper"), 1e12, 1e14)
    slope_lo = ps.slope_estimate(esc_curve("lower"), 1e12, 1e14)

    sop_fin = sop_at(scenario, chan, 1e14, target, rule_1000)
    sop_asym = ps.sop_asymptotic(scenario, chan, target, rule_1000)
    esc_fin = esc_at(scenario, chan, 1e14, rule_1000)
    esc_asym = ps.esc_asymptotic(scenario, chan, rule_1000)
    rels = (_rel(sop_fin.lower, sop_asym.lower), _rel(sop_fin.upper, sop_asym.upper),
            _rel(esc_fin.lower, esc_asym.lower), _rel(esc_fin.upper, esc_asym.upper))
    elapsed = time.perf_counter() - start

    ok = (max(abs(div_up), abs(div_lo)) < 0.01
          and max(abs(slope_up), abs(slope_lo)) < 0.01
          and max(rels) < 1e-2 and elapsed < 10.0)
    _line("criterion 5 (high-snr saturation)", ok,
          f"diversity {div_up:.2e}/{div_lo:.2e}, slope {slope_up:.2e}/{slope_lo:.2e}, "
          f"asymptote gap {max(rels):.2e}, {elapsed:.2f}s")
    assert abs(div_up) < 0.01 and abs(div_lo) < 0.01
    assert abs(slope_up) < 0.01 and abs(slope_lo) < 0.01
    assert max(rels) < 1e-2
    assert elapsed < 10.0


def test_criterion_6_sop_pa_strictly_beats_fa(scenario, target, rule_1000):
    # Bob's best rate under either placement is (1/2) log2(1 + eta*rho/d^2),
    # at zero offset from the radiator.  Up to rho* = (4^Rbar - 1) d^2 / eta
    # it does not exceed Rbar, so both systems are in outage with
    # probability 1 and PA cannot be strictly below FA; the comparison is
    # strict only above rho*.
    start = time.perf_counter()
    cfg, chan = ps.McConfig(), ps.ChannelParams()
    rho_star = (target.threshold - 1.0) * scenario.waveguide_height ** 2 / chan.eta
    certain, rows = [], []
    for snr_db in SNR_GRID_DB:
        rho = 10 ** (snr_db / 10.0)
        pa = ps.mc_sop_pa(scenario, chan, rho, target, cfg).mean
        fa = ps.mc_sop_fa(scenario, chan, rho, target, cfg).mean
        if rho <= rho_star:
            pair = sop_at(scenario, chan, rho, target, rule_1000)
            certain.append((snr_db, pa, fa, pair.lower, pair.upper))
        else:
            rows.append((snr_db, pa, fa))
    elapsed = time.perf_counter() - start
    not_one = [c for c in certain if c[1:] != (1.0, 1.0, 1.0, 1.0)]
    not_strict = [(s, pa, fa) for s, pa, fa in rows if not pa < fa]

    ok = rows and not not_one and not not_strict and elapsed < 60.0
    _line("criterion 6a (sop: pa strictly below fa)", ok,
          f"rho* = {10 * math.log10(rho_star):.2f} dB; outage certain (all 1.0) at "
          f"{len(certain) - len(not_one)}/{len(certain)} points below it, pa strictly "
          f"below fa at {len(rows) - len(not_strict)}/{len(rows)} points above it, "
          f"{elapsed:.2f}s")
    assert elapsed < 60.0
    assert rows, f"no grid point lies above rho* = {rho_star!r}"
    assert not not_one, (
        "below rho* outage is certain, yet (snr_db, pa mc, fa mc, sop lb, sop ub) "
        f"is not all 1.0 at {not_one}")
    assert not not_strict, (
        f"pa outage is not strictly below fa outage above rho* at "
        f"(snr_db, pa, fa): {not_strict}")


def test_criterion_6_esc_pa_strictly_beats_fa(scenario):
    start = time.perf_counter()
    cfg = ps.McConfig()
    margins = []
    chan = ps.ChannelParams()
    for snr_db in SNR_GRID_DB:
        power = 10 ** (snr_db / 10.0)
        pa = ps.mc_esc_pa(scenario, chan, power, cfg).mean
        fa = ps.mc_esc_fa(scenario, chan, power, cfg).mean
        margins.append((snr_db, pa - fa))
    elapsed = time.perf_counter() - start
    violations = [(s, m) for s, m in margins if m <= 0.0]

    ok = not violations and elapsed < 60.0
    _line("criterion 6b (esc: pa strictly above fa)", ok,
          f"min margin {min(m for _, m in margins):.3e}, {elapsed:.2f}s")
    assert not violations, f"non-positive pa-fa esc margins at {violations}"
    assert elapsed < 60.0


def test_criterion_7_quadrature_fidelity(scenario, target, rule_1000, rule_8000):
    start = time.perf_counter()
    chan = ps.ChannelParams()
    rows = []  # (term name, refinement rel diff, oracle rel diff)

    for direction, factors in zip(("upper", "lower"), sop_directions(scenario, chan)):
        fine = bounds.sop_term_sums(scenario, target, rule_8000, [gain(chan, 1e8)], *factors)[0]
        coarse = bounds.sop_term_sums(scenario, target, rule_1000, [gain(chan, 1e8)], *factors)[0]
        oracle = sop_term_oracles(scenario, chan, 1e8, target, *factors)
        for name, c, f, o in zip("jkl", coarse, fine, oracle):
            rows.append((f"sop_{direction}_{name}", _rel(c, f), _rel(c, o)))

    for direction, factors in zip(("upper", "lower"), sop_directions(scenario, chan)[::-1]):
        fine = esc_term_values(scenario, chan, 1e8, rule_8000, *factors)
        coarse = esc_term_values(scenario, chan, 1e8, rule_1000, *factors)
        oracle = esc_term_oracles(scenario, chan, 1e8, *factors)
        for name, c, f, o in zip("cjkl", coarse, fine, oracle):
            rows.append((f"esc_{direction}_{name}", _rel(c, f), _rel(c, o)))

    elapsed = time.perf_counter() - start
    assert len(rows) == 14
    worst_refine = max(r for _, r, _ in rows)
    worst_oracle = max(o for _, _, o in rows)
    offenders = [(n, f"refine {r:.2e}", f"oracle {o:.2e}")
                 for n, r, o in rows if r >= 1e-6 or o >= 1e-6]

    ok = not offenders and elapsed < 30.0
    _line("criterion 7 (quadrature fidelity)", ok,
          f"worst refinement rel {worst_refine:.2e}, worst oracle rel "
          f"{worst_oracle:.2e}, {elapsed:.2f}s")
    assert elapsed < 30.0
    assert not offenders, (
        "term sums off by >= 1e-6 relative at n = 1000 "
        f"(kinked or endpoint-singular integrands): {offenders}")


def test_criterion_8_sweep_determinism(tmp_path):
    start = time.perf_counter()
    digests = []
    for workers in (1, 2, 4):
        cfg = cli.config_from_dict({"workers": workers})
        for run in (1, 2):
            path = tmp_path / f"w{workers}r{run}.csv"
            cli.write_csv(cli.run_sweep(cfg), str(path))
            digests.append(path.read_bytes())
    elapsed = time.perf_counter() - start

    unique = len({d for d in digests})
    ok = unique == 1 and elapsed < 60.0
    _line("criterion 8 (sweep determinism)", ok,
          f"{len(digests)} runs across worker counts 1/2/4, {unique} distinct "
          f"outputs, {elapsed:.2f}s")
    assert unique == 1
    assert elapsed < 60.0
