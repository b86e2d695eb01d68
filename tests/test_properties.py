"""Seeded property tests over random valid parameter sets.

Fifteen configurations are drawn from a fixed seed (D log-uniform in
[1e-3, 1e4] m, d log-uniform in [1e-2, 1e3] m, alpha*D in [0, 5], fc
log-uniform in [1e8, 1e11] Hz, Rbar in [0, 2] bit/s/Hz, five grid points
in [-20, 200] dB) and joined by three fixed geometries where one length
dwarfs the other.  Each is swept at its own attenuation and at alpha = 0.
The ESC is not required to be monotone: where the loss penalty 2*alpha*D
beats the distance advantage (e.g. D = 1e-3) its lower bound is genuinely
negative and falls with rho.

The Monte Carlo ESC is held to the lower side of its bracket only where
the trials reach Bob's near field.  Bob's rate over his lateral offset y1
is flat out to L = max(d, sqrt(eta*rho)) and falls as 1/y1^2 beyond, so
the trials within L carry the mean.  Where d, sqrt(eta*rho) << D / trials
(D = 1e4, d = 0.01 below ~70 dB) the sample almost never lands there: its
mean falls short of the exact value and its standard error is no measure
of that shortfall.

A metamorphic check scales the geometry: (D, d, alpha, fc) ->
(cD, cd, alpha/c, fc/c) multiplies eta by c^2 and every squared distance
by c^2, so every SNR, every guided loss and hence every column of the
sweep is unchanged up to rounding.
"""

import dataclasses
import math

import numpy as np
import pytest

import pinchsec as ps
from pinchsec import cli

TRIALS = 20000
FIXED_GEOMETRIES = ((0.01, 100.0), (1e-3, 3.0), (1e4, 0.01))


def _draw_configs(n_random=15, seed=20261018):
    rng = np.random.default_rng(seed)
    draws = [(10.0 ** rng.uniform(-3.0, 4.0), 10.0 ** rng.uniform(-2.0, 3.0))
             for _ in range(n_random)]
    configs = []
    for side, height in [*draws, *FIXED_GEOMETRIES]:
        configs.append({
            "side_length_D": float(side),
            "waveguide_height_d": float(height),
            "attenuation_alpha": float(rng.uniform(0.0, 5.0) / side),
            "carrier_freq_hz": float(10.0 ** rng.uniform(8.0, 11.0)),
            "target_rate_bits": float(rng.uniform(0.0, 2.0)),
            "snr_db_grid": [float(v) for v in np.sort(rng.uniform(-20.0, 200.0, 5))],
            "mc_trials": TRIALS,
        })
    return configs


CONFIGS = _draw_configs()


def _ids(configs):
    return [f"D={c['side_length_D']:.3g},d={c['waveguide_height_d']:.3g}" for c in configs]


def _near_field_trials(cfg, snr_db):
    """Expected number of trials with Bob within max(d, sqrt(eta*rho)) of the radiator."""
    chan = dataclasses.replace(cfg.channel, tx_power=10 ** (snr_db / 10.0))
    reach = max(cfg.scenario.waveguide_height, math.sqrt(chan.eta * chan.rho))
    return TRIALS * min(1.0, 2.0 * reach / cfg.scenario.side_length)


def _check_brackets(cfg, records):
    for r in records:
        for lb, ub in ((r.sop_lb, r.sop_ub), (r.sop_asym_lb, r.sop_asym_ub),
                       (r.esc_lb, r.esc_ub), (r.esc_asym_lb, r.esc_asym_ub)):
            assert lb <= ub, (r.snr_db, lb, ub)
        # a proportion's standard error vanishes at 0 and 1; floor it at 1/trials
        sop_se = max(r.sop_mc_se, 1.0 / TRIALS)
        assert r.sop_lb - 5.0 * sop_se <= r.sop_mc <= r.sop_ub + 5.0 * sop_se, r
        assert r.esc_mc <= r.esc_ub + 5.0 * r.esc_mc_se, r
        if _near_field_trials(cfg, r.snr_db) >= 10.0:
            assert r.esc_lb - 5.0 * r.esc_mc_se <= r.esc_mc, r
    for name in ("sop_lb", "sop_ub", "sop_mc"):
        values = [getattr(r, name) for r in records]
        assert np.all(np.diff(values) <= 0.0), (name, values)


@pytest.mark.parametrize("data", CONFIGS, ids=_ids(CONFIGS))
def test_random_config_properties(data):
    cfg = cli.config_from_dict(data)
    _check_brackets(cfg, cli.run_sweep(cfg))

    lossless = cli.run_sweep(cli.config_from_dict({**data, "attenuation_alpha": 0.0}))
    _check_brackets(cfg, lossless)
    for r in lossless:
        assert (r.sop_lb, r.sop_asym_lb, r.esc_lb, r.esc_asym_lb) == (
            r.sop_ub, r.sop_asym_ub, r.esc_ub, r.esc_asym_ub), r

    report = cli.validate_stats(cfg, ks_samples=20000)
    assert report.passed, str(report)


def _brackets(cfg, alpha, rule):
    """cfg's SOP and ESC brackets over its grid, and their saturation levels, at alpha."""
    chan = dataclasses.replace(cfg.channel, attenuation=alpha)
    sop = ps.sop_bounds(cfg.scenario, chan, cfg.tx_powers, cfg.target, rule)
    esc = ps.esc_bounds(cfg.scenario, chan, cfg.tx_powers, rule)
    sop_asym = ps.sop_asymptotic(cfg.scenario, chan, cfg.target, rule)
    esc_asym = ps.esc_asymptotic(cfg.scenario, chan, rule)
    return np.concatenate([sop.lower, sop.upper, esc.lower, esc.upper,
                           [sop_asym.lower, sop_asym.upper, esc_asym.lower, esc_asym.upper]])


def test_default_node_count_is_converged():
    # at every config and both attenuations, the brackets on the default
    # quadrature_n lie within 1e-13 of those on 4000 nodes
    reference = ps.make_rule(4000)
    worst = (0.0, "")
    for data in CONFIGS:
        cfg = cli.config_from_dict(data)
        rule = ps.make_rule(cfg.quadrature_n)
        for alpha in (cfg.channel.attenuation, 0.0):
            err = float(np.max(np.abs(_brackets(cfg, alpha, rule)
                                      - _brackets(cfg, alpha, reference))))
            worst = max(worst, (err, _ids([data])[0] + f",alpha={alpha:.3g}"))
    assert worst[0] <= 1e-13, worst


@pytest.mark.parametrize("c", (2.0, 3.0, 0.1))
def test_geometry_scaling_leaves_sweep_unchanged(c):
    base = {"snr_db_grid": [-10.0, 10.0, 30.0, 45.0, 50.0, 80.0], "mc_trials": TRIALS}
    scaled = {**base, "side_length_D": 25.0 * c, "waveguide_height_d": 3.0 * c,
              "attenuation_alpha": 0.01 / c, "carrier_freq_hz": 10e9 / c}
    want = cli.run_sweep(cli.config_from_dict(base))
    got = cli.run_sweep(cli.config_from_dict(scaled))
    for r_want, r_got in zip(want, got):
        assert (r_got.sop_mc, r_got.fa_sop_mc) == (r_want.sop_mc, r_want.fa_sop_mc)
        np.testing.assert_allclose(np.array(dataclasses.astuple(r_got)),
                                   np.array(dataclasses.astuple(r_want)),
                                   rtol=1e-10, atol=0.0)
