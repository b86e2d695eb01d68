"""Geometry and rate-equation tests."""

import dataclasses
import math

import numpy as np
import pytest

import pinchsec as ps
from pinchsec import bounds
from pinchsec.model import los_rate


def eta_of(fc):
    # independent recomputation of the free-space factor
    return 299792458.0 ** 2 / (16.0 * math.pi ** 2 * fc ** 2)


# Silencing one user's link with a huge noise variance makes that rate
# negligible, so the secrecy rate isolates the other.  The secrecy rate is
# one log1p of one ratio, not a difference of los_rate calls, so it agrees
# with los_rate to a few ulps, not bit for bit.
LINK_REL = 1e-14

def bob_rate(scenario, chan, power, bob, willie=(0.0, 0.0), fixed=False):
    solo = dataclasses.replace(chan, noise_willie=1e30)
    rate = ps.fa_secrecy_rate if fixed else ps.pa_secrecy_rate
    return float(rate(scenario, solo, power, bob[0], willie[0], bob[1], willie[1]))


def willie_rate(scenario, chan, power, bob, willie):
    solo = dataclasses.replace(chan, noise_bob=1e30)
    return -float(ps.pa_secrecy_rate(scenario, solo, power, bob[0], willie[0], bob[1], willie[1]))


def secrecy(scenario, chan, power, bob, willie):
    return float(ps.pa_secrecy_rate(scenario, chan, power, bob[0], willie[0], bob[1], willie[1]))


class TestTypes:
    def test_scenario_feed_and_fa(self, scenario):
        # the feed sits at x = -D/2: a radiator there has no guided loss
        chan = ps.ChannelParams(attenuation=0.3)
        assert bob_rate(scenario, chan, 1e8, (-12.5, 2.0)) == pytest.approx(
            float(los_rate(13.0, chan, 1e8, 1.0)), rel=LINK_REL)
        # the fixed antenna hangs at [0, 0, d]: Bob below it is at distance d
        assert bob_rate(scenario, chan, 1e8, (0.0, 0.0), fixed=True) == pytest.approx(
            float(los_rate(9.0, chan, 1e8, 1.0)), rel=LINK_REL)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            ps.Scenario(side_length=0.0)
        with pytest.raises(ValueError):
            ps.Scenario(waveguide_height=-1.0)

    def test_guided_span_covers_full_side(self, scenario):
        # travel from the feed spans [0, D] across the waveguide
        chan = ps.ChannelParams()
        for x in (-12.5, 0.0, 12.5):
            travel = x + scenario.side_length / 2.0
            assert 0.0 <= travel <= scenario.side_length
            assert bob_rate(scenario, chan, 1e8, (x, 1.0)) == pytest.approx(
                float(los_rate(10.0, chan, 1e8, 1.0, guided_len=travel)), rel=LINK_REL)

    def test_eta_tracks_carrier(self):
        for fc in (1e9, 10e9, 28e9):
            assert ps.ChannelParams(carrier_freq=fc).eta == eta_of(fc)

    def test_eta_table_value(self):
        assert ps.ChannelParams().eta == pytest.approx(5.691433657143451e-06, rel=1e-15)

    def test_rho_requires_common_noise(self):
        # rho = P/sigma^2, formed by bounds._eta_rho alone
        chan = ps.ChannelParams(noise_bob=1.0, noise_willie=2.0)
        with pytest.raises(ValueError, match="noise_bob != noise_willie"):
            bounds._eta_rho(chan, [3.0])
        chan = ps.ChannelParams(noise_bob=0.5, noise_willie=0.5)
        assert bounds._eta_rho(chan, [3.0]).tolist() == [chan.eta * 6.0]

    def test_at_rho(self):
        # at unit noise the transmit power P is the transmit SNR rho
        chan = ps.ChannelParams(attenuation=0.02)
        assert bounds._eta_rho(chan, [1e6]).tolist() == [chan.eta * 1e6]
        assert chan.attenuation == 0.02
        assert not hasattr(chan, "tx_power") and not hasattr(chan, "rho")

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            ps.ChannelParams(attenuation=-0.1)
        with pytest.raises(ValueError, match="attenuation"):
            ps.ChannelParams(attenuation=math.nan)
        with pytest.raises(ValueError):
            ps.ChannelParams(noise_bob=0.0)
        with pytest.raises(ValueError, match="carrier_freq"):
            ps.ChannelParams(carrier_freq=0.0)

    def test_secrecy_target_threshold(self):
        assert ps.SecrecyTarget(rate=0.01).threshold == 4.0 ** 0.01
        assert ps.SecrecyTarget(rate=0.0).threshold == 1.0
        assert ps.SecrecyTarget(rate=511).threshold == 2.0 ** 1022
        assert ps.SecrecyTarget(rate=600).threshold == math.inf  # 4^600 overflows
        with pytest.raises(ValueError):
            ps.SecrecyTarget(rate=-0.1)
        with pytest.raises(ValueError, match="target rate"):
            ps.SecrecyTarget(rate=math.nan)

    def test_secrecy_target_threshold_minus_one(self):
        # 4^0.01 - 1 from mpmath at 30 digits; 4.0**0.01 - 1.0 cancels to ~3e-15 relative
        exact = 0.0139594797900291386901659996283
        assert ps.SecrecyTarget(rate=0.01).threshold_minus_one == pytest.approx(exact, rel=2e-16)
        assert abs((4.0 ** 0.01 - 1.0) - exact) > 1e-15 * exact
        assert ps.SecrecyTarget(rate=0.0).threshold_minus_one == 0.0
        assert ps.SecrecyTarget(rate=511).threshold_minus_one == pytest.approx(2.0 ** 1022,
                                                                               rel=1e-13)
        for rate in (512, 600):  # +inf wherever the threshold is
            assert ps.SecrecyTarget(rate=rate).threshold_minus_one == math.inf


class TestPaPosition:
    # the radiator sits above Bob at (x1, 0, d): Bob's rate is
    # los_rate(y1^2 + d^2, guided = x1 + D/2)

    def test_projects_bob_onto_waveguide(self, scenario):
        chan = ps.ChannelParams()
        want = float(los_rate(7.2 ** 2 + 9.0, chan, 1e8, 1.0, guided_len=3.0 + 12.5))
        assert bob_rate(scenario, chan, 1e8, (3.0, -7.2)) == pytest.approx(want, rel=LINK_REL)

    def test_origin(self, scenario):
        chan = ps.ChannelParams()
        want = float(los_rate(9.0, chan, 1e8, 1.0, guided_len=12.5))
        assert bob_rate(scenario, chan, 1e8, (0.0, 0.0), willie=(1.0, 1.0)) == pytest.approx(
            want, rel=LINK_REL)

    def test_corner_stays_on_waveguide(self, scenario):
        chan = ps.ChannelParams()
        want = float(los_rate(12.5 ** 2 + 9.0, chan, 1e8, 1.0, guided_len=0.0))
        assert bob_rate(scenario, chan, 1e8, (-12.5, 12.5)) == pytest.approx(want, rel=LINK_REL)


class TestRates:
    def test_rate_bob_direct_evaluation(self, scenario):
        # Bob at the origin, no attenuation: dist^2 = d^2 = 9
        got = bob_rate(scenario, ps.ChannelParams(attenuation=0.0), 1e10, (0.0, 0.0),
                       willie=(1.0, 1.0))
        want = 0.5 * math.log2(1.0 + eta_of(10e9) * 1e10 / 9.0)
        assert got == pytest.approx(want, rel=1e-15)
        assert got == pytest.approx(6.3134038031374065, rel=1e-13)

    def test_rate_bob_below_pin_distance(self, scenario):
        chan = ps.ChannelParams(attenuation=0.0)
        assert bob_rate(scenario, chan, 123.0, (4.0, 0.0)) == pytest.approx(
            float(los_rate(9.0, chan, 123.0, 1.0)), rel=LINK_REL)

    def test_zero_travel_means_no_attenuation(self, scenario):
        with_loss = bob_rate(scenario, ps.ChannelParams(attenuation=0.01), 1e8, (-12.5, 5.0))
        without = bob_rate(scenario, ps.ChannelParams(attenuation=0.0), 1e8, (-12.5, 5.0))
        assert with_loss == without

    def test_willie_colocated_matches_bob(self, scenario):
        chan = ps.ChannelParams()
        pos = (2.0, 5.0)
        assert willie_rate(scenario, chan, 1e8, pos, pos) == pytest.approx(
            bob_rate(scenario, chan, 1e8, pos, pos), rel=LINK_REL)

    def test_willie_maximal_separation(self, scenario):
        chan = ps.ChannelParams()
        got = willie_rate(scenario, chan, 1e8, (12.5, 0.0), (-12.5, 12.5))
        # dist^2 = D^2 + D^2/4 + d^2 = 790.25, full guided travel D
        want = float(los_rate(790.25, chan, 1e8, 1.0, guided_len=25.0))
        assert got == pytest.approx(want, rel=LINK_REL)

    def test_willie_shares_bob_kernel(self, scenario):
        # same squared distance and travel must give the same rate
        chan = ps.ChannelParams()
        bob, willie = (1.0, 6.0), (7.0, 0.0)
        bob_dist_sq = 6.0 ** 2 + 9.0
        willie_dist_sq = 6.0 ** 2 + 9.0  # (1 - 7)^2 + 0 + 9
        assert bob_dist_sq == willie_dist_sq
        assert willie_rate(scenario, chan, 3.7e7, bob, willie) == pytest.approx(
            bob_rate(scenario, chan, 3.7e7, bob, willie), rel=LINK_REL)

    def test_secrecy_rate_symmetric_zero(self, scenario):
        assert secrecy(scenario, ps.ChannelParams(), 1e9, (-3.0, 4.0), (-3.0, 4.0)) == 0.0

    def test_secrecy_rate_noise_limited_willie(self, scenario):
        chan = ps.ChannelParams(attenuation=0.01, noise_bob=1.0, noise_willie=1e30)
        rs = secrecy(scenario, chan, 1e8, (0.0, 1.0), (5.0, 5.0))
        rb = float(los_rate(10.0, chan, 1e8, 1.0, guided_len=12.5))
        assert rs == pytest.approx(rb, abs=1e-12)

    def test_secrecy_rate_reference_point(self, scenario):
        chan = ps.ChannelParams(attenuation=0.01)
        bob, willie = (0.0, 0.0), (10.0, 10.0)
        # independent recomputation: travel 12.5, Bob dist^2 9, Willie dist^2 209
        eta = eta_of(10e9)
        loss = math.exp(-2.0 * 0.01 * 12.5)
        rb = 0.5 * math.log2(1.0 + eta * 1e8 * loss / 9.0)
        rw = 0.5 * math.log2(1.0 + eta * 1e8 * loss / 209.0)
        assert bob_rate(scenario, chan, 1e8, bob, willie) == pytest.approx(rb, rel=1e-15)
        assert willie_rate(scenario, chan, 1e8, bob, willie) == pytest.approx(rw, rel=1e-15)
        assert bob_rate(scenario, chan, 1e8, bob, willie) == pytest.approx(2.825524727317673,
                                                                           rel=1e-13)
        assert willie_rate(scenario, chan, 1e8, bob, willie) == pytest.approx(
            0.8209602729933557, rel=1e-13)
        assert secrecy(scenario, chan, 1e8, bob, willie) == pytest.approx(2.004564454324317,
                                                                          rel=1e-13)

    def test_rate_fa_nadir(self, scenario):
        chan = ps.ChannelParams()
        got = bob_rate(scenario, chan, 1e8, (0.0, 0.0), fixed=True)
        assert got == pytest.approx(0.5 * math.log2(1.0 + chan.eta * 1e8 / 9.0), rel=1e-15)

    def test_rate_fa_corner_distance(self, scenario):
        chan = ps.ChannelParams()
        got = bob_rate(scenario, chan, 1e8, (12.5, 12.5), fixed=True)
        assert got == pytest.approx(float(los_rate(321.5, chan, 1e8, 1.0)), rel=LINK_REL)

    def test_rate_fa_zero_power_limit(self, scenario):
        assert bob_rate(scenario, ps.ChannelParams(), 1e-300, (0.0, 0.0),
                        fixed=True) == pytest.approx(0.0, abs=1e-290)

    def test_rate_fa_ignores_attenuation(self, scenario):
        pos = (5.0, -3.0)
        r1 = bob_rate(scenario, ps.ChannelParams(attenuation=0.0), 1e8, pos, fixed=True)
        r2 = bob_rate(scenario, ps.ChannelParams(attenuation=0.5), 1e8, pos, fixed=True)
        assert r1 == r2

    def test_los_rate_rejects_zero_distance(self):
        with pytest.raises(ValueError):
            los_rate(0.0, ps.ChannelParams(), 1.0, 1.0)

    @pytest.mark.parametrize("power", [0.0, -1.0, math.nan])
    def test_rejects_a_power_not_above_zero(self, scenario, power):
        # model._tx_powers is the one check on a power, for one power as for a grid
        chan = ps.ChannelParams()
        for run in (lambda: los_rate(9.0, chan, power, 1.0),
                    lambda: ps.pa_secrecy_rate(scenario, chan, power, 1.0, 2.0, 3.0, 4.0),
                    lambda: ps.fa_secrecy_rate(scenario, chan, power, 1.0, 2.0, 3.0, 4.0)):
            with pytest.raises(ValueError, match="tx_power must be > 0"):
                run()

    def test_accepts_an_infinite_power(self, scenario):
        chan = ps.ChannelParams()
        assert los_rate(9.0, chan, math.inf, 1.0) == math.inf
        for rate in (ps.pa_secrecy_rate, ps.fa_secrecy_rate):
            assert math.isfinite(rate(scenario, chan, math.inf, 1.0, 2.0, 3.0, 4.0))


class TestRateProperties:
    def test_monotonicity_randomized(self, scenario):
        rng = np.random.default_rng(20240814)
        for _ in range(50):
            rho_lo, rho_hi = np.sort(rng.uniform(1e2, 1e12, 2))
            d_lo, d_hi = np.sort(rng.uniform(9.0, 700.0, 2))
            a_lo, a_hi = np.sort(rng.uniform(0.0, 0.2, 2))
            guided = rng.uniform(0.0, 25.0)
            chan = ps.ChannelParams()
            # increasing in rho
            assert (los_rate(d_lo, chan, rho_hi, 1.0, guided)
                    > los_rate(d_lo, chan, rho_lo, 1.0, guided))
            # decreasing in squared distance
            assert (los_rate(d_hi, chan, rho_lo, 1.0, guided)
                    < los_rate(d_lo, chan, rho_lo, 1.0, guided))
            # decreasing in attenuation (for positive travel)
            c_lo = ps.ChannelParams(attenuation=a_lo)
            c_hi = ps.ChannelParams(attenuation=a_hi)
            if a_hi > a_lo:
                assert (los_rate(d_lo, c_hi, rho_lo, 1.0, 10.0)
                        < los_rate(d_lo, c_lo, rho_lo, 1.0, 10.0))

    def test_attenuation_bracketing(self, scenario):
        # a constant worst/best-case loss factor brackets every exact rate
        rng = np.random.default_rng(7)
        chan = ps.ChannelParams(attenuation=0.01)
        span = math.exp(-2.0 * 0.01 * scenario.side_length)
        for _ in range(200):
            x1, y1 = rng.uniform(-12.5, 12.5, 2)
            exact = bob_rate(scenario, chan, 1e8, (x1, y1))
            dist_sq = y1 ** 2 + 9.0
            best = float(los_rate(dist_sq, chan, 1e8, 1.0))
            worst = 0.5 * math.log2(1.0 + chan.eta * 1e8 * span / dist_sq)
            assert worst <= exact <= best

    def test_zero_attenuation_collapse(self, scenario):
        chan = ps.ChannelParams(attenuation=0.0)
        exact = bob_rate(scenario, chan, 1e8, (3.0, 4.0), willie=(1.0, 2.0))
        factorless = float(los_rate(25.0, chan, 1e8, 1.0))
        assert exact == pytest.approx(factorless, rel=LINK_REL)

    def test_huge_noise_keeps_the_rate(self, scenario):
        # scaling P and both noise variances by 1e200 leaves every SNR and so
        # every rate, though Nb*Nw then lies far beyond the float range
        rng = np.random.default_rng(5)
        x1, x2, y1, y2 = rng.uniform(-12.5, 12.5, (4, 64))
        for power in (1e4, 1e8, math.inf):
            base = ps.ChannelParams(noise_bob=0.5, noise_willie=2.0)
            huge = ps.ChannelParams(noise_bob=0.5 * 1e200, noise_willie=2.0 * 1e200)
            for rate in (ps.pa_secrecy_rate, ps.fa_secrecy_rate):
                assert (rate(scenario, huge, power * 1e200, x1, x2, y1, y2).tolist()
                        == pytest.approx(rate(scenario, base, power, x1, x2, y1, y2).tolist(),
                                         rel=LINK_REL))

    def test_secrecy_antisymmetry_fixed_pin(self, scenario):
        # swapping users with equal x keeps the pin position, negating Rs
        chan = ps.ChannelParams(noise_bob=1.0, noise_willie=1.0)
        rs = secrecy(scenario, chan, 1e8, (4.0, 2.0), (4.0, -9.0))
        rs_swapped = secrecy(scenario, chan, 1e8, (4.0, -9.0), (4.0, 2.0))
        assert rs_swapped == pytest.approx(-rs, rel=1e-14)

    def test_kernel_vectorized_matches_scalar(self, scenario):
        # the MC evaluates whole position arrays; each element equals the scalar call
        rng = np.random.default_rng(11)
        x1, x2, y1, y2 = rng.uniform(-12.5, 12.5, (4, 64))
        chan = ps.ChannelParams()
        for rate in (ps.pa_secrecy_rate, ps.fa_secrecy_rate):
            vec = rate(scenario, chan, 1e6, x1, x2, y1, y2)
            assert vec.shape == (64,)
            assert all(vec[i] == rate(scenario, chan, 1e6, x1[i], x2[i], y1[i], y2[i])
                       for i in range(64))
            # positions broadcast against each other, as numpy operands do
            mixed = rate(scenario, chan, 1e6, x1, x2[:1], y1[:, None], 0.5)
            assert mixed.shape == (64, 64)
            assert mixed[5, 7] == rate(scenario, chan, 1e6, x1[7], x2[0], y1[5], 0.5)
