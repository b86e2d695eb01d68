"""Closed-form bound tests.

The reference numbers at rho = 1e8 are outputs of the adaptive-quadrature
oracles of conftest.py (scipy.integrate.quad on the z-coordinate form of
each term, with the threshold kinks as breakpoint hints), written out to
17 digits; the comment above each names the oracle and how its terms were
combined.  The program's quadrature must match them to 1e-10 relative.
"""

import logging
import math
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import pinchsec as ps
from pinchsec import bounds, cli, montecarlo, quad
from conftest import (SNR_GRID_DB, esc_at, esc_term_oracles, esc_term_values, gain,
                      golden_path, log2_moment_oracles, log2_moment_values, outage_coefficients,
                      outage_kinks, sop_at, sop_directions, sop_term_oracles, sop_term_rows)
from test_properties import CONFIGS as PROPERTY_CONFIGS

SPAN = math.exp(-0.5)  # exp(-2 * 0.01 * 25)


class TestCoefficients:
    def test_span_value(self, scenario):
        assert bounds.attenuation_span(scenario, ps.ChannelParams()) == pytest.approx(
            0.6065306597126334, rel=1e-15)
        assert bounds.attenuation_span(scenario, ps.ChannelParams(attenuation=0.0)) == 1.0

    def test_sop_pairs(self, scenario, target, rule_1000, monkeypatch):
        # one call for both directions, as per-row factor arrays: the
        # upper (span, 1), then the lower (1, span); at alpha = 0 the two
        # are one direction, evaluated once
        seen = []
        term_sums = bounds.sop_term_sums
        monkeypatch.setattr(bounds, "sop_term_sums",
                            lambda *a: seen.append(tuple(list(f) for f in a[-2:])) or term_sums(*a))
        ps.sop_bounds(scenario, ps.ChannelParams(), [1e8], target, rule_1000)
        assert seen == [([SPAN, 1.0], [1.0, SPAN])]
        assert sop_directions(scenario, ps.ChannelParams()) == tuple(zip(*seen[0]))
        seen.clear()
        pair = ps.sop_bounds(scenario, ps.ChannelParams(attenuation=0.0), [1e6, 1e8], target,
                             rule_1000)
        assert seen == [([1.0, 1.0], [1.0, 1.0])]
        assert pair.lower.tolist() == pair.upper.tolist()

    def test_esc_pairs(self, scenario, rule_1000, monkeypatch):
        # one call for both directions, as per-row factor arrays: the
        # upper (1, span), then the lower (span, 1); at alpha = 0 the two
        # are one direction, evaluated once
        seen = []
        term_sums = bounds.esc_term_sums
        monkeypatch.setattr(bounds, "esc_term_sums",
                            lambda *a: seen.append(tuple(list(f) for f in a[-2:])) or term_sums(*a))
        ps.esc_bounds(scenario, ps.ChannelParams(), [1e8], rule_1000)
        assert seen == [([1.0, SPAN], [SPAN, 1.0])]
        seen.clear()
        pair = ps.esc_bounds(scenario, ps.ChannelParams(attenuation=0.0), [1e6, 1e8], rule_1000)
        assert seen == [([1.0, 1.0], [1.0, 1.0])]
        assert pair.lower.tolist() == pair.upper.tolist()

    def test_overflowed_threshold_is_certain_outage(self, scenario):
        # 4^600 is +inf: b is +inf at every rho, never inf/inf = nan at rho = inf
        target, chan = ps.SecrecyTarget(rate=600), ps.ChannelParams()
        for power in (1e8, math.inf):
            for direction in sop_directions(scenario, chan):
                a, b, c = outage_coefficients(chan, power, target, *direction)
                assert b == math.inf
                assert outage_kinks(scenario, a, b, c) == [math.inf, math.inf]

    def test_underflowed_span_is_valid(self, scenario, target, rule_1000):
        # alpha * D = 500: exp(-1000) is 0.0, yet the model is well defined
        chan = ps.ChannelParams(attenuation=20.0)
        assert bounds.attenuation_span(scenario, chan) == 0.0
        for pair in (sop_at(scenario, chan, 1e8, target, rule_1000),
                     ps.sop_asymptotic(scenario, chan, target, rule_1000),
                     esc_at(scenario, chan, 1e8, rule_1000),
                     ps.esc_asymptotic(scenario, chan, rule_1000)):
            assert math.isfinite(pair.lower) and math.isfinite(pair.upper)
            assert pair.lower <= pair.upper
        # a deaf Willie (factor 0) leaves no high-SNR outage threshold
        assert ps.sop_asymptotic(scenario, chan, target, rule_1000).upper == 1.0
        sums = bounds.sop_term_sums(scenario, target, rule_1000, [math.inf], 1.0, 0.0)[0]
        assert sum(sums) == pytest.approx(1.0, abs=1e-11)
        # log2 of the span in the log domain: -2 alpha D / ln 2
        assert ps.esc_asymptotic(scenario, chan, rule_1000).width == pytest.approx(
            1000.0 / math.log(2.0), rel=1e-12)


def threshold_offset(u, chan, power, target, bob_factor, willie_factor, d2=9.0):
    coeffs = outage_coefficients(chan, power, target, bob_factor, willie_factor)
    return bounds._threshold_offset(u, d2, *coeffs)


class TestSopThreshold:
    # offsets u = z - d^2 with d^2 = 9; the frozen values are thresholds in z minus 9
    def test_reference_values(self, scenario, target):
        chan = ps.ChannelParams()
        up, lo = sop_directions(scenario, chan)
        z = 165.25
        fr = 4.0 ** 0.01
        for (bob, willie), frozen in ((up, 89.4557479348137), (lo, 257.94101014423063)):
            want = (chan.eta * 1e8 * bob
                    / (fr - 1.0 + fr * chan.eta * 1e8 * willie / z)) - 9.0
            got = float(threshold_offset(z - 9.0, chan, 1e8, target, bob, willie))
            assert got == pytest.approx(want, rel=1e-15)
            assert got == pytest.approx(frozen, rel=1e-13)

    def test_vectorized(self, scenario, target):
        chan = ps.ChannelParams()
        up, _ = sop_directions(scenario, chan)
        u = np.array([0.0, 91.0, 781.25])
        thr = threshold_offset(u, chan, 1e8, target, *up)
        assert thr.shape == (3,)
        assert np.all(np.diff(thr) > 0)  # farther Willie, looser threshold

    def test_zero_attenuation_pairs_coincide(self, scenario, target):
        chan = ps.ChannelParams(attenuation=0.0)
        up, lo = sop_directions(scenario, chan)
        u = np.linspace(0.0, 781.25, 50)
        np.testing.assert_array_equal(threshold_offset(u, chan, 1e8, target, *up),
                                      threshold_offset(u, chan, 1e8, target, *lo))

    def test_high_snr_scaling(self, scenario, target):
        # exact at rho = inf: the threshold is z * A / (4^Rbar * B)
        chan = ps.ChannelParams()
        fr = 4.0 ** 0.01
        for bob, willie in sop_directions(scenario, chan):
            for z in (9.0, 165.25, 790.25):
                want = z * bob / (fr * willie) - 9.0
                got = threshold_offset(z - 9.0, chan, math.inf, target, bob, willie)
                assert float(got) == pytest.approx(want, rel=1e-13)

    def test_degenerate_denominator_gives_inf(self):
        # zero target rate and a deaf Willie (B = 0): no outage
        got = threshold_offset(np.array([0.0, 100.0]), ps.ChannelParams(), 1e8,
                               ps.SecrecyTarget(rate=0.0), 1.0, 0.0)
        assert np.all(got == np.inf)


class TestOutageKinks:
    def test_kinks_are_saturation_points(self, scenario, target, zb_dist):
        # kinks are offsets u = z - d^2; the z-form thresholds are formed at z = 9 + u
        fr, chan = target.threshold, ps.ChannelParams()
        for power in (1e8, math.inf):
            eta_rho = gain(chan, power)
            for bob, willie in sop_directions(scenario, chan):
                coeffs = outage_coefficients(chan, power, target, bob, willie)
                z = 9.0 + np.array(outage_kinks(scenario, *coeffs))
                if math.isinf(eta_rho):
                    thr = z * bob / (fr * willie)
                else:
                    thr = eta_rho * bob / (fr - 1.0 + fr * eta_rho * willie / z)
                np.testing.assert_allclose(thr, 9.0 + np.array(zb_dist.support), rtol=1e-12)

    def test_no_kink_when_threshold_stays_below_support(self, scenario, target):
        # below rho* = (4^Rbar - 1) d^2 / eta even the best threshold misses d^2
        coeffs = outage_coefficients(ps.ChannelParams(), 1e4, target, 1.0, 1.0)
        assert outage_kinks(scenario, *coeffs) == [math.inf, math.inf]

    def test_certain_outage_skips_quadrature(self, scenario, target, rule_1000, monkeypatch):
        calls = []
        integrate = bounds.integrate
        monkeypatch.setattr(bounds, "integrate",
                            lambda rule, values: calls.append(rule) or integrate(rule, values))
        chan = ps.ChannelParams()
        for direction in sop_directions(scenario, chan):
            sums = bounds.sop_term_sums(scenario, target, rule_1000, [gain(chan, 1e4)],
                                        *direction)[0]
            assert sums.tolist() == [0.0, 0.0, 0.0]
        assert calls == []
        pair = sop_at(scenario, chan, 1e4, target, rule_1000)
        assert (pair.lower, pair.upper) == (1.0, 1.0)

    def test_no_node_at_or_beyond_saturation(self, scenario, target, rule_1000, monkeypatch):
        # past u_1 F_Zb(threshold) is 1: that mass is a CDF difference, not
        # nodes; below u_0 it is 0.  Nodes may round onto either end: at
        # x ~ 1e-37 lo + width*x is lo, and at x = 1 - 2^-52 it can be lo + width
        seen = []
        offset = bounds._threshold_offset
        monkeypatch.setattr(bounds, "_threshold_offset",
                            lambda u, *abc: seen.append(np.array(u)) or offset(u, *abc))
        quarter = scenario.side_length ** 2 / 4.0  # the end of Zw's first piece
        chan = ps.ChannelParams()
        for power in (1e7, 1e8, math.inf):
            for direction in sop_directions(scenario, chan):  # upper, then lower
                seen.clear()
                u_0, u_1 = outage_kinks(
                    scenario, *outage_coefficients(chan, power, target, *direction))
                bounds.sop_term_sums(scenario, target, rule_1000, [gain(chan, power)], *direction)
                nodes = np.concatenate([u.ravel() for u in seen])
                assert np.all((u_0 <= nodes) & (nodes <= u_1)), (power, direction)
            # lower side at rho = inf: u_1 lies in piece 1, so pieces 2 and 3 need no node
            assert u_1 < quarter
            assert nodes.size == rule_1000.n and np.all(nodes < u_1)

    def test_saturated_mass_against_oracle(self, rule_1000):
        # D = 2, d = 1, Rbar = 0, rho = inf, A = 1: u_1 = 2 B - 1 exactly, so the
        # kink of each row sits below, inside, on the ends of, or past the pieces
        # [0, 1], [1, 4], [4, 5]; the last row is finite rho with u_1 = +inf
        scenario = ps.Scenario(side_length=2.0, waveguide_height=1.0)
        target = ps.SecrecyTarget(rate=0.0)
        chan = ps.ChannelParams()
        willie = [0.5, 0.75, 1.0, 1.5, 2.5, 2.75, 3.0, 4.0]
        kinks = [outage_kinks(scenario, *outage_coefficients(chan, math.inf, target, 1.0, b))[1]
                 for b in willie]
        assert kinks == [0.0, 0.5, 1.0, 2.0, 4.0, 4.5, 5.0, 7.0]
        got = bounds.sop_term_sums(scenario, target, rule_1000,
                                   [gain(chan, math.inf)] * len(willie), 1.0, np.array(willie))
        for row, b in zip(got, willie):
            want = sop_term_oracles(scenario, chan, math.inf, target, 1.0, b, asymptotic=True)
            np.testing.assert_allclose(row, want, rtol=0, atol=5e-13, err_msg=f"B = {b}")
        scenario, target = ps.Scenario(), ps.SecrecyTarget()
        direction = (1.0, bounds.attenuation_span(scenario, chan))
        assert outage_kinks(
            scenario, *outage_coefficients(chan, 1e5, target, *direction))[1] == math.inf
        np.testing.assert_allclose(
            bounds.sop_term_sums(scenario, target, rule_1000, [gain(chan, 1e5)], *direction)[0],
            sop_term_oracles(scenario, chan, 1e5, target, *direction), rtol=0, atol=5e-13)

    @pytest.mark.parametrize("rho", [1e7, 1e8, math.inf])
    def test_bracket_near_oracle(self, scenario, target, rule_1000, rho):
        # the closed-form saturated mass keeps both sides within 5e-13 of
        # 1 - sum(sop_term_oracles); integrating it by quadrature read 1.1e-12
        chan = ps.ChannelParams()
        pair = (ps.sop_asymptotic(scenario, chan, target, rule_1000) if math.isinf(rho)
                else sop_at(scenario, chan, rho, target, rule_1000))
        for got, direction in zip((pair.upper, pair.lower), sop_directions(scenario, chan)):
            want = 1.0 - sum(sop_term_oracles(scenario, chan, rho, target, *direction,
                                              asymptotic=math.isinf(rho)))
            assert abs(got - want) <= 5e-13, (rho, direction, got - want)


class TestSopBounds:
    def test_reference_point(self, scenario, target, rule_1000):
        pair = sop_at(scenario, ps.ChannelParams(), 1e8, target, rule_1000)
        # 1 - sum(sop_term_oracles(...)) for the lower and the upper
        # direction of sop_directions
        assert pair.lower == pytest.approx(0.12810884315380378, rel=1e-10)
        assert pair.upper == pytest.approx(0.3579206851684762, rel=1e-10)

    def test_ordering_across_grid(self, scenario, target, rule_1000):
        for snr_db in SNR_GRID_DB:
            pair = sop_at(scenario, ps.ChannelParams(), 10 ** (snr_db / 10.0), target, rule_1000)
            assert 0.0 <= pair.lower <= pair.upper <= 1.0

    def test_zero_attenuation_collapse(self, scenario, target, rule_1000):
        pair = sop_at(scenario, ps.ChannelParams(attenuation=0.0), 1e8, target, rule_1000)
        assert pair.lower == pair.upper

    def test_low_snr_saturates_at_one(self, scenario, target, rule_1000):
        pair = sop_at(scenario, ps.ChannelParams(), 1e-12, target, rule_1000)
        assert pair.lower == 1.0
        assert pair.upper == 1.0

    def test_monotone_in_rho(self, scenario, target, rule_1000):
        vals = [sop_at(scenario, ps.ChannelParams(), r, target, rule_1000)
                for r in (1e6, 1e8, 1e10)]
        assert vals[0].upper >= vals[1].upper >= vals[2].upper
        assert vals[0].lower >= vals[1].lower >= vals[2].lower

    def test_no_clamping_on_grid(self, scenario, target, rule_1000, caplog):
        with caplog.at_level(logging.WARNING, logger="pinchsec.bounds"):
            for snr_db in SNR_GRID_DB:
                sop_at(scenario, ps.ChannelParams(), 10 ** (snr_db / 10.0), target, rule_1000)
        assert not caplog.records

    def test_term_sums_reference(self, scenario, target, rule_8000):
        chan = ps.ChannelParams()
        up, lo = sop_directions(scenario, chan)
        got_up = bounds.sop_term_sums(scenario, target, rule_8000, [gain(chan, 1e8)], *up)[0]
        got_lo = bounds.sop_term_sums(scenario, target, rule_8000, [gain(chan, 1e8)], *lo)[0]
        # sop_term_oracles(scenario, chan, 1e8, target, *direction) for each direction
        np.testing.assert_allclose(
            got_up,
            [0.2884738515657313, 0.3501617515801622, 0.003443711685630247], rtol=1e-10)
        np.testing.assert_allclose(
            got_lo,
            [0.49062265357697776, 0.3778247915835881, 0.003443711685630247], rtol=1e-10)

    def test_term_sums_against_adaptive_oracle(self, scenario, target, rule_8000):
        chan = ps.ChannelParams()
        for direction in sop_directions(scenario, chan):
            got = bounds.sop_term_sums(scenario, target, rule_8000, [gain(chan, 1e8)],
                                       *direction)[0]
            want = sop_term_oracles(scenario, chan, 1e8, target, *direction)
            np.testing.assert_allclose(got, want, rtol=1e-7)

    @pytest.mark.parametrize("d", [3.0, 30.0, 3e3, 3e4, 3e6])
    @pytest.mark.parametrize("rho", [1e-2, 1e4, 1e12])
    def test_far_waveguide_keeps_digits(self, d, rho, rule_1000):
        # at Rbar = 0 and alpha = 0 the SOP is P(Zb > Zw) = pi/12 - 1/24 for
        # every D, d and rho; d >> D must not cancel the threshold offset
        scenario = ps.Scenario(side_length=1e-3, waveguide_height=d)
        chan = ps.ChannelParams(attenuation=0.0)
        target = ps.SecrecyTarget(rate=0.0)
        exact = math.pi / 12.0 - 1.0 / 24.0
        for pair in (sop_at(scenario, chan, rho, target, rule_1000),
                     ps.sop_asymptotic(scenario, chan, target, rule_1000)):
            assert pair.lower == pytest.approx(exact, abs=1e-11)
            assert pair.upper == pytest.approx(exact, abs=1e-11)


class TestSopAsymptotic:
    def test_reference_point(self, scenario, target, rule_1000):
        chan = ps.ChannelParams()
        pair = ps.sop_asymptotic(scenario, chan, target, rule_1000)
        # 1 - sum(sop_term_oracles(..., asymptotic=True)) for the lower and
        # the upper direction of sop_directions
        assert pair.lower == pytest.approx(0.1277505911592247, rel=1e-10)
        assert pair.upper == pytest.approx(0.3570016314035447, rel=1e-10)

    def test_power_independence(self, scenario, target, rule_1000):
        # the saturation levels are the rows at rho = inf of grids that end at any finite power
        a, b = (ps.sop_bounds(scenario, ps.ChannelParams(), [power, math.inf], target, rule_1000)
                for power in (1e2, 1e16))
        assert (a.lower[-1], a.upper[-1]) == (b.lower[-1], b.upper[-1])

    def test_zero_attenuation_collapse(self, scenario, target, rule_1000):
        pair = ps.sop_asymptotic(scenario, ps.ChannelParams(attenuation=0.0), target, rule_1000)
        assert pair.lower == pair.upper

    def test_finite_snr_approaches_asymptote(self, scenario, target, rule_1000):
        chan = ps.ChannelParams()
        finite = sop_at(scenario, chan, 1e14, target, rule_1000)
        asym = ps.sop_asymptotic(scenario, chan, target, rule_1000)
        assert abs(finite.lower - asym.lower) < 1e-2
        assert abs(finite.upper - asym.upper) < 1e-2

    def test_oracle_agreement(self, scenario, target, rule_8000):
        chan = ps.ChannelParams()
        for direction in sop_directions(scenario, chan):
            got = bounds.sop_term_sums(scenario, target, rule_8000, [gain(chan, math.inf)],
                                       *direction)[0]
            want = sop_term_oracles(scenario, chan, math.inf, target, *direction, asymptotic=True)
            np.testing.assert_allclose(got, want, rtol=1e-7)


# (g, d^2, u, offset): log2(1 + g/(d^2 + u)) - log2(1 + g/d^2) by mpmath at
# 60 digits, rounded to the nearest float
RATE_OFFSETS = {
    "g_below_d2": [
        (5.7e-07, 9.0, 100.0, -8.382631448684198e-08),
        (0.001, 9.0, 1e-08, -1.7809071082053327e-13),
        (2.5e-10, 10000.0, 3000000.0, -3.594755085271459e-14),
    ],
    # just above g = d^2 with u >> d^2, where a difference of two log1p
    # terms loses 8-23 ulp
    "g_near_d2_u_far": [
        (1.77e-06, 1.76e-06, 5870000000000.0, -1.004092754633883),
        (1.5e-08, 1.49e-08, 2240.0, -1.0048331537262825),
        (0.0747, 0.071, 142000000000.0, -1.0371099476717094),
        (2.63e-06, 2.54e-06, 360000.0, -1.025335783532229),
    ],
    "g_above_d2": [
        (1e+20, 9.0, 100.0, -3.598259323334614),
        (57000.0, 9.0, 1e-06, -1.6027413363857894e-07),
        (1e+300, 1e-300, 780.0, -1006.1857587799583),
    ],
    # d^2/g is +inf: exactly 0 (a warning would fail the suite)
    "g_zero": [
        (0.0, 9.0, 100.0, 0.0),
        (0.0, 1e+300, 1e+300, 0.0),
        (5e-324, 1e+300, 1.0, 0.0),
    ],
    # rho = inf: the limit -log2(1 + u/d^2)
    "g_inf": [
        (math.inf, 9.0, 100.0, -3.598259323334614),
        (math.inf, 1e-06, 1000000000000.0, -59.794705707972525),
        (math.inf, 1e+300, 1.0, -1.4426950408889634e-300),
        # u/d^2 = 1e500: v = d^2/(d^2 + u) underflows to 0
        (math.inf, 1e-200, 1e300, -1660.9640474436812),
    ],
}


class TestRateOffset:
    @pytest.mark.parametrize("regime", list(RATE_OFFSETS))
    def test_against_mpmath(self, regime):
        g, d2, u, want = np.array(RATE_OFFSETS[regime]).T
        got = [bounds._rate_offset(*row) for row in zip(g, d2, u)]
        np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0)


# r(1) - r(span) = log2(1 + g/d^2) - log2(1 + g*span/d^2) of the default geometry
# at P = 1e-3, 1, 1e8 and 1e20, by mpmath at 50 digits, rounded to the nearest
# float; alpha = 20 underflows the span, leaving log2(1 + g/d^2)
RATE_GAPS = {
    0.0: [0.0, 0.0, 0.0, 0.0],
    1e-16: [4.5616683930649366e-24, 4.561665511236693e-21, 7.10118250908579e-15,
            7.213475204444703e-15],
    1e-10: [4.561668381660778e-18, 4.561665499832548e-15, 7.101182508809429e-09,
            7.2134752044447036e-09],
    1e-06: [4.561554353255865e-14, 4.561551471571708e-11, 7.101179745425494e-05,
            7.213475204444703e-05],
    0.01: [3.5897533069046e-10, 3.5897514852415117e-07, 0.7068512624773746,
           0.7213475204444669],
    20.0: [9.123336789014612e-10, 9.12333390718576e-07, 6.005358479255913, 45.84586043637132],
}


class TestRateGap:
    # esc_bounds' r(1) - r(span): one log1p of one ratio, where a difference of
    # two log1p terms lost up to 6.3e-7 relative at alpha = 1e-10
    @pytest.mark.parametrize("alpha", list(RATE_GAPS))
    def test_against_mpmath(self, scenario, alpha):
        chan = ps.ChannelParams(attenuation=alpha)
        *got, at_inf = bounds._rate_gap(scenario, chan,
                                        bounds._eta_rho(chan, [1e-3, 1.0, 1e8, 1e20, math.inf]))
        want = np.array(RATE_GAPS[alpha])
        assert np.all(np.abs(got - want) <= 2 * np.spacing(want)), (got, want)
        assert at_inf == 2.0 * alpha * scenario.side_length / math.log(2.0)  # the exact limit


class TestEscBounds:
    def test_reference_point(self, scenario, rule_1000):
        pair = esc_at(scenario, ps.ChannelParams(), 1e8, rule_1000)
        # (bob - piece1 - piece2 - piece3) / 2 of esc_term_oracles(...) for
        # the lower and the upper direction (sop_directions reversed)
        assert pair.lower == pytest.approx(0.30282340510406547, rel=1e-10)
        assert pair.upper == pytest.approx(0.8952325224923363, rel=1e-10)

    def test_ordering_across_grid(self, scenario, rule_1000):
        for snr_db in SNR_GRID_DB:
            pair = esc_at(scenario, ps.ChannelParams(), 10 ** (snr_db / 10.0), rule_1000)
            assert pair.lower <= pair.upper

    def test_zero_attenuation_collapse(self, scenario, rule_1000):
        pair = esc_at(scenario, ps.ChannelParams(attenuation=0.0), 1e8, rule_1000)
        assert pair.lower == pair.upper

    def test_low_snr_vanishes(self, scenario, rule_1000):
        pair = esc_at(scenario, ps.ChannelParams(), 1e-12, rule_1000)
        assert 0.0 <= pair.lower <= pair.upper < 1e-15

    def test_monotone_in_rho(self, scenario, rule_1000):
        vals = [esc_at(scenario, ps.ChannelParams(), r, rule_1000) for r in (1e6, 1e8, 1e10)]
        assert vals[0].upper <= vals[1].upper <= vals[2].upper
        assert vals[0].lower <= vals[1].lower <= vals[2].lower

    def test_term_sums_reference(self, scenario, rule_8000):
        chan = ps.ChannelParams()
        lo, up = sop_directions(scenario, chan)
        got_up = esc_term_values(scenario, chan, 1e8, rule_8000, *up)
        got_lo = esc_term_values(scenario, chan, 1e8, rule_8000, *lo)
        # esc_term_oracles(scenario, chan, 1e8, *direction) for each direction
        np.testing.assert_allclose(
            got_up,
            [3.888118980972693, 1.6464170954142006, 0.4491709079623515,
             0.0020659326114681824], rtol=1e-10)
        np.testing.assert_allclose(
            got_lo,
            [3.2494428320837816, 2.0248328335930883, 0.615906717549532,
             0.00305647073303006], rtol=1e-10)

    def test_term_sums_against_adaptive_oracle(self, scenario, rule_8000):
        chan = ps.ChannelParams()
        for direction in sop_directions(scenario, chan)[::-1]:
            got = esc_term_values(scenario, chan, 1e8, rule_8000, *direction)
            want = esc_term_oracles(scenario, chan, 1e8, *direction)
            np.testing.assert_allclose(got, want, rtol=1e-7)


class TestEscAsymptotic:
    def test_reference_point(self, scenario, rule_1000):
        pair = ps.esc_asymptotic(scenario, ps.ChannelParams(), rule_1000)
        # (piece1 + piece2 + piece3 - bob +/- log2(exp(-0.5))) / 2 of
        # log2_moment_oracles(scenario)
        assert pair.lower == pytest.approx(0.3632990671252686, rel=1e-10)
        assert pair.upper == pytest.approx(1.0846465875697504, rel=1e-10)

    def test_width_is_span_log(self, scenario, rule_1000):
        pair = ps.esc_asymptotic(scenario, ps.ChannelParams(), rule_1000)
        # width = -log2(exp(-2 alpha D)) = 2 alpha D log2(e)
        assert pair.width == pytest.approx(0.7213475204444817, rel=1e-12)

    def test_zero_attenuation_collapse(self, scenario, rule_1000):
        pair = ps.esc_asymptotic(scenario, ps.ChannelParams(attenuation=0.0), rule_1000)
        assert pair.lower == pair.upper

    def test_power_independence(self, scenario, rule_1000):
        # the saturation levels are the rows at rho = inf of grids that end at any finite power
        a, b = (ps.esc_bounds(scenario, ps.ChannelParams(), [power, math.inf], rule_1000)
                for power in (1e2, 1e16))
        assert (a.lower[-1], a.upper[-1]) == (b.lower[-1], b.upper[-1])

    def test_finite_snr_approaches_asymptote(self, scenario, rule_1000):
        chan = ps.ChannelParams()
        finite = esc_at(scenario, chan, 1e14, rule_1000)
        asym = ps.esc_asymptotic(scenario, chan, rule_1000)
        assert abs(finite.lower - asym.lower) < 1e-2
        assert abs(finite.upper - asym.upper) < 1e-2

    def test_moment_sums_against_oracle(self, scenario, rule_1000):
        bob, j, k, l = log2_moment_values(scenario, rule_1000)
        want_bob, want_j, want_k, want_l = log2_moment_oracles(scenario)
        assert bob == pytest.approx(want_bob, rel=1e-6)
        assert j + k + l == pytest.approx(want_j + want_k + want_l, rel=1e-6)


# the dense 0.25 dB grid to 80 dB: at n = 1000 it spans 23 blocks of rows
DENSE_GRID_DB = [-10.0 + 0.25 * k for k in range(361)]


class TestChannelLists:
    """A grid of channels that differ only in transmit power: one channel, one power array."""

    @pytest.mark.parametrize("alpha", [0.0, 0.01, 16.0])  # alpha * D = 400 underflows the span
    def test_point_alone_equals_point_in_list(self, scenario, target, rule_1000, alpha):
        # below rho* (43.4 dB) outage is certain and no node is evaluated,
        # above it the rows are kinked; rho = inf is the asymptotes' row.
        # At alpha = 0 both directions are one set of rows
        chan = ps.ChannelParams(attenuation=alpha)
        powers = [*(10 ** (snr_db / 10.0) for snr_db in DENSE_GRID_DB), math.inf]
        sop_alone = [sop_at(scenario, chan, p, target, rule_1000) for p in powers]
        esc_alone = [esc_at(scenario, chan, p, rule_1000) for p in powers]
        assert sop_alone[0] == ps.BoundPair(1.0, 1.0) and sop_alone[-1].lower < 1.0
        assert all(math.isfinite(pair.lower) and math.isfinite(pair.upper)
                   for pair in esc_alone)
        assert ps.sop_asymptotic(scenario, chan, target, rule_1000) == sop_alone[-1]
        assert ps.esc_asymptotic(scenario, chan, rule_1000) == esc_alone[-1]
        for order in (1, -1):  # ascending and descending rho
            for got, alone in ((ps.sop_bounds(scenario, chan, powers[::order], target, rule_1000),
                                sop_alone[::order]),
                               (ps.esc_bounds(scenario, chan, powers[::order], rule_1000),
                                esc_alone[::order])):
                # bit for bit, as Python floats
                assert got.lower.tolist() == [pair.lower for pair in alone]
                assert got.upper.tolist() == [pair.upper for pair in alone]

    def test_empty_list(self, scenario, target, rule_1000):
        for pair in (ps.sop_bounds(scenario, ps.ChannelParams(), [], target, rule_1000),
                     ps.esc_bounds(scenario, ps.ChannelParams(), [], rule_1000)):
            assert pair.lower.shape == pair.upper.shape == (0,)

    @pytest.mark.parametrize("grid", [pytest.param([1e8, power], id=str(power))
                                      for power in (0.0, -1.0, math.nan)]
                             + [pytest.param(1e5, id="0-d"), pytest.param([[1e5, 1e6]], id="2-D")])
    def test_rejects_what_tx_power_rejects(self, scenario, target, rule_1000, grid):
        # a power that tx_power rejects, or a grid that is not a 1-D sequence:
        # both brackets and the Monte Carlo raise the same error
        chan = ps.ChannelParams()
        for run in (lambda: ps.sop_bounds(scenario, chan, grid, target, rule_1000),
                    lambda: ps.esc_bounds(scenario, chan, grid, rule_1000),
                    lambda: montecarlo._mc_sweep(scenario, chan, grid, target,
                                                 ps.McConfig(trials=100))):
            with pytest.raises(ValueError, match="tx_power"):
                run()

    def test_rejects_unequal_noises(self, scenario, target, rule_1000):
        # rho = P/sigma^2 needs one noise level: bounds._eta_rho forms it and raises
        chan = ps.ChannelParams(noise_bob=1.0, noise_willie=2.0)
        for bound in (lambda: ps.sop_bounds(scenario, chan, [1e8], target, rule_1000),
                      lambda: ps.esc_bounds(scenario, chan, [1e8], rule_1000),
                      lambda: ps.sop_asymptotic(scenario, chan, target, rule_1000),
                      lambda: ps.esc_asymptotic(scenario, chan, rule_1000)):
            with pytest.raises(ValueError, match="noise_bob != noise_willie"):
                bound()

    def test_clamp_warns_once_per_column(self, caplog):
        values = np.array([0.5, -1e-17, 1.0 + 4e-16, -3e-17, 1.0])
        with caplog.at_level(logging.WARNING, logger="pinchsec.bounds"):
            got = bounds._clamp_probability(values, "sop lower bound")
            assert bounds._clamp_probability(values[[0, 4]], "sop upper bound").tolist() == [
                0.5, 1.0]
        assert got.tolist() == [0.5, 0.0, 1.0, 0.0, 1.0]
        assert [record.getMessage() for record in caplog.records] == [
            "clamping 3 sop lower bound value(s) into [0, 1], the farthest 1.0000000000000004"]

    def test_block_memory_stays_bounded(self, scenario, target, rule_1000):
        # rows run in blocks of ~16 at n = 1000 (about 0.9 MB for the SOP
        # and 0.6 MB for the ESC); all 361 rows at once would take ~20 MB
        chan = ps.ChannelParams()
        powers = [10 ** (snr_db / 10.0) for snr_db in DENSE_GRID_DB]
        ps.sop_bounds(scenario, chan, powers[:2], target, rule_1000)
        ps.esc_bounds(scenario, chan, powers[:2], rule_1000)
        peaks = []
        tracemalloc.start()
        try:
            for bound in (lambda: ps.sop_bounds(scenario, chan, powers, target, rule_1000),
                          lambda: ps.esc_bounds(scenario, chan, powers, rule_1000)):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                bound()
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert sum(peaks) <= 2e6, peaks
        # the ESC moments run in the same row blocks as its quadrature
        assert peaks[1] <= 6e5, peaks


def ufunc_state():
    """numpy's ufunc buffer size and floating-point error handling in this thread."""
    return np.getbufsize(), np.geterr()


class TestRowBuffer:
    # the term sums run with numpy's ufunc buffer cut to at most n elements
    # (_row_buffer), then give the caller back its own; no bit depends on it
    POWERS = [*(10 ** (snr_db / 10.0) for snr_db in DENSE_GRID_DB[::8]), math.inf]

    def brackets(self, scenario, target, rule):
        sop = ps.sop_bounds(scenario, ps.ChannelParams(), self.POWERS, target, rule)
        esc = ps.esc_bounds(scenario, ps.ChannelParams(), self.POWERS, rule)
        return [side.tobytes() for side in (sop.lower, sop.upper, esc.lower, esc.upper)]

    @pytest.mark.parametrize("n", [200, 1000, 8000])
    def test_bits_do_not_depend_on_the_callers_buffer(self, scenario, target, n):
        rule = ps.make_rule(n)
        want = self.brackets(scenario, target, rule)  # at numpy's default, 8192
        for size in (16, 65536):
            old = np.setbufsize(size)
            try:
                assert self.brackets(scenario, target, rule) == want, size
                assert np.getbufsize() == size
            finally:
                np.setbufsize(old)

    # a multiple of 16 at most n, never above the caller's and never below 16
    @pytest.mark.parametrize("n, caller, inside", [
        (200, 8192, 192), (1000, 8192, 992), (8000, 8192, 8000), (8192, 8192, 8192),
        (1000, 65536, 992), (1000, 512, 512), (1000, 16, 16), (10, 8192, 16)])
    def test_scope_takes_the_smaller_buffer(self, n, caller, inside):
        old = np.setbufsize(caller)
        try:
            with bounds._row_buffer(ps.make_rule(n)):
                assert np.getbufsize() == inside
            assert np.getbufsize() == caller
        finally:
            np.setbufsize(old)

    def test_term_sums_run_inside_the_scope(self, scenario, target, rule_1000, monkeypatch):
        seen = []

        def spy(rule, values):
            seen.append(np.getbufsize())
            return quad.integrate(rule, values)

        monkeypatch.setattr(bounds, "integrate", spy)
        self.brackets(scenario, target, rule_1000)
        assert len(seen) > 3 and set(seen) == {992}  # the ESC moments among them

    def test_callers_state_survives_a_return(self, scenario, target, rule_1000):
        for size in (np.getbufsize(), 65536, 512):
            old = np.setbufsize(size)
            try:
                with np.errstate(divide="ignore", over="ignore"):
                    before = ufunc_state()
                    self.brackets(scenario, target, rule_1000)
                    assert ufunc_state() == before
            finally:
                np.setbufsize(old)

    def test_callers_state_survives_a_raise(self, scenario, target, rule_1000, monkeypatch):
        def broken(rule, values):
            raise ArithmeticError("integrand")

        monkeypatch.setattr(bounds, "integrate", broken)
        before = ufunc_state()
        for bound in (lambda: ps.sop_bounds(scenario, ps.ChannelParams(), [1e8], target, rule_1000),
                      lambda: ps.esc_bounds(scenario, ps.ChannelParams(), [1e8], rule_1000)):
            with pytest.raises(ArithmeticError, match="integrand"):
                bound()
            assert ufunc_state() == before

    def test_other_threads_keep_their_buffer(self, scenario, target, rule_1000, monkeypatch):
        seen, inside, read = {}, threading.Event(), threading.Event()

        def other():
            inside.wait(30)
            seen["other"] = np.getbufsize()
            read.set()

        def spy(rule, values):
            if not inside.is_set():  # the first block: hold it until the other thread has read
                seen["caller"] = np.getbufsize()
                inside.set()
                read.wait(30)
            return quad.integrate(rule, values)

        monkeypatch.setattr(bounds, "integrate", spy)
        thread = threading.Thread(target=other)
        thread.start()
        try:
            ps.sop_bounds(scenario, ps.ChannelParams(), self.POWERS, target, rule_1000)
        finally:
            inside.set()
            thread.join(30)
        assert not thread.is_alive()
        assert seen == {"caller": 992, "other": 8192}
        assert np.getbufsize() == 8192


# the dense-bounds workload's model, spelled out so that a change of a
# default does not move the golden file
DENSE_MODEL = {"side_length_D": 25.0, "waveguide_height_d": 3.0, "carrier_freq_hz": 10e9,
               "attenuation_alpha": 0.01, "noise_bob_var": 1.0, "noise_willie_var": 1.0,
               "target_rate_bits": 0.01, "quadrature_n": 1000, "snr_db_grid": DENSE_GRID_DB}
DENSE_COLUMNS = ("sop_lb", "sop_ub", "sop_asym_lb", "sop_asym_ub",
                 "esc_lb", "esc_ub", "esc_asym_lb", "esc_asym_ub")


def dense_bounds_lines() -> list:
    """CSV lines (header first) of the bounds and asymptotes on DENSE_MODEL's grid, by repr."""
    cfg = cli.config_from_dict(DENSE_MODEL)
    rule = ps.make_rule(cfg.quadrature_n)
    sop_asym = ps.sop_asymptotic(cfg.scenario, cfg.channel, cfg.target, rule)
    esc_asym = ps.esc_asymptotic(cfg.scenario, cfg.channel, rule)
    sop = ps.sop_bounds(cfg.scenario, cfg.channel, cfg.tx_powers, cfg.target, rule)
    esc = ps.esc_bounds(cfg.scenario, cfg.channel, cfg.tx_powers, rule)
    lines = [",".join(("snr_db", *DENSE_COLUMNS))]
    for snr_db, sop_lb, sop_ub, esc_lb, esc_ub in zip(
            cfg.snr_db_grid, sop.lower.tolist(), sop.upper.tolist(), esc.lower.tolist(),
            esc.upper.tolist()):
        values = (snr_db, sop_lb, sop_ub, sop_asym.lower, sop_asym.upper,
                  esc_lb, esc_ub, esc_asym.lower, esc_asym.upper)
        lines.append(",".join(repr(float(v)) for v in values))
    return lines


class TestSopKernel:
    # sop_term_sums: both directions in one call, (a, b, c) and (u_0, u_1) as
    # arrays over its rows, row blocks written into one workspace per call

    @pytest.mark.parametrize("rate", [0.0, 0.01, 600.0])  # 4^600 overflows: b = +inf
    @pytest.mark.parametrize("alpha", [0.0, 0.01, 16.0])
    def test_array_rows_equal_scalar_forms(self, scenario, alpha, rate):
        target = ps.SecrecyTarget(rate=rate)
        chan = ps.ChannelParams(attenuation=alpha)
        powers = [*(10 ** (snr_db / 10.0) for snr_db in DENSE_GRID_DB), math.inf]
        span = bounds.attenuation_span(scenario, chan)
        for direction in ((span, 1.0), (1.0, span)):
            got = np.column_stack(bounds._outage_rows(
                scenario, target, [gain(chan, p) for p in powers], *direction))
            want = []
            for power in powers:
                abc = outage_coefficients(chan, power, target, *direction)
                want.append([*abc, *outage_kinks(scenario, *abc)])
            # bit for bit, NaN (c = inf * 0 where the span underflows) included
            np.testing.assert_array_equal(got.view(np.uint64), np.array(want).view(np.uint64))

    @pytest.mark.parametrize("rate", [0.0, 0.01])
    @pytest.mark.parametrize("alpha", [0.0, 0.01, 16.0])
    def test_rows_equal_per_row_oracle(self, rule_1000, alpha, rate):
        # full rows (clipped interval = the whole piece) share the piece's
        # nodes and density; every row must have the bits of its own nodes
        # and density, on the dense grid and the property configs
        target = ps.SecrecyTarget(rate=rate)
        cases = [(ps.Scenario(), ps.ChannelParams(attenuation=alpha),
                  [*(10 ** (snr_db / 10.0) for snr_db in DENSE_GRID_DB), math.inf])]
        for data in PROPERTY_CONFIGS:
            cfg = cli.config_from_dict({**data, "snr_db_grid": [0.0]})
            cases.append((cfg.scenario, ps.ChannelParams(carrier_freq=cfg.channel.carrier_freq,
                                                                 attenuation=alpha),
                          [*(10 ** (snr_db / 10.0) for snr_db in range(-20, 201, 10)),
                           math.inf]))
        kinds = set()
        for scenario, chan, powers in cases:
            rows = bounds._directions(bounds._eta_rho(chan, powers),
                                      (bounds.attenuation_span(scenario, chan), 1.0))
            got = bounds.sop_term_sums(scenario, target, rule_1000, *rows)
            want = sop_term_rows(scenario, target, rule_1000, *rows)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            *_, u_0, u_1 = bounds._outage_rows(scenario, target, *rows)
            per_piece = []
            for start, width, _, _ in ps.ZwDistribution(scenario.side_length).branches:
                lo = np.clip(u_0, start, start + width)
                cut = np.clip(u_1, lo, start + width)
                per_piece.append(np.where((lo == start) & (cut == start + width), "full",
                                          np.where(lo < cut, "partial", "none")).tolist())
            kinds.update(zip(*per_piece))
        assert any("full" in kind for kind in kinds), kinds  # the shared path ran
        if alpha == 0.01:
            assert ("partial", "full", "full") in kinds, kinds

    @pytest.mark.parametrize("key, value", [("attenuation_alpha", 20.0),
                                            ("waveguide_height_d", 1e150)])
    def test_saturated_lower_bound_is_exactly_zero(self, key, value, caplog):
        # the lower direction's u_1 <= 0 at rho = inf (a span that underflows
        # leaves Willie deaf; d^2 = 1e300 dwarfs every offset): every Willie
        # offset saturates F_Zb, so the no-outage mass is exactly 1
        cfg = cli.config_from_dict({key: value, "mc_trials": 100})
        with caplog.at_level(logging.WARNING, logger="pinchsec"):
            records = cli.run_sweep(cfg)
        assert not caplog.records
        assert all(record.sop_asym_lb == 0.0 for record in records)

    def test_dense_grid_matches_golden(self):
        """The dense-bounds grid's bounds and asymptotes, byte for byte, in this numpy's class.

        The golden files change only with a CHANGES.md entry saying why.  A
        change meant to move their bytes regenerates every class's files
        with tests/regen_goldens.py.
        """
        text = "".join(line + "\n" for line in dense_bounds_lines())
        want = golden_path("dense_bounds.csv").read_text(encoding="ascii")
        for number, (got_line, want_line) in enumerate(zip(text.split("\n"), want.split("\n")), 1):
            for name, got, frozen in zip(("snr_db", *DENSE_COLUMNS), got_line.split(","),
                                         want_line.split(",")):
                assert got == frozen, f"line {number}, column {name}: {got} != {frozen}"
        assert text.encode("ascii") == golden_path("dense_bounds.csv").read_bytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads Linux's minor page-fault count")
    def test_steady_state_sop_bounds_take_few_page_faults(self):
        # the dense grid's 722 rows run in blocks of 16 at n = 1000, so one
        # block's temporaries are 128 000 bytes each, near glibc's 128 KiB
        # mmap and trim thresholds; allocated per block, they took ~3300-3500
        # minor faults per call.  A fresh interpreter, since this process's
        # heap history (other tests' large frees raise glibc's dynamic
        # threshold) would hide them
        script = "\n".join([
            "import resource",
            "import pinchsec as ps",
            "powers = [10 ** ((-10.0 + 0.25 * k) / 10.0) for k in range(361)]",
            "args = (ps.Scenario(), ps.ChannelParams(), powers, ps.SecrecyTarget(),"
            " ps.make_rule(1000))",
            "ps.sop_bounds(*args)",
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            "ps.sop_bounds(*args)",
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
        ])
        src_dir = Path(bounds.__file__).resolve().parent.parent
        env = {"PATH": "", "PYTHONPATH": str(src_dir), "PYTHONDONTWRITEBYTECODE": "1"}
        # the second child fixes glibc's mmap threshold at its 128 KiB
        # default, so no free during start-up or the warm-up call can raise
        # it and let the heap hide per-block temporaries: with them a call
        # took 874-2016 faults there, by the start-up's heap layout; without
        # them 94, the pages of the workspace, which is mmapped at that size
        for extra in ({}, {"MALLOC_MMAP_THRESHOLD_": "131072"}):
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, timeout=120, env={**env, **extra})
            assert proc.returncode == 0, proc.stderr
            faults = int(proc.stdout)
            assert faults < 500, (extra, faults)


def quadrature_term_sums(scenario, rule, gains):
    """esc_term_sums rows by the quadrature of _rate_offset alone, one per (bob, willie) gain."""
    d2 = scenario.waveguide_height ** 2
    pieces = bounds._densities(scenario, rule)
    return np.array([[width * bounds.integrate(rule, bounds._rate_offset(g, d2, u) * density)
                      for g, (width, u, density) in zip((bob, willie, willie, willie), pieces)]
                     for bob, willie in gains])


def gain_rows(gains, bob_factor, willie_factor):
    """The (bob, willie) gains esc_term_sums forms from each finite eta*rho."""
    return [(g * bob_factor, g * willie_factor) for g in gains]


class TestEscSeries:
    # rows with s = g/(d^2 + g) <= 1/2 take the series over moments, the others quadrature

    def test_series_matches_quadrature(self, rule_1000):
        cases = [(ps.Scenario(), ps.ChannelParams(attenuation=alpha),
                  [10 ** (snr_db / 10.0) for snr_db in DENSE_GRID_DB])
                 for alpha in (0.0, 0.01, 16.0)]
        for data in PROPERTY_CONFIGS:
            cfg = cli.config_from_dict({**data, "snr_db_grid": [0.0]})
            for alpha in (cfg.channel.attenuation, 0.0):
                cases.append((cfg.scenario,
                              ps.ChannelParams(carrier_freq=cfg.channel.carrier_freq,
                                               attenuation=alpha),
                              [10 ** (snr_db / 10.0) for snr_db in range(-20, 201, 10)]))
        for scenario, chan, powers in cases:
            span = bounds.attenuation_span(scenario, chan)
            gains = [gain(chan, power) for power in powers]
            for direction in ((1.0, span), (span, 1.0)):
                got = bounds.esc_term_sums(scenario, rule_1000, gains, *direction)
                want = quadrature_term_sums(scenario, rule_1000, gain_rows(gains, *direction))
                np.testing.assert_allclose(got, want, rtol=2e-15, atol=0,
                                           err_msg=str(scenario))

    def test_continuous_at_the_switch(self, scenario, rule_1000):
        # g/d^2 = 0.999 and 1.0 take the series, 1.001 and one ulp past 1.0 quadrature
        d2 = scenario.waveguide_height ** 2
        gains = [0.999 * d2, d2, math.nextafter(d2, math.inf), 1.001 * d2]
        below, at, past, above = bounds.esc_term_sums(scenario, rule_1000, gains, 1.0, 1.0)
        assert np.all(np.isfinite([below, at, past, above]))
        assert np.all((below > at) & (past > above))  # the offsets fall as g grows
        np.testing.assert_allclose(past, at, rtol=1e-12, atol=0)  # no step at the switch

    def test_underflowed_gain_is_zero(self, scenario, rule_1000):
        # at -3200 dB eta*rho underflows to 0: s is exactly 0, and so is the row
        g = gain(ps.ChannelParams(), 10 ** (-320.0))
        assert g == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sums = bounds.esc_term_sums(scenario, rule_1000, [g], 1.0, 1.0)
        assert sums.tolist() == [[0.0, 0.0, 0.0, 0.0]]

    def test_quadrature_only_where_s_exceeds_half(self, scenario, rule_1000, monkeypatch):
        rows = []
        offset = bounds._rate_offset
        monkeypatch.setattr(bounds, "_rate_offset",
                            lambda gain, *a: rows.append(np.shape(gain)[0]) or offset(gain, *a))
        # to 60 dB eta*rho stays below d^2 = 9: no log1p per node
        ps.esc_bounds(scenario, ps.ChannelParams(),
                      [10 ** (snr_db / 10.0) for snr_db in DENSE_GRID_DB[:281]], rule_1000)
        assert rows == []
        # at g = d^2 the series still, one ulp past it quadrature
        d2 = scenario.waveguide_height ** 2
        bounds.esc_term_sums(scenario, rule_1000, [d2, math.nextafter(d2, math.inf)], 1.0, 1.0)
        assert rows == [1, 1, 1, 1]
        rows.clear()
        # rho = inf: both directions have the gains (inf, inf), one row each
        # on the Zb density and on each Zw piece; at alpha = 0 the two
        # directions are one, evaluated once
        ps.esc_asymptotic(scenario, ps.ChannelParams(), rule_1000)
        assert rows == [2, 2, 2, 2]
        rows.clear()
        ps.esc_asymptotic(scenario, ps.ChannelParams(attenuation=0.0), rule_1000)
        assert rows == [1, 1, 1, 1]


class TestHighSnrEstimators:
    def test_diversity_of_constant(self):
        assert ps.diversity_estimate(lambda r: 0.25, 1e3, 1e6) == 0.0

    def test_diversity_of_power_law(self):
        assert ps.diversity_estimate(lambda r: 1.0 / r, 1e3, 1e6) == pytest.approx(
            1.0, rel=1e-12)

    def test_diversity_rejections(self):
        with pytest.raises(ValueError):
            ps.diversity_estimate(lambda r: 0.5, -1.0, 1e6)
        with pytest.raises(ValueError):
            ps.diversity_estimate(lambda r: 0.5, 1e6, 1e3)
        with pytest.raises(ValueError):
            ps.diversity_estimate(lambda r: 0.0, 1e3, 1e6)

    def test_slope_of_log_curve(self):
        assert ps.slope_estimate(lambda r: 0.5 * math.log2(r), 1e3, 1e6) == pytest.approx(
            0.5, rel=1e-12)
        assert ps.slope_estimate(lambda r: 1.75, 1e3, 1e6) == 0.0

    def test_slope_rejections(self):
        with pytest.raises(ValueError):
            ps.slope_estimate(lambda r: 1.0, 0.0, 1e3)
        with pytest.raises(ValueError):
            ps.slope_estimate(lambda r: 1.0, 1e3, 1e3)

    def test_saturating_curves_have_zero_order(self, scenario, target, rule_1000):
        chan = ps.ChannelParams()

        def sop_up(rho):
            return sop_at(scenario, chan, rho, target, rule_1000).upper

        def sop_lo(rho):
            return sop_at(scenario, chan, rho, target, rule_1000).lower

        def esc_up(rho):
            return esc_at(scenario, chan, rho, rule_1000).upper

        def esc_lo(rho):
            return esc_at(scenario, chan, rho, rule_1000).lower

        assert abs(ps.diversity_estimate(sop_up, 1e12, 1e14)) < 1e-6
        assert abs(ps.diversity_estimate(sop_lo, 1e12, 1e14)) < 1e-6
        assert abs(ps.slope_estimate(esc_up, 1e12, 1e14)) < 1e-5
        assert abs(ps.slope_estimate(esc_lo, 1e12, 1e14)) < 1e-5
