"""Closed-form bound tests.

The reference numbers at rho = 1e8 are outputs of the adaptive-quadrature
oracles of conftest.py (scipy.integrate.quad on the z-coordinate form of
each term, with the threshold kinks as breakpoint hints), written out to
17 digits; the comment above each names the oracle and how its terms were
combined.  The program's quadrature must match them to 1e-10 relative.
"""

import logging
import math

import numpy as np
import pytest

import pinchsec as ps
from pinchsec import bounds
from conftest import (SNR_GRID_DB, chan_at, esc_term_oracles, esc_term_values,
                      log2_moment_oracles, log2_moment_values, sop_directions,
                      sop_term_oracles)

SPAN = math.exp(-0.5)  # exp(-2 * 0.01 * 25)


class TestCoefficients:
    def test_span_value(self, scenario):
        assert bounds.attenuation_span(scenario, chan_at(1e8)) == pytest.approx(
            0.6065306597126334, rel=1e-15)
        assert bounds.attenuation_span(scenario, chan_at(1e8, alpha=0.0)) == 1.0

    def test_sop_pairs(self, scenario, target, rule_1000, monkeypatch):
        # (bob_factor, willie_factor) of the upper, then the lower direction
        seen = []
        term_sums = bounds.sop_term_sums
        monkeypatch.setattr(bounds, "sop_term_sums",
                            lambda *a: seen.append(a[-2:]) or term_sums(*a))
        ps.sop_bounds(scenario, chan_at(1e8), target, rule_1000)
        assert seen == [(SPAN, 1.0), (1.0, SPAN)]
        assert sop_directions(scenario, chan_at(1e8)) == tuple(seen)

    def test_esc_pairs(self, scenario, rule_1000, monkeypatch):
        seen = []
        term_sums = bounds.esc_term_sums
        monkeypatch.setattr(bounds, "esc_term_sums",
                            lambda *a: seen.append(a[-2:]) or term_sums(*a))
        ps.esc_bounds(scenario, chan_at(1e8), rule_1000)
        assert seen == [(1.0, SPAN), (SPAN, 1.0)]

    def test_underflowed_span_is_valid(self, scenario, target, rule_1000):
        # alpha * D = 500: exp(-1000) is 0.0, yet the model is well defined
        chan = chan_at(1e8, alpha=20.0)
        assert bounds.attenuation_span(scenario, chan) == 0.0
        for pair in (ps.sop_bounds(scenario, chan, target, rule_1000),
                     ps.sop_asymptotic(scenario, chan, target, rule_1000),
                     ps.esc_bounds(scenario, chan, rule_1000),
                     ps.esc_asymptotic(scenario, chan, rule_1000)):
            assert math.isfinite(pair.lower) and math.isfinite(pair.upper)
            assert pair.lower <= pair.upper
        # a deaf Willie (factor 0) leaves no high-SNR outage threshold
        assert ps.sop_asymptotic(scenario, chan, target, rule_1000).upper == 1.0
        sums = bounds.sop_asymptotic_term_sums(scenario, target, rule_1000, 1.0, 0.0)
        assert sum(sums) == pytest.approx(1.0, abs=1e-11)
        # log2 of the span in the log domain: -2 alpha D / ln 2
        assert ps.esc_asymptotic(scenario, chan, rule_1000).width == pytest.approx(
            1000.0 / math.log(2.0), rel=1e-12)


class TestSopThreshold:
    def test_reference_values(self, scenario, target):
        chan = chan_at(1e8)
        up, lo = sop_directions(scenario, chan)
        z = 165.25
        fr = 4.0 ** 0.01
        for (bob, willie), frozen in ((up, 98.4557479348137), (lo, 266.94101014423063)):
            want = (chan.eta * 1e8 * bob
                    / (fr - 1.0 + fr * chan.eta * 1e8 * willie / z))
            got = float(bounds.sop_threshold(z, bob, willie, chan, target))
            assert got == pytest.approx(want, rel=1e-15)
            assert got == pytest.approx(frozen, rel=1e-13)

    def test_vectorized(self, scenario, target):
        chan = chan_at(1e8)
        up, _ = sop_directions(scenario, chan)
        z = np.array([9.0, 100.0, 790.25])
        thr = bounds.sop_threshold(z, *up, chan, target)
        assert thr.shape == (3,)
        assert np.all(np.diff(thr) > 0)  # farther Willie, looser threshold

    def test_zero_attenuation_pairs_coincide(self, scenario, target):
        chan = chan_at(1e8, alpha=0.0)
        up, lo = sop_directions(scenario, chan)
        z = np.linspace(9.0, 790.25, 50)
        np.testing.assert_array_equal(bounds.sop_threshold(z, *up, chan, target),
                                      bounds.sop_threshold(z, *lo, chan, target))

    def test_high_snr_scaling(self, scenario, target):
        chan = chan_at(1e18)
        fr = 4.0 ** 0.01
        for bob, willie in sop_directions(scenario, chan):
            for z in (9.0, 165.25, 790.25):
                want = z * bob / (fr * willie)
                assert float(bounds.sop_threshold(z, bob, willie, chan, target)) == pytest.approx(
                    want, rel=1e-10)

    def test_rejects_nonpositive_z(self, scenario, target):
        chan = chan_at(1e8)
        up, _ = sop_directions(scenario, chan)
        with pytest.raises(ValueError):
            bounds.sop_threshold(0.0, *up, chan, target)
        with pytest.raises(ValueError):
            bounds.sop_threshold(np.array([10.0, -1.0]), *up, chan, target)

    def test_degenerate_denominator_gives_inf(self, scenario):
        # zero target rate with an infinitely distant Willie: no outage
        chan = chan_at(1e8)
        up, _ = sop_directions(scenario, chan)
        got = bounds.sop_threshold(np.inf, *up, chan, ps.SecrecyTarget(rate=0.0))
        assert float(got) == np.inf


class TestOutageKinks:
    def test_kinks_are_saturation_points(self, scenario, target, zb_dist):
        # kinks are offsets u = z - d^2; thresholds are formed at z = 9 + u
        chan = chan_at(1e8)
        fr = target.threshold
        eta_rho = chan.eta * chan.rho
        for bob, willie in sop_directions(scenario, chan):
            finite = bounds._outage_kinks(scenario, eta_rho * bob, fr - 1.0,
                                          fr * eta_rho * willie)
            asym = bounds._outage_kinks(scenario, bob, 0.0, fr * willie)
            assert len(finite) == 2 and len(asym) == 2
            thr_finite = bounds.sop_threshold(9.0 + np.array(finite), bob, willie, chan, target)
            thr_asym = (9.0 + np.array(asym)) * bob / (fr * willie)
            np.testing.assert_allclose(thr_finite, 9.0 + np.array(zb_dist.support), rtol=1e-12)
            np.testing.assert_allclose(thr_asym, 9.0 + np.array(zb_dist.support), rtol=1e-12)

    def test_no_kink_when_threshold_stays_below_support(self, scenario, target):
        # below rho* = (4^Rbar - 1) d^2 / eta even the best threshold misses d^2
        chan = chan_at(1e4)
        fr = target.threshold
        eta_rho = chan.eta * chan.rho
        assert bounds._outage_kinks(scenario, eta_rho, fr - 1.0, fr * eta_rho) == []

    def test_certain_outage_skips_quadrature(self, scenario, target, rule_1000, monkeypatch):
        calls = []
        integrate = bounds.integrate
        monkeypatch.setattr(bounds, "integrate",
                            lambda rule, g: calls.append(rule) or integrate(rule, g))
        chan = chan_at(1e4)
        for direction in sop_directions(scenario, chan):
            sums = bounds.sop_term_sums(scenario, chan, target, rule_1000, *direction)
            assert sums == [0.0, 0.0, 0.0]
        assert calls == []
        pair = ps.sop_bounds(scenario, chan, target, rule_1000)
        assert (pair.lower, pair.upper) == (1.0, 1.0)


class TestSopBounds:
    def test_reference_point(self, scenario, target, rule_1000):
        pair = ps.sop_bounds(scenario, chan_at(1e8), target, rule_1000)
        # 1 - sum(sop_term_oracles(...)) for the lower and the upper
        # direction of sop_directions
        assert pair.lower == pytest.approx(0.12810884315380378, rel=1e-10)
        assert pair.upper == pytest.approx(0.3579206851684762, rel=1e-10)

    def test_ordering_across_grid(self, scenario, target, rule_1000):
        for snr_db in SNR_GRID_DB:
            pair = ps.sop_bounds(scenario, chan_at(10 ** (snr_db / 10.0)), target, rule_1000)
            assert 0.0 <= pair.lower <= pair.upper <= 1.0

    def test_zero_attenuation_collapse(self, scenario, target, rule_1000):
        pair = ps.sop_bounds(scenario, chan_at(1e8, alpha=0.0), target, rule_1000)
        assert pair.lower == pair.upper

    def test_low_snr_saturates_at_one(self, scenario, target, rule_1000):
        pair = ps.sop_bounds(scenario, chan_at(1e-12), target, rule_1000)
        assert pair.lower == 1.0
        assert pair.upper == 1.0

    def test_monotone_in_rho(self, scenario, target, rule_1000):
        vals = [ps.sop_bounds(scenario, chan_at(r), target, rule_1000)
                for r in (1e6, 1e8, 1e10)]
        assert vals[0].upper >= vals[1].upper >= vals[2].upper
        assert vals[0].lower >= vals[1].lower >= vals[2].lower

    def test_no_clamping_on_grid(self, scenario, target, rule_1000, caplog):
        with caplog.at_level(logging.WARNING, logger="pinchsec.bounds"):
            for snr_db in SNR_GRID_DB:
                ps.sop_bounds(scenario, chan_at(10 ** (snr_db / 10.0)), target, rule_1000)
        assert not caplog.records

    def test_term_sums_reference(self, scenario, target, rule_8000):
        chan = chan_at(1e8)
        up, lo = sop_directions(scenario, chan)
        got_up = bounds.sop_term_sums(scenario, chan, target, rule_8000, *up)
        got_lo = bounds.sop_term_sums(scenario, chan, target, rule_8000, *lo)
        # sop_term_oracles(scenario, chan, target, *direction) for each direction
        np.testing.assert_allclose(
            got_up,
            [0.2884738515657313, 0.3501617515801622, 0.003443711685630247], rtol=1e-10)
        np.testing.assert_allclose(
            got_lo,
            [0.49062265357697776, 0.3778247915835881, 0.003443711685630247], rtol=1e-10)

    def test_term_sums_against_adaptive_oracle(self, scenario, target, rule_8000):
        chan = chan_at(1e8)
        for direction in sop_directions(scenario, chan):
            got = bounds.sop_term_sums(scenario, chan, target, rule_8000, *direction)
            want = sop_term_oracles(scenario, chan, target, *direction)
            np.testing.assert_allclose(got, want, rtol=1e-7)


class TestSopAsymptotic:
    def test_reference_point(self, scenario, target, rule_1000):
        chan = chan_at(1e8)
        pair = ps.sop_asymptotic(scenario, chan, target, rule_1000)
        # 1 - sum(sop_term_oracles(..., asymptotic=True)) for the lower and
        # the upper direction of sop_directions
        assert pair.lower == pytest.approx(0.1277505911592247, rel=1e-10)
        assert pair.upper == pytest.approx(0.3570016314035447, rel=1e-10)

    def test_power_independence(self, scenario, target, rule_1000):
        a = ps.sop_asymptotic(scenario, chan_at(1e2), target, rule_1000)
        b = ps.sop_asymptotic(scenario, chan_at(1e16), target, rule_1000)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_zero_attenuation_collapse(self, scenario, target, rule_1000):
        pair = ps.sop_asymptotic(scenario, chan_at(1e8, alpha=0.0), target, rule_1000)
        assert pair.lower == pair.upper

    def test_finite_snr_approaches_asymptote(self, scenario, target, rule_1000):
        chan = chan_at(1e14)
        finite = ps.sop_bounds(scenario, chan, target, rule_1000)
        asym = ps.sop_asymptotic(scenario, chan, target, rule_1000)
        assert abs(finite.lower - asym.lower) < 1e-2
        assert abs(finite.upper - asym.upper) < 1e-2

    def test_oracle_agreement(self, scenario, target, rule_8000):
        chan = chan_at(1e8)
        for direction in sop_directions(scenario, chan):
            got = bounds.sop_asymptotic_term_sums(scenario, target, rule_8000, *direction)
            want = sop_term_oracles(scenario, chan, target, *direction, asymptotic=True)
            np.testing.assert_allclose(got, want, rtol=1e-7)


class TestEscBounds:
    def test_reference_point(self, scenario, rule_1000):
        pair = ps.esc_bounds(scenario, chan_at(1e8), rule_1000)
        # (bob - piece1 - piece2 - piece3) / 2 of esc_term_oracles(...) for
        # the lower and the upper direction (sop_directions reversed)
        assert pair.lower == pytest.approx(0.30282340510406547, rel=1e-10)
        assert pair.upper == pytest.approx(0.8952325224923363, rel=1e-10)

    def test_ordering_across_grid(self, scenario, rule_1000):
        for snr_db in SNR_GRID_DB:
            pair = ps.esc_bounds(scenario, chan_at(10 ** (snr_db / 10.0)), rule_1000)
            assert pair.lower <= pair.upper

    def test_zero_attenuation_collapse(self, scenario, rule_1000):
        pair = ps.esc_bounds(scenario, chan_at(1e8, alpha=0.0), rule_1000)
        assert pair.lower == pair.upper

    def test_low_snr_vanishes(self, scenario, rule_1000):
        pair = ps.esc_bounds(scenario, chan_at(1e-12), rule_1000)
        assert 0.0 <= pair.lower <= pair.upper < 1e-15

    def test_monotone_in_rho(self, scenario, rule_1000):
        vals = [ps.esc_bounds(scenario, chan_at(r), rule_1000) for r in (1e6, 1e8, 1e10)]
        assert vals[0].upper <= vals[1].upper <= vals[2].upper
        assert vals[0].lower <= vals[1].lower <= vals[2].lower

    def test_term_sums_reference(self, scenario, rule_8000):
        chan = chan_at(1e8)
        lo, up = sop_directions(scenario, chan)
        got_up = esc_term_values(scenario, chan, rule_8000, *up)
        got_lo = esc_term_values(scenario, chan, rule_8000, *lo)
        # esc_term_oracles(scenario, chan, *direction) for each direction
        np.testing.assert_allclose(
            got_up,
            [3.888118980972693, 1.6464170954142006, 0.4491709079623515,
             0.0020659326114681824], rtol=1e-10)
        np.testing.assert_allclose(
            got_lo,
            [3.2494428320837816, 2.0248328335930883, 0.615906717549532,
             0.00305647073303006], rtol=1e-10)

    def test_term_sums_against_adaptive_oracle(self, scenario, rule_8000):
        chan = chan_at(1e8)
        for direction in sop_directions(scenario, chan)[::-1]:
            got = esc_term_values(scenario, chan, rule_8000, *direction)
            want = esc_term_oracles(scenario, chan, *direction)
            np.testing.assert_allclose(got, want, rtol=1e-7)


class TestEscAsymptotic:
    def test_reference_point(self, scenario, rule_1000):
        pair = ps.esc_asymptotic(scenario, chan_at(1e8), rule_1000)
        # (piece1 + piece2 + piece3 - bob +/- log2(exp(-0.5))) / 2 of
        # log2_moment_oracles(scenario)
        assert pair.lower == pytest.approx(0.3632990671252686, rel=1e-10)
        assert pair.upper == pytest.approx(1.0846465875697504, rel=1e-10)

    def test_width_is_span_log(self, scenario, rule_1000):
        pair = ps.esc_asymptotic(scenario, chan_at(1e8), rule_1000)
        # width = -log2(exp(-2 alpha D)) = 2 alpha D log2(e)
        assert pair.width == pytest.approx(0.7213475204444817, rel=1e-12)

    def test_zero_attenuation_collapse(self, scenario, rule_1000):
        pair = ps.esc_asymptotic(scenario, chan_at(1e8, alpha=0.0), rule_1000)
        assert pair.lower == pair.upper

    def test_power_independence(self, scenario, rule_1000):
        a = ps.esc_asymptotic(scenario, chan_at(1e2), rule_1000)
        b = ps.esc_asymptotic(scenario, chan_at(1e16), rule_1000)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_finite_snr_approaches_asymptote(self, scenario, rule_1000):
        chan = chan_at(1e14)
        finite = ps.esc_bounds(scenario, chan, rule_1000)
        asym = ps.esc_asymptotic(scenario, chan, rule_1000)
        assert abs(finite.lower - asym.lower) < 1e-2
        assert abs(finite.upper - asym.upper) < 1e-2

    def test_moment_sums_against_oracle(self, scenario, rule_1000):
        bob, j, k, l = log2_moment_values(scenario, rule_1000)
        want_bob, want_j, want_k, want_l = log2_moment_oracles(scenario)
        assert bob == pytest.approx(want_bob, rel=1e-6)
        assert j + k + l == pytest.approx(want_j + want_k + want_l, rel=1e-6)


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
        def sop_up(rho):
            return ps.sop_bounds(scenario, chan_at(rho), target, rule_1000).upper

        def sop_lo(rho):
            return ps.sop_bounds(scenario, chan_at(rho), target, rule_1000).lower

        def esc_up(rho):
            return ps.esc_bounds(scenario, chan_at(rho), rule_1000).upper

        def esc_lo(rho):
            return ps.esc_bounds(scenario, chan_at(rho), rule_1000).lower

        assert abs(ps.diversity_estimate(sop_up, 1e12, 1e14)) < 1e-6
        assert abs(ps.diversity_estimate(sop_lo, 1e12, 1e14)) < 1e-6
        assert abs(ps.slope_estimate(esc_up, 1e12, 1e14)) < 1e-5
        assert abs(ps.slope_estimate(esc_lo, 1e12, 1e14)) < 1e-5
