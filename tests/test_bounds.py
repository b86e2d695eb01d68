"""Closed-form bound tests.

Frozen reference numbers were produced by adaptive quadrature on the
z-coordinate form of each term (scipy.integrate.quad with breakpoint
hints); the conftest oracles recompute them on demand.
"""

import logging
import math

import numpy as np
import pytest

import pinchsec as ps
from pinchsec import bounds
from conftest import (SNR_GRID_DB, chan_at, esc_term_oracles,
                      log2_moment_oracles, sop_term_oracles)

SPAN = math.exp(-0.5)  # exp(-2 * 0.01 * 25)


class TestCoefficients:
    def test_span_value(self, scenario):
        assert bounds.attenuation_span(scenario, chan_at(1e8)) == pytest.approx(
            0.6065306597126334, rel=1e-15)
        assert bounds.attenuation_span(scenario, chan_at(1e8, alpha=0.0)) == 1.0

    def test_sop_pairs(self, scenario):
        up, lo = bounds.sop_coefficients(scenario, chan_at(1e8))
        assert (up.bob_factor, up.willie_factor) == (SPAN, 1.0)
        assert (lo.bob_factor, lo.willie_factor) == (1.0, SPAN)

    def test_esc_pairs(self, scenario):
        up, lo = bounds.esc_coefficients(scenario, chan_at(1e8))
        assert (up.bob_factor, up.willie_factor) == (1.0, SPAN)
        assert (lo.bob_factor, lo.willie_factor) == (SPAN, 1.0)

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            bounds.BoundCoefficients(bob_factor=0.0, willie_factor=1.0)
        with pytest.raises(ValueError):
            bounds.BoundCoefficients(bob_factor=1.0, willie_factor=1.5)


class TestSopThreshold:
    def test_reference_values(self, scenario, target):
        chan = chan_at(1e8)
        up, lo = bounds.sop_coefficients(scenario, chan)
        z = 165.25
        fr = 4.0 ** 0.01
        for coeff, frozen in ((up, 98.4557479348137), (lo, 266.94101014423063)):
            want = (chan.eta * 1e8 * coeff.bob_factor
                    / (fr - 1.0 + fr * chan.eta * 1e8 * coeff.willie_factor / z))
            got = float(bounds.sop_threshold(z, coeff, chan, target))
            assert got == pytest.approx(want, rel=1e-15)
            assert got == pytest.approx(frozen, rel=1e-13)

    def test_vectorized(self, scenario, target):
        chan = chan_at(1e8)
        up, _ = bounds.sop_coefficients(scenario, chan)
        z = np.array([9.0, 100.0, 790.25])
        thr = bounds.sop_threshold(z, up, chan, target)
        assert thr.shape == (3,)
        assert np.all(np.diff(thr) > 0)  # farther Willie, looser threshold

    def test_zero_attenuation_pairs_coincide(self, scenario, target):
        chan = chan_at(1e8, alpha=0.0)
        up, lo = bounds.sop_coefficients(scenario, chan)
        z = np.linspace(9.0, 790.25, 50)
        np.testing.assert_array_equal(bounds.sop_threshold(z, up, chan, target),
                                      bounds.sop_threshold(z, lo, chan, target))

    def test_high_snr_scaling(self, scenario, target):
        chan = chan_at(1e18)
        up, lo = bounds.sop_coefficients(scenario, chan)
        fr = 4.0 ** 0.01
        for coeff in (up, lo):
            for z in (9.0, 165.25, 790.25):
                want = z * coeff.bob_factor / (fr * coeff.willie_factor)
                assert float(bounds.sop_threshold(z, coeff, chan, target)) == pytest.approx(
                    want, rel=1e-10)

    def test_rejects_nonpositive_z(self, scenario, target):
        chan = chan_at(1e8)
        up, _ = bounds.sop_coefficients(scenario, chan)
        with pytest.raises(ValueError):
            bounds.sop_threshold(0.0, up, chan, target)
        with pytest.raises(ValueError):
            bounds.sop_threshold(np.array([10.0, -1.0]), up, chan, target)

    def test_degenerate_denominator_gives_inf(self, scenario):
        # zero target rate with an infinitely distant Willie: no outage
        chan = chan_at(1e8)
        up, _ = bounds.sop_coefficients(scenario, chan)
        got = bounds.sop_threshold(np.inf, up, chan, ps.SecrecyTarget(rate=0.0))
        assert float(got) == np.inf


class TestSopBounds:
    def test_reference_point(self, scenario, target, rule_1000):
        pair = ps.sop_bounds(scenario, chan_at(1e8), target, rule_1000)
        assert pair.lower == pytest.approx(0.12810839659661988, rel=1e-12)
        assert pair.upper == pytest.approx(0.35791954627800937, rel=1e-12)

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
        up, lo = bounds.sop_coefficients(scenario, chan)
        got_up = bounds.sop_term_sums(scenario, chan, target, rule_8000, up)
        got_lo = bounds.sop_term_sums(scenario, chan, target, rule_8000, lo)
        np.testing.assert_allclose(
            got_up.as_tuple()[:3],
            [0.2884738519497298, 0.3501617550601733, 0.003443711723538883], rtol=1e-12)
        np.testing.assert_allclose(
            got_lo.as_tuple()[:3],
            [0.4906226554662301, 0.3778247968576344, 0.003443711723538883], rtol=1e-12)
        assert got_up.bob == 0.0 and got_lo.bob == 0.0

    def test_term_sums_against_adaptive_oracle(self, scenario, target, rule_8000):
        chan = chan_at(1e8)
        for coeff in bounds.sop_coefficients(scenario, chan):
            got = bounds.sop_term_sums(scenario, chan, target, rule_8000, coeff)
            want = sop_term_oracles(scenario, chan, target, coeff)
            np.testing.assert_allclose(got.as_tuple()[:3], want, rtol=1e-7)


class TestSopAsymptotic:
    def test_reference_point(self, scenario, target, rule_1000):
        chan = chan_at(1e8)
        pair = ps.sop_asymptotic(scenario, chan, target, rule_1000)
        assert pair.lower == pytest.approx(0.12775004880196983, rel=1e-12)
        assert pair.upper == pytest.approx(0.3570006073684455, rel=1e-12)

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
        for coeff in bounds.sop_coefficients(scenario, chan):
            got = bounds.sop_asymptotic_term_sums(scenario, target, rule_8000, coeff)
            want = sop_term_oracles(scenario, chan, target, coeff, asymptotic=True)
            np.testing.assert_allclose(got.as_tuple()[:3], want, rtol=1e-7)


class TestEscBounds:
    def test_reference_point(self, scenario, rule_1000):
        pair = ps.esc_bounds(scenario, chan_at(1e8), rule_1000)
        assert pair.lower == pytest.approx(0.30282252556107325, rel=1e-12)
        assert pair.upper == pytest.approx(0.8952318439835347, rel=1e-12)

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
        up, lo = bounds.esc_coefficients(scenario, chan)
        got_up = bounds.esc_term_sums(scenario, chan, rule_8000, up)
        got_lo = bounds.esc_term_sums(scenario, chan, rule_8000, lo)
        np.testing.assert_allclose(
            (got_up.bob,) + got_up.as_tuple()[:3],
            [3.8881189844293687, 1.6464171115827477, 0.44917091643017165,
             0.002065932635241634], rtol=1e-12)
        np.testing.assert_allclose(
            (got_lo.bob,) + got_lo.as_tuple()[:3],
            [3.2494428346975304, 2.024832852447898, 0.6159067287591515,
             0.00305647076806726], rtol=1e-12)

    def test_term_sums_against_adaptive_oracle(self, scenario, rule_8000):
        chan = chan_at(1e8)
        for coeff in bounds.esc_coefficients(scenario, chan):
            got = bounds.esc_term_sums(scenario, chan, rule_8000, coeff)
            want = esc_term_oracles(scenario, chan, coeff)
            np.testing.assert_allclose((got.bob,) + got.as_tuple()[:3], want, rtol=1e-7)


class TestEscAsymptotic:
    def test_reference_point(self, scenario, rule_1000):
        pair = ps.esc_asymptotic(scenario, chan_at(1e8), rule_1000)
        assert pair.lower == pytest.approx(0.3633006118275778, rel=1e-12)
        assert pair.upper == pytest.approx(1.0846481322720596, rel=1e-12)

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
        got = bounds.log2_moment_sums(scenario, rule_1000)
        want_bob, want_j, want_k, want_l = log2_moment_oracles(scenario)
        assert got.bob == pytest.approx(want_bob, rel=1e-6)
        assert got.willie_total == pytest.approx(want_j + want_k + want_l, rel=1e-6)


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
