"""Chebyshev-Gauss rule, its endpoint-smoothed form and piece-map tests."""

import math

import numpy as np
import pytest

import pinchsec as ps
from pinchsec import bounds, quad
from conftest import chan_at


class TestMakeRule:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ps.make_rule(0)
        with pytest.raises(ValueError):
            ps.make_rule(-3)

    def test_single_node(self):
        rule = ps.make_rule(1)
        assert abs(float(rule.nodes[0])) < 1e-15
        assert float(rule.weights[0]) == math.pi

    def test_two_nodes(self):
        rule = ps.make_rule(2)
        np.testing.assert_allclose(rule.nodes, [math.sqrt(2) / 2, -math.sqrt(2) / 2],
                                   rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(rule.weights, [math.pi / 2, math.pi / 2])

    def test_nodes_inside_open_interval(self, rule_1000):
        assert np.all(np.abs(rule_1000.nodes) < 1.0)
        assert rule_1000.n == 1000

    def test_equal_weights(self, rule_1000):
        np.testing.assert_array_equal(rule_1000.weights, np.full(1000, math.pi / 1000))

    def test_weight_sum(self, rule_1000):
        # analytically n * (pi/n) = pi; float accumulation leaves ~2 ulp
        assert float(np.sum(rule_1000.weights)) == pytest.approx(math.pi, abs=1e-14)

    def test_node_symmetry(self):
        # cos(pi - x) and -cos(x) differ by a few ulp, hence the tolerance
        even = ps.make_rule(100)
        np.testing.assert_allclose(np.sort(even.nodes), -np.sort(even.nodes)[::-1],
                                   rtol=0.0, atol=1e-15)
        odd = ps.make_rule(101)
        assert abs(float(odd.nodes[50])) < 1e-15
        np.testing.assert_allclose(np.sort(odd.nodes), -np.sort(odd.nodes)[::-1],
                                   rtol=0.0, atol=1e-15)

    def test_rule_arrays_frozen(self, rule_1000):
        with pytest.raises(ValueError):
            rule_1000.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule_1000.weights[0] = 0.0


class TestIntegrate:
    def test_semicircle_area(self):
        # computes the semicircle integral: the weight-function compensation
        # turns sqrt(1 - t^2) into (1 - t^2) at the call site
        rule = ps.make_rule(100)
        got = quad.integrate(rule, lambda t: 1.0 - t ** 2)
        assert got == pytest.approx(math.pi / 2, abs=1e-12)

    def test_odd_integrand_vanishes(self):
        rule = ps.make_rule(100)
        got = quad.integrate(rule, lambda t: t * np.sqrt(1.0 - t ** 2))
        assert abs(got) < 1e-12

    def test_semicircle_second_moment(self):
        rule = ps.make_rule(100)
        got = quad.integrate(rule, lambda t: t ** 2 * (1.0 - t ** 2))
        assert got == pytest.approx(math.pi / 8, abs=1e-10)

    def test_plain_unit_integral(self):
        # a compensated constant recovers the plain length of [-1, 1]
        rule = ps.make_rule(1000)
        got = quad.integrate(rule, lambda t: np.sqrt(1.0 - t ** 2))
        assert got == pytest.approx(2.0, abs=1e-5)

    def test_scalar_integrand(self):
        rule = ps.make_rule(10)
        assert quad.integrate(rule, lambda t: 3.0) == pytest.approx(3.0 * math.pi, rel=1e-15)

    def test_nan_aborts_naming_node(self):
        rule = ps.make_rule(8)
        with pytest.raises(ValueError, match="node"):
            quad.integrate(rule, lambda t: np.where(np.abs(t) < 0.5, np.nan, t))

    def test_inf_aborts(self):
        rule = ps.make_rule(4)
        with pytest.raises(ValueError, match="node"):
            quad.integrate(rule, lambda t: np.where(t > 0.0, np.inf, t))


class TestSmoothRule:
    def test_nodes_and_weights(self, rule_1000):
        smooth = rule_1000.smooth
        assert smooth.n == 1000
        assert np.all((smooth.nodes > 0.0) & (smooth.nodes < 1.0))
        assert np.all(smooth.weights > 0.0)
        assert float(np.sum(smooth.weights)) == pytest.approx(1.0, abs=1e-11)

    def test_rule_arrays_frozen(self, rule_1000):
        with pytest.raises(ValueError):
            rule_1000.smooth.nodes[0] = 0.5
        with pytest.raises(ValueError):
            rule_1000.smooth.weights[0] = 0.0

    def test_square_root_corners(self, rule_1000):
        # sqrt(x) + sqrt(1 - x) over [0, 1]: 4/3.  The compensated rule on
        # the affine map x = (t + 1)/2 is off by ~4e-7 at 1000 nodes
        def f(x):
            return np.sqrt(x) + np.sqrt(1.0 - x)

        smoothed = quad.integrate(rule_1000.smooth, f)
        affine = quad.integrate(rule_1000, lambda t: 0.5 * f(0.5 * (t + 1.0))
                                * np.sqrt(1.0 - t * t))
        assert smoothed == pytest.approx(4.0 / 3.0, abs=1e-11)
        assert abs(affine - 4.0 / 3.0) > 1e-7

    def test_polynomial_over_unit_interval(self):
        got = quad.integrate(ps.make_rule(200).smooth, lambda x: 3.0 * x ** 2)
        assert got == pytest.approx(1.0, abs=1e-8)


class TestPieceMaps:
    def test_willie_pieces(self, scenario):
        p1, p2, p3 = quad.willie_pieces(scenario.side_length, scenario.waveguide_height)
        assert (p1.scale, p1.offset) == (625.0 / 8.0, 625.0 / 8.0 + 9.0)
        assert (p2.scale, p2.offset) == (3.0 * 625.0 / 8.0, 5.0 * 625.0 / 8.0 + 9.0)
        assert (p3.scale, p3.offset) == (625.0 / 8.0, 9.0 * 625.0 / 8.0 + 9.0)

    def test_pieces_tile_willie_support(self, scenario, zw_dist):
        pieces = quad.willie_pieces(scenario.side_length, scenario.waveguide_height)
        ranges = [p.z_range for p in pieces]
        assert ranges[0] == (9.0, 165.25)
        assert ranges[1] == (165.25, 634.0)
        assert ranges[2] == (634.0, 790.25)
        assert (ranges[0][0], ranges[2][1]) == zw_dist.support


class TestTermConvergence:
    def test_refinement_stability(self, scenario, target, rule_1000, rule_8000):
        # doubling the node count three times moves every one of the 14
        # terms by < 1e-6 relative, the kinked outage terms and the
        # capacity terms with corners at their piece ends included: the
        # pieces are split at the kinks and integrated on the
        # endpoint-smoothed nodes (~1e-12 at these node counts)
        chan = chan_at(1e8)
        rels = []
        for coeff in bounds.sop_coefficients(scenario, chan):
            a = bounds.sop_term_sums(scenario, chan, target, rule_1000, coeff).as_tuple()
            b = bounds.sop_term_sums(scenario, chan, target, rule_8000, coeff).as_tuple()
            rels.extend(abs(x - y) / abs(y) for x, y in zip(a, b) if y != 0.0)
        for coeff in bounds.esc_coefficients(scenario, chan):
            a = bounds.esc_term_sums(scenario, chan, rule_1000, coeff).as_tuple()
            b = bounds.esc_term_sums(scenario, chan, rule_8000, coeff).as_tuple()
            rels.extend(abs(x - y) / abs(y) for x, y in zip(a, b))
        assert len(rels) == 14
        assert max(rels) < 1e-6
