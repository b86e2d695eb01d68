"""Tanh-sinh quadrature rule tests."""

import numpy as np
import pytest

import pinchsec as ps
from pinchsec import bounds, quad
from conftest import chan_at, gain, sop_directions


class TestMakeRule:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ps.make_rule(0)
        with pytest.raises(ValueError):
            ps.make_rule(-3)

    @pytest.mark.parametrize("n", [1, 2, 100, 200, 1000, 65536])
    def test_nodes_strictly_inside_weights_positive(self, n):
        # the right end stops where 1 - x would round, so no node reaches 1
        rule = ps.make_rule(n)
        assert rule.n == n
        assert np.all((rule.nodes > 0.0) & (rule.nodes < 1.0))
        assert np.all(rule.weights > 0.0)

    def test_nodes_inside_open_interval(self, rule_1000):
        assert np.all((rule_1000.nodes > 0.0) & (rule_1000.nodes < 1.0))
        assert rule_1000.n == 1000

    def test_weight_sum(self, rule_1000):
        # positive weights whose sum, the rule's integral of 1, is 1
        assert np.all(rule_1000.weights > 0.0)
        assert float(np.sum(rule_1000.weights)) == pytest.approx(1.0, abs=1e-11)

    def test_rule_arrays_frozen(self, rule_1000):
        with pytest.raises(ValueError):
            rule_1000.nodes[0] = 0.5
        with pytest.raises(ValueError):
            rule_1000.weights[0] = 0.0


class TestIntegrate:
    def test_scalar_integrand(self, rule_1000):
        got = quad.integrate(rule_1000, np.full(1000, 3.0))
        assert got == pytest.approx(3.0 * float(np.sum(rule_1000.weights)), rel=1e-15)

    def test_odd_integrand_vanishes(self):
        rule = ps.make_rule(100)
        got = quad.integrate(rule, rule.nodes - 0.5)
        assert abs(got) < 1e-12

    def test_nan_aborts_naming_node(self):
        rule = ps.make_rule(8)
        with pytest.raises(ValueError, match="node"):
            quad.integrate(rule, np.where(np.abs(rule.nodes - 0.5) < 0.25, np.nan, rule.nodes))

    def test_inf_aborts(self):
        rule = ps.make_rule(4)
        with pytest.raises(ValueError, match="node"):
            quad.integrate(rule, np.where(rule.nodes > 0.5, np.inf, rule.nodes))

    def test_square_root_corners(self):
        # sqrt(x) + sqrt(1 - x) over [0, 1]: 4/3.  The midpoint rule in
        # theta on the affine map x = (cos(theta) + 1)/2, i.e. Chebyshev
        # angles without the double-exponential map, is off by ~4e-7 at 1000
        # nodes
        def f(x):
            return np.sqrt(x) + np.sqrt(1.0 - x)

        theta = (2 * np.arange(1, 1001) - 1) * np.pi / 2000
        affine = float(np.sum((np.pi / 1000) * 0.5 * np.sin(theta)
                              * f(0.5 * (np.cos(theta) + 1.0))))
        rule = ps.make_rule(200)
        assert quad.integrate(rule, f(rule.nodes)) == pytest.approx(4.0 / 3.0, abs=1e-14)
        assert abs(affine - 4.0 / 3.0) > 1e-7

    def test_inverse_square_root_pole(self):
        # x^-1/2 over [0, 1]: 2.  The pole sits at the left end, where the
        # nodes reach x ~ 1e-37, so no change of variable is needed
        rule = ps.make_rule(200)
        assert quad.integrate(rule, rule.nodes ** -0.5) == pytest.approx(2.0, abs=1e-14)

    def test_polynomial_over_unit_interval(self):
        rule = ps.make_rule(200)
        got = quad.integrate(rule, 3.0 * rule.nodes ** 2)
        assert got == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [100, 1000, 8000, 20000])
    def test_block_rows_match_single_rows_bit_for_bit(self, n):
        # an (m, n) integrand gives m row sums, each with the bits of the
        # 1-D call on that row, whatever the row count or the node count
        rule = ps.make_rule(n)
        x = rule.nodes
        c = np.random.default_rng(n).uniform(0.5, 2.0, (7, 1))
        block = quad.integrate(rule, np.sqrt(c * x) + np.sin(c + x))
        assert block.shape == (7,)
        for r in range(7):
            alone = quad.integrate(rule, np.sqrt(c[r, 0] * x) + np.sin(c[r, 0] + x))
            assert isinstance(alone, float)
            assert block[r] == alone
        one_row = quad.integrate(rule, np.sqrt(c[3:4] * x) + np.sin(c[3:4] + x))
        assert one_row.tolist() == [block[3]]

    def test_block_nan_names_row_and_node(self):
        rule = ps.make_rule(8)
        bad_row, bad_node = 2, 5

        def f(x):
            values = np.tile(x, (4, 1))
            values[bad_row, bad_node] = np.nan
            return values

        with pytest.raises(ValueError, match=rf"row {bad_row}, node {bad_node} \(.*value .*nan"):
            quad.integrate(rule, f(rule.nodes))

    @pytest.mark.parametrize("integrand, weighted", [
        (lambda x: x, False),  # the rule's own read-only nodes
        (lambda x: np.broadcast_to(np.float64(2.5), x.shape), False),
        (lambda x: np.array(2.5), False),  # a number, as a 0-d array
        (lambda x: np.sqrt(x) + 1.0, True),  # a fresh array, weighted in place
        (lambda x: np.tile(np.sqrt(x), (3, 1)), True),
    ], ids=["nodes", "broadcast", "number", "fresh", "fresh-block"])
    def test_weighting_keeps_values_and_rule(self, integrand, weighted):
        # integrate weights the caller's own writeable array in place; values
        # it cannot weight in place raise, and the rule stays unchanged
        rule = ps.make_rule(50)
        nodes, weights = rule.nodes.copy(), rule.weights.copy()
        if weighted:
            want = np.sum(weights * np.broadcast_to(integrand(nodes.copy()), (3, 50)), axis=-1)
            got = quad.integrate(rule, integrand(rule.nodes))
            np.testing.assert_array_equal(np.broadcast_to(got, (3,)), want)
        else:
            with pytest.raises(ValueError):
                quad.integrate(rule, integrand(rule.nodes))
        np.testing.assert_array_equal(rule.nodes, nodes)
        np.testing.assert_array_equal(rule.weights, weights)
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable

    def test_overflowed_sum_of_finite_values_raises(self):
        # every value finite, the weighted sum not: named as an overflow
        rule = quad.QuadratureRule(nodes=np.array([0.25, 0.75]), weights=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="overflowed"):
            quad.integrate(rule, np.full(2, 1e308))
        with pytest.raises(ValueError, match="overflowed at row 1"):
            quad.integrate(rule, np.array([[1.0, 2.0], [1e308, 1e308]]))


class TestTermConvergence:
    def test_refinement_stability(self, scenario, target, rule_1000, rule_8000):
        # doubling the node count three times moves every one of the 14
        # terms by < 1e-6 relative, the kinked outage terms and the
        # capacity terms with corners at their piece ends included: the
        # pieces are split at the kinks and integrated on the tanh-sinh
        # nodes (~2e-16 at these node counts)
        chan = chan_at(1e8)
        rels = []
        for direction in sop_directions(scenario, chan):
            a = bounds.sop_term_sums(scenario, target, rule_1000, [gain(chan)], *direction)[0]
            b = bounds.sop_term_sums(scenario, target, rule_8000, [gain(chan)], *direction)[0]
            rels.extend(abs(x - y) / abs(y) for x, y in zip(a, b))
        for direction in sop_directions(scenario, chan)[::-1]:
            a = bounds.esc_term_sums(scenario, rule_1000, [gain(chan)], *direction)[0]
            b = bounds.esc_term_sums(scenario, rule_8000, [gain(chan)], *direction)[0]
            rels.extend(abs(x - y) / abs(y) for x, y in zip(a, b))
        assert len(rels) == 14
        assert max(rels) < 1e-6
