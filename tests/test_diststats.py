"""Distance-squared distribution tests.

The closed-form pdfs, cdfs and quantiles of the offsets u = Z - d^2 are
checked against each other, against adaptive numerical integration, and
against empirical samples.
"""

import math

import numpy as np
import pytest
from scipy import integrate

import pinchsec as ps
from pinchsec import bounds
from conftest import pdf_mass_oracle
from pinchsec.diststats import _draw_positions


D = 25.0
d = 3.0


class TestZbDistribution:
    def test_support(self, zb_dist):
        assert zb_dist.support == (0.0, 156.25)

    def test_pdf_interior_value(self, zb_dist):
        # 1 / (D * sqrt(u)) at u = D^2/16
        u = 625.0 / 16.0
        assert zb_dist.pdf(u) == pytest.approx(1.0 / (25.0 * math.sqrt(625.0 / 16.0)), rel=1e-15)
        assert zb_dist.pdf(u) == pytest.approx(0.0064, rel=1e-15)

    def test_pdf_outside_support(self, zb_dist):
        assert zb_dist.pdf(-0.000001) == 0.0
        assert zb_dist.pdf(156.2500001) == 0.0
        np.testing.assert_array_equal(zb_dist.pdf(np.array([-9.0, 1e6 - 9.0])), [0.0, 0.0])

    def test_pdf_finite_at_lower_edge(self, zb_dist):
        # the integrable singularity at u = 0 is returned as its true value
        with np.errstate(divide="ignore"):
            val = zb_dist.pdf(0.0)
        assert val == np.inf

    def test_pdf_integrates_to_one(self, zb_dist):
        assert pdf_mass_oracle(zb_dist) == pytest.approx(1.0, abs=1e-8)

    def test_cdf_values(self, zb_dist):
        assert zb_dist.cdf(0.0) == 0.0
        assert zb_dist.cdf(625.0 / 16.0) == pytest.approx(0.5, rel=1e-15)
        assert zb_dist.cdf(156.25) == 1.0
        assert zb_dist.cdf(-9.0) == 0.0
        assert zb_dist.cdf(1e9 - 9.0) == 1.0

    def test_cdf_monotone(self, zb_dist):
        zs = np.linspace(-9.0, 191.0, 4001)
        vals = zb_dist.cdf(zs)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_quantile_inverts_cdf(self, zb_dist):
        q = np.linspace(1e-9, 1.0 - 1e-9, 2001)
        z = zb_dist.quantile(q)
        assert np.all((z >= 0.0) & (z <= 156.25))
        np.testing.assert_allclose(zb_dist.cdf(z), q, rtol=0.0, atol=1e-8)
        mid = np.linspace(0.01, 1.0, 991)
        np.testing.assert_allclose(zb_dist.cdf(zb_dist.quantile(mid)), mid,
                                   rtol=0.0, atol=1e-13)

    def test_quantile_endpoints(self, zb_dist):
        assert zb_dist.quantile(0.0) == 0.0
        assert zb_dist.quantile(1.0) == pytest.approx(156.25, rel=1e-15)

    def test_sample_mean(self, zb_dist):
        rng = np.random.default_rng(1234)
        s = zb_dist.sample(rng, 1_000_000)
        assert np.all((s >= 0.0) & (s <= 156.25))
        se = s.std(ddof=1) / math.sqrt(s.size)
        assert abs(s.mean() - 52.0833333333) <= 3.0 * se


class TestZwDistribution:
    def test_breakpoints(self, zw_dist):
        assert zw_dist.breakpoints == (0.0, 156.25, 625.0, 781.25)
        assert zw_dist.support == (0.0, 781.25)

    def test_pieces_tile_support(self, zw_dist):
        # (start, width, pdf, cdf) per piece; exact widths D^2/4, 3 D^2/4, D^2/4
        assert [(lo, w) for lo, w, _, _ in zw_dist.branches] == [
            (0.0, 156.25), (156.25, 468.75), (625.0, 156.25)]
        assert [lo + w for lo, w, _, _ in zw_dist.branches] == list(zw_dist.breakpoints[1:])
        assert [(pdf.__name__, cdf.__name__) for _, _, pdf, cdf in zw_dist.branches] == [
            (f"pdf_piece{n}", f"cdf_piece{n}") for n in (1, 2, 3)]

    def test_pdf_first_branch_value(self, zw_dist):
        # pi/D^2 - 2 sqrt(u)/D^3
        u = 625.0 / 8.0
        want = math.pi / 625.0 - 2.0 * math.sqrt(u) / 15625.0
        assert zw_dist.pdf(u) == pytest.approx(want, rel=1e-15)

    def test_pdf_branch_continuity(self, zw_dist):
        for b in (156.25, 625.0):
            below = zw_dist.pdf(np.nextafter(b, 0.0))
            above = zw_dist.pdf(np.nextafter(b, 1e9))
            assert abs(float(below) - float(above)) < 1e-9

    def test_pdf_piece_functions_agree_at_breakpoints(self, zw_dist):
        # the analytic branch expressions themselves join continuously
        assert abs(zw_dist.pdf_piece1(156.25) - zw_dist.pdf_piece2(156.25)) < 1e-12
        assert abs(zw_dist.pdf_piece2(625.0) - zw_dist.pdf_piece3(625.0)) < 1e-12

    def test_pdf_pieces_in_place(self, zw_dist):
        # `out` takes the density with the bits of the plain call; a number
        # still gives a number
        for start, width, branch, _ in zw_dist.branches:
            u = start + width * np.linspace(0.0, 1.0, 12).reshape(3, 4)
            out = np.empty_like(u)
            assert branch(u, out=out) is out
            np.testing.assert_array_equal(out.view(np.uint64), branch(u).view(np.uint64))
            number = branch(float(u[1, 2]))
            assert isinstance(number, float) and number == out[1, 2]

    def test_branches_follow_class_patches(self, monkeypatch):
        # a wrapper set on the class, as a tracer sets one, is the method that
        # pdf, cdf and the bounds' densities call through the table
        calls = []
        for name in ("pdf_piece2", "cdf_piece2"):
            method = getattr(ps.ZwDistribution, name)

            def wrapper(self, *args, method=method, name=name, **kwargs):
                calls.append(name)
                return method(self, *args, **kwargs)
            monkeypatch.setattr(ps.ZwDistribution, name, wrapper)
        zw = ps.ZwDistribution(D)
        zw.pdf(300.0)
        zw.cdf(300.0)
        bounds._densities(ps.Scenario(side_length=D), ps.make_rule(100))
        assert calls == ["pdf_piece2", "cdf_piece2", "pdf_piece2"]

    def test_pdf_vanishes_at_upper_edge(self, zw_dist):
        assert zw_dist.pdf(781.25) == pytest.approx(0.0, abs=1e-12)
        assert zw_dist.pdf(781.2500001) == 0.0

    def test_pdf_nonnegative(self, zw_dist):
        zs = np.linspace(-9.0, 791.0, 8001)
        assert np.all(zw_dist.pdf(zs) >= 0.0)

    def test_pdf_integrates_to_one(self, zw_dist):
        assert pdf_mass_oracle(zw_dist) == pytest.approx(1.0, abs=1e-8)

    def test_cdf_closure(self, zw_dist):
        # the analytic third branch reaches exactly 1 at the top of support
        assert zw_dist.cdf_piece3(781.25) == pytest.approx(1.0, abs=1e-12)
        assert zw_dist.cdf(781.25) == 1.0
        assert zw_dist.cdf(0.0) == 0.0

    def test_cdf_branch_continuity(self, zw_dist):
        assert abs(zw_dist.cdf_piece1(156.25) - zw_dist.cdf_piece2(156.25)) < 1e-9
        assert abs(zw_dist.cdf_piece2(625.0) - zw_dist.cdf_piece3(625.0)) < 1e-9

    def test_cdf_matches_integrated_pdf(self, zw_dist):
        for z in (41.0, 156.25, 291.0, 625.0, 691.0):
            pts = [p for p in (156.25, 625.0) if 0.0 < p < z] or None
            mass, _ = integrate.quad(lambda t: float(zw_dist.pdf(t)), 0.0, z,
                                     limit=400, points=pts,
                                     epsabs=1e-12, epsrel=1e-12)
            assert float(zw_dist.cdf(z)) == pytest.approx(mass, abs=1e-9)

    def test_cdf_monotone(self, zw_dist):
        zs = np.linspace(-9.0, 891.0, 9001)
        vals = zw_dist.cdf(zs)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_quantile_inverts_cdf(self, zw_dist):
        q = np.linspace(1e-9, 1.0 - 1e-9, 2001)
        z = zw_dist.quantile(q)
        assert np.all((z >= 0.0) & (z <= 781.25))
        np.testing.assert_allclose(zw_dist.cdf(z), q, rtol=0.0, atol=1e-9)

    def test_sample_mean(self, zw_dist):
        rng = np.random.default_rng(99)
        s = zw_dist.sample(rng, 1_000_000)
        assert np.all((s >= 0.0) & (s <= 781.25))
        se = s.std(ddof=1) / math.sqrt(s.size)
        assert abs(s.mean() - 156.25) <= 3.0 * se


class TestModuleWrappers:
    def test_sampler_wrappers(self, zb_dist, zw_dist):
        a = zb_dist.sample(np.random.default_rng(5), 100)
        b = zb_dist.sample(np.random.default_rng(5), 100)
        np.testing.assert_array_equal(a, b)
        c = zw_dist.sample(np.random.default_rng(5), 100)
        assert c.shape == (100,)

    @pytest.mark.parametrize("side", [25.0, 0.37, 5000.0, 3.3])
    def test_positions_match_uniform_draws(self, side):
        # the in-place draw, one fill of a chunk's (4, n) block of a
        # chunk-major slab as the Monte Carlo uses it, has the bits of four
        # rng.uniform(-D/2, D/2, n) calls
        h = side / 2.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            want = [rng.uniform(-h, h, 257) for _ in range(4)]
            out = np.full((3, 4, 257), np.nan)
            rows = out[1]
            assert _draw_positions(np.random.default_rng(seed), side, 257, rows) is rows
            np.testing.assert_array_equal(rows.view(np.int64), np.array(want).view(np.int64))
            assert np.isnan(out[[0, 2]]).all()
            np.testing.assert_array_equal(_draw_positions(np.random.default_rng(seed), side, 257),
                                          want)

    def test_rejections(self, zb_dist, zw_dist):
        with pytest.raises(ValueError, match="side_length"):
            ps.ZbDistribution(0.0)
        with pytest.raises(ValueError, match="side_length"):
            ps.ZwDistribution(-1.0)
        for dist in (zb_dist, zw_dist):
            for q in (1.5, math.nan, [0.5, math.nan]):
                with pytest.raises(ValueError, match="quantile"):
                    dist.quantile(q)
        with pytest.raises(ValueError, match="at least one sample"):
            _draw_positions(np.random.default_rng(0), 25.0, 0)

    def test_custom_geometry(self):
        dist = ps.ZbDistribution(side_length=10.0)
        assert dist.support == (0.0, 25.0)
        assert float(dist.cdf(25.0 / 4.0)) == pytest.approx(0.5, rel=1e-15)


class TestKsStatistic:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ps.ks_statistic(np.array([]), ps.ZbDistribution().cdf)

    def test_constant_samples(self, zb_dist):
        s = np.full(1000, 52.0)
        assert ps.ks_statistic(s, zb_dist.cdf) >= 0.5

    def test_single_sample_at_median(self, zb_dist):
        z_med = float(zb_dist.quantile(0.5))
        assert ps.ks_statistic(np.array([z_med]), zb_dist.cdf) == pytest.approx(0.5, abs=1e-12)

    def test_true_samples_pass(self, zb_dist, zw_dist):
        n = 20000
        crit = 1.63 / math.sqrt(n)
        rng = np.random.default_rng(777)
        assert ps.ks_statistic(zb_dist.sample(rng, n), zb_dist.cdf) < crit
        assert ps.ks_statistic(zw_dist.sample(rng, n), zw_dist.cdf) < crit

    def test_mismatched_model_fails(self, zb_dist, zw_dist):
        n = 20000
        crit = 1.63 / math.sqrt(n)
        rng = np.random.default_rng(778)
        assert ps.ks_statistic(zb_dist.sample(rng, n), zw_dist.cdf) > crit


class TestFdConsistency:
    def test_gap_below_tolerance(self, zb_dist, zw_dist):
        assert ps.cdf_pdf_fd_gap(zb_dist) < 1e-5
        assert ps.cdf_pdf_fd_gap(zw_dist) < 1e-5

    def test_rejects_no_points(self, zb_dist):
        with pytest.raises(ValueError, match="n_points"):
            ps.cdf_pdf_fd_gap(zb_dist, 0)

    def test_gap_deterministic(self, zb_dist):
        assert ps.cdf_pdf_fd_gap(zb_dist) == ps.cdf_pdf_fd_gap(zb_dist)

    def test_detects_broken_pdf(self, zb_dist):
        class Skewed(ps.ZbDistribution):
            def pdf(self, z):
                return 1.01 * ps.ZbDistribution.pdf(self, z)

        assert ps.cdf_pdf_fd_gap(Skewed()) > 1e-3
