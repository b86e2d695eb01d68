"""Shared fixtures and adaptive-quadrature oracles for the test suite."""

import math

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

import pinchsec as ps
from pinchsec import bounds

SNR_GRID_DB = tuple(float(s) for s in range(-10, 55, 5))


@pytest.fixture(scope="session")
def scenario():
    return ps.Scenario()


@pytest.fixture(scope="session")
def target():
    return ps.SecrecyTarget()


@pytest.fixture(scope="session")
def zb_dist():
    return ps.ZbDistribution()


@pytest.fixture(scope="session")
def zw_dist():
    return ps.ZwDistribution()


@pytest.fixture(scope="session")
def rule_1000():
    return ps.make_rule(1000)


@pytest.fixture(scope="session")
def rule_8000():
    return ps.make_rule(8000)


def chan_at(rho, alpha=0.01):
    """Unit-noise channel with the requested transmit SNR."""
    return ps.ChannelParams(attenuation=alpha, tx_power=rho)


@pytest.fixture(scope="session", name="chan_at")
def chan_at_fixture():
    return chan_at


def sop_directions(scenario, chan):
    """(upper, lower) (bob_factor, willie_factor) pairs of the outage bounds.

    The capacity bounds use the same two pairs in reverse order.
    """
    span = bounds.attenuation_span(scenario, chan)
    return ((span, 1.0), (1.0, span))


def _add_values_at_height(scenario, sums, bob_at_0, willie_at_0):
    """Per-piece integrals of f from those of f(u) - f(0): add f(0) times each mass."""
    zw = ps.ZwDistribution(scenario.side_length)
    _, b1, b2, _ = zw.breakpoints
    cdf1, cdf2 = float(zw.cdf_piece1(b1)), float(zw.cdf_piece2(b2))
    bob, *pieces = sums
    return [bob + bob_at_0, *(p + willie_at_0 * m
                              for p, m in zip(pieces, (cdf1, cdf2 - cdf1, 1.0 - cdf2)))]


def esc_term_values(scenario, chan, rule, bob_factor, willie_factor):
    """bounds.esc_term_sums as absolute rate integrals, comparable to esc_term_oracles.

    The program integrates each rate as an offset from its value at
    distance d; the oracles integrate the rate itself.
    """
    sums = bounds.esc_term_sums(scenario, chan, rule, bob_factor, willie_factor)
    d2 = scenario.waveguide_height ** 2
    eta_rho = chan.eta * chan.rho
    return _add_values_at_height(scenario, sums, math.log2(1.0 + eta_rho * bob_factor / d2),
                                 math.log2(1.0 + eta_rho * willie_factor / d2))


def log2_moment_values(scenario, rule):
    """Moments of log2 Z from the rate offsets at infinite power, -log2(Z/d^2).

    Comparable to log2_moment_oracles.
    """
    chan = ps.ChannelParams(tx_power=math.inf)
    sums = [-s for s in bounds.esc_term_sums(scenario, chan, rule, 1.0, 1.0)]
    log2_d2 = math.log2(scenario.waveguide_height ** 2)
    return _add_values_at_height(scenario, sums, log2_d2, log2_d2)


# ---------------------------------------------------------------------------
# adaptive-quadrature oracles, evaluated in z coordinates; the distributions
# take offsets u = z - d^2, formed only at the density or CDF call


def _threshold_kinks(scenario, chan, target, bob_factor, willie_factor, lo, hi,
                     asymptotic):
    """z values where the no-outage CDF saturates at 0 or 1 inside (lo, hi).

    The outage threshold crosses a Zb support endpoint S where
    z = 4^R * eta*rho*B / (eta*rho*A/S - 4^R + 1) (finite-rho form) or
    z = S * 4^R * B / A (asymptotic form).
    """
    d2 = scenario.waveguide_height ** 2
    ends = (d2, d2 + scenario.side_length ** 2 / 4.0)
    fr = target.threshold
    points = []
    for s in ends:
        if asymptotic:
            z = s * fr * willie_factor / bob_factor
        else:
            eta_rho = chan.eta * chan.rho
            denom = eta_rho * bob_factor / s - fr + 1.0
            if denom <= 0:
                continue
            z = fr * eta_rho * willie_factor / denom
        if lo < z < hi:
            points.append(z)
    return sorted(points)


def _quad(f, lo, hi, points=None):
    value, err = scipy_integrate.quad(f, lo, hi, limit=500, epsabs=1e-13,
                                      epsrel=1e-13, points=points or None)
    return value


def sop_term_oracles(scenario, chan, target, bob_factor, willie_factor, asymptotic=False):
    """The three Zw-piece no-outage integrals, adaptively in z."""
    d2 = scenario.waveguide_height ** 2
    zb = ps.ZbDistribution(scenario.side_length)
    zw = ps.ZwDistribution(scenario.side_length)
    branches = (zw.pdf_piece1, zw.pdf_piece2, zw.pdf_piece3)
    if asymptotic:
        factor = bob_factor / (target.threshold * willie_factor)

        def thr(z):
            return z * factor
    else:
        def thr(z):
            return float(bounds.sop_threshold(z, bob_factor, willie_factor, chan, target))

    out = []
    for (start, width), branch in zip(zw.pieces, branches):
        lo, hi = d2 + start, d2 + start + width
        kinks = _threshold_kinks(scenario, chan, target, bob_factor, willie_factor, lo, hi,
                                 asymptotic)

        def f(z, branch=branch):
            return float(zb.cdf(thr(z) - d2)) * float(branch(z - d2))

        out.append(_quad(f, lo, hi, points=kinks))
    return out


def esc_term_oracles(scenario, chan, bob_factor, willie_factor):
    """(bob, piece1, piece2, piece3) rate integrals, adaptively in z."""
    d2 = scenario.waveguide_height ** 2
    zb = ps.ZbDistribution(scenario.side_length)
    zw = ps.ZwDistribution(scenario.side_length)
    eta_rho = chan.eta * chan.rho
    lo, hi = zb.support
    bob = _quad(lambda z: math.log2(1.0 + eta_rho * bob_factor / z) * float(zb.pdf(z - d2)),
                d2 + lo, d2 + hi)
    out = [bob]
    branches = (zw.pdf_piece1, zw.pdf_piece2, zw.pdf_piece3)
    for (start, width), branch in zip(zw.pieces, branches):

        def f(z, branch=branch):
            return math.log2(1.0 + eta_rho * willie_factor / z) * float(branch(z - d2))

        out.append(_quad(f, d2 + start, d2 + start + width))
    return out


def log2_moment_oracles(scenario):
    """(bob, piece1, piece2, piece3) log2 distance moments, adaptively in z."""
    d2 = scenario.waveguide_height ** 2
    zb = ps.ZbDistribution(scenario.side_length)
    zw = ps.ZwDistribution(scenario.side_length)
    lo, hi = zb.support
    out = [_quad(lambda z: math.log2(z) * float(zb.pdf(z - d2)), d2 + lo, d2 + hi)]
    branches = (zw.pdf_piece1, zw.pdf_piece2, zw.pdf_piece3)
    for (start, width), branch in zip(zw.pieces, branches):

        def f(z, branch=branch):
            return math.log2(z) * float(branch(z - d2))

        out.append(_quad(f, d2 + start, d2 + start + width))
    return out


def pdf_mass_oracle(dist):
    """Adaptive integral of the density across all its pieces."""
    brk = dist.breakpoints
    total = 0.0
    for lo, hi in zip(brk, brk[1:]):
        total += _quad(lambda z: float(dist.pdf(z)), lo, hi)
    return total
