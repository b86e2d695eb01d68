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


# ---------------------------------------------------------------------------
# adaptive-quadrature oracles, evaluated in z coordinates


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
    zb = ps.ZbDistribution(scenario.side_length, scenario.waveguide_height)
    zw = ps.ZwDistribution(scenario.side_length, scenario.waveguide_height)
    branches = (zw.pdf_piece1, zw.pdf_piece2, zw.pdf_piece3)
    if asymptotic:
        factor = bob_factor / (target.threshold * willie_factor)

        def thr(z):
            return z * factor
    else:
        def thr(z):
            return float(bounds.sop_threshold(z, bob_factor, willie_factor, chan, target))

    out = []
    for (lo, width), branch in zip(zw.pieces, branches):
        hi = lo + width
        kinks = _threshold_kinks(scenario, chan, target, bob_factor, willie_factor, lo, hi,
                                 asymptotic)

        def f(z, branch=branch):
            return float(zb.cdf(thr(z))) * float(branch(z))

        out.append(_quad(f, lo, hi, points=kinks))
    return out


def esc_term_oracles(scenario, chan, bob_factor, willie_factor):
    """(bob, piece1, piece2, piece3) rate integrals, adaptively in z."""
    zb = ps.ZbDistribution(scenario.side_length, scenario.waveguide_height)
    zw = ps.ZwDistribution(scenario.side_length, scenario.waveguide_height)
    eta_rho = chan.eta * chan.rho
    lo, hi = zb.support
    bob = _quad(lambda z: math.log2(1.0 + eta_rho * bob_factor / z) * float(zb.pdf(z)),
                lo, hi)
    out = [bob]
    branches = (zw.pdf_piece1, zw.pdf_piece2, zw.pdf_piece3)
    for (lo, width), branch in zip(zw.pieces, branches):

        def f(z, branch=branch):
            return math.log2(1.0 + eta_rho * willie_factor / z) * float(branch(z))

        out.append(_quad(f, lo, lo + width))
    return out


def log2_moment_oracles(scenario):
    """(bob, piece1, piece2, piece3) log2 distance moments, adaptively in z."""
    zb = ps.ZbDistribution(scenario.side_length, scenario.waveguide_height)
    zw = ps.ZwDistribution(scenario.side_length, scenario.waveguide_height)
    lo, hi = zb.support
    out = [_quad(lambda z: math.log2(z) * float(zb.pdf(z)), lo, hi)]
    branches = (zw.pdf_piece1, zw.pdf_piece2, zw.pdf_piece3)
    for (lo, width), branch in zip(zw.pieces, branches):

        def f(z, branch=branch):
            return math.log2(z) * float(branch(z))

        out.append(_quad(f, lo, lo + width))
    return out


def pdf_mass_oracle(dist):
    """Adaptive integral of the density across all its pieces."""
    brk = dist.breakpoints
    total = 0.0
    for lo, hi in zip(brk, brk[1:]):
        total += _quad(lambda z: float(dist.pdf(z)), lo, hi)
    return total
