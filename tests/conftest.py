"""Shared fixtures and adaptive-quadrature oracles for the test suite."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

import pinchsec as ps
from pinchsec import bounds, quad

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

SNR_GRID_DB = tuple(float(s) for s in range(-10, 55, 5))
DATA_DIR = Path(__file__).parent / "data"
# The environment under which numpy on an AVX-512 machine takes its AVX2 loops, in the
# process it starts in only
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def simd_class() -> str:
    """The bit class of this process's numpy: "avx512" or "no_avx512".

    numpy picks its transcendental loops (log1p, exp, log, ...) by CPU
    feature, and its AVX-512 (x86-64-v4) loops round some last bits
    otherwise than its AVX2 and baseline loops, which agree.  So the
    byte-pinned outputs hold per numpy version and class.
    """
    return "avx512" if __cpu_features__.get("X86_V4") else "no_avx512"


def golden_path(name: str) -> Path:
    """The golden file `name` of this process's class: tests/data/ for AVX-512, else
    tests/data/no_avx512/."""
    return DATA_DIR / name if simd_class() == "avx512" else DATA_DIR / "no_avx512" / name


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


def gain(chan, power):
    """eta*rho of a channel at a transmit power: the row value the term sums take."""
    return bounds._eta_rho(chan, [power]).item()


def sop_at(scenario, chan, power, target, rule):
    """ps.sop_bounds at one transmit power, as a BoundPair of numbers."""
    pair = ps.sop_bounds(scenario, chan, [power], target, rule)
    return ps.BoundPair(lower=pair.lower.item(), upper=pair.upper.item())


def esc_at(scenario, chan, power, rule):
    """ps.esc_bounds at one transmit power, as a BoundPair of numbers."""
    pair = ps.esc_bounds(scenario, chan, [power], rule)
    return ps.BoundPair(lower=pair.lower.item(), upper=pair.upper.item())


def outage_coefficients(chan, power, target, bob_factor, willie_factor):
    """One channel's (a, b, c) of the no-outage threshold a / (b + c/z) on Zb, in scalars.

    a = A, b = (4^Rbar - 1)/(eta*rho) and c = 4^Rbar*B; b is 0 at rho = inf
    and at Rbar = 0, and +inf for Rbar > 0 where eta*rho underflows to 0 or
    4^Rbar overflows.  bounds._outage_rows forms them on arrays, with these bits.
    """
    fr, gap = target.threshold, target.threshold_minus_one
    eta_rho = gain(chan, power)
    if eta_rho > 0 and gap < math.inf:
        b = gap / eta_rho
    else:
        b = math.inf if gap > 0.0 else 0.0
    return bob_factor, b, fr * willie_factor


def outage_kinks(scenario, a, b, c):
    """[u_0, u_1] of one row (a, b, c), in scalars: where the threshold offset
    reaches the ends 0 and D^2/4 of Zb's support, +inf where it never does.
    """
    d2 = scenario.waveguide_height ** 2
    k = a - b * d2 - c
    return [(s * (c + b * d2) - d2 * k) / (a - b * (d2 + s)) if a > b * (d2 + s) else math.inf
            for s in ps.ZbDistribution(scenario.side_length).support]


def sop_term_rows(scenario, target, rule, eta_rho, bob_factor, willie_factor):
    """bounds.sop_term_sums formed row by row, for a bit-for-bit comparison.

    Each row and piece takes its own nodes lo + (cut - lo)*x on its clipped
    interval [lo, cut] and the branch density on those nodes, so no node or
    density vector is shared between rows; the saturated mass beyond u_1 is
    the row's own CDF difference.
    """
    d2 = scenario.waveguide_height ** 2
    zb = ps.ZbDistribution(scenario.side_length)
    zw = ps.ZwDistribution(scenario.side_length)
    a, b, c, u_0, u_1 = bounds._outage_rows(scenario, target, eta_rho, bob_factor,
                                            willie_factor)
    sums = np.zeros((a.size, 3))
    for p, (start, width, branch, cdf) in enumerate(zw.branches):
        hi = start + width
        lo = np.clip(u_0, start, hi)
        cut = np.clip(u_1, lo, hi)
        for r in range(a.size):
            if lo[r] < cut[r]:
                length = cut[r] - lo[r]
                u = lo[r] + length * rule.nodes
                value = zb.cdf(bounds._threshold_offset(u, d2, a[r], b[r], c[r])) * branch(u)
                sums[r, p] = length * quad.integrate(rule, value)
            if cut[r] < hi:
                sums[r, p] += (cdf(hi) - cdf(cut[r:r + 1]))[0]
    for r in np.flatnonzero(u_1 <= 0.0):
        sums[r, 2] = 1.0 - (sums[r, 0] + sums[r, 1])
    return sums


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


def esc_term_values(scenario, chan, power, rule, bob_factor, willie_factor):
    """bounds.esc_term_sums as absolute rate integrals, comparable to esc_term_oracles.

    The program integrates each rate as an offset from its value at
    distance d; the oracles integrate the rate itself.
    """
    eta_rho = gain(chan, power)
    sums = bounds.esc_term_sums(scenario, rule, [eta_rho], bob_factor, willie_factor)[0]
    d2 = scenario.waveguide_height ** 2
    return _add_values_at_height(scenario, sums, math.log2(1.0 + eta_rho * bob_factor / d2),
                                 math.log2(1.0 + eta_rho * willie_factor / d2))


def log2_moment_values(scenario, rule):
    """Moments of log2 Z from the rate offsets at infinite power, -log2(Z/d^2).

    Comparable to log2_moment_oracles.
    """
    sums = [-s for s in bounds.esc_term_sums(scenario, rule, [math.inf], 1.0, 1.0)[0]]
    log2_d2 = math.log2(scenario.waveguide_height ** 2)
    return _add_values_at_height(scenario, sums, log2_d2, log2_d2)


# ---------------------------------------------------------------------------
# adaptive-quadrature oracles, evaluated in z coordinates; the distributions
# take offsets u = z - d^2, formed only at the density or CDF call


def _threshold_kinks(scenario, eta_rho, target, bob_factor, willie_factor, lo, hi,
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


def sop_term_oracles(scenario, chan, power, target, bob_factor, willie_factor,
                     asymptotic=False):
    """The three Zw-piece no-outage integrals, adaptively in z."""
    d2 = scenario.waveguide_height ** 2
    eta_rho = None if asymptotic else gain(chan, power)
    zb = ps.ZbDistribution(scenario.side_length)
    zw = ps.ZwDistribution(scenario.side_length)
    if asymptotic:
        factor = bob_factor / (target.threshold * willie_factor)

        def thr(z):
            return z * factor
    else:
        fr = target.threshold

        def thr(z):
            denom = fr - 1.0 + fr * eta_rho * willie_factor / z
            return eta_rho * bob_factor / denom if denom > 0 else math.inf

    out = []
    for start, width, branch, _ in zw.branches:
        lo, hi = d2 + start, d2 + start + width
        kinks = _threshold_kinks(scenario, eta_rho, target, bob_factor, willie_factor, lo, hi,
                                 asymptotic)

        def f(z, branch=branch):
            return float(zb.cdf(thr(z) - d2)) * float(branch(z - d2))

        out.append(_quad(f, lo, hi, points=kinks))
    return out


def esc_term_oracles(scenario, chan, power, bob_factor, willie_factor):
    """(bob, piece1, piece2, piece3) rate integrals, adaptively in z."""
    d2 = scenario.waveguide_height ** 2
    zb = ps.ZbDistribution(scenario.side_length)
    zw = ps.ZwDistribution(scenario.side_length)
    eta_rho = gain(chan, power)
    lo, hi = zb.support
    bob = _quad(lambda z: math.log2(1.0 + eta_rho * bob_factor / z) * float(zb.pdf(z - d2)),
                d2 + lo, d2 + hi)
    out = [bob]
    for start, width, branch, _ in zw.branches:

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
    for start, width, branch, _ in zw.branches:

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
