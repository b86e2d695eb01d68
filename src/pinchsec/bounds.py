"""Analytical secrecy-outage and ergodic-secrecy-capacity bounds.

The exact guided power loss exp(-2*alpha*L) varies with Bob's position.
Replacing it by a constant on each link, its best case 1 on one and its
worst case span = exp(-2*alpha*D) on the other, yields stochastically
ordered systems, so each metric gets a closed-form upper and lower bound
expressed through the Zb/Zw distance distributions.  A bound direction
is the plain pair (bob_factor, willie_factor): for the outage the upper
bound is (span, 1) and the lower (1, span); the capacity uses the reverse
pairs.  A span that underflows to 0 (alpha*D beyond about 372) is valid.

The term sums are plain integrals over the distance offsets u = z - d^2
of diststats.py, on the endpoint-smoothed rule of quad.py, returned per
piece: [j, k, l] over the three Zw density pieces, preceded by the Zb term
where there is one.  d^2 enters only where a rate or the outage threshold
is formed from z = d^2 + u; the capacity terms integrate each rate as an
offset from its value at u = 0, which keeps digits where d^2 dwarfs D^2.
The outage integrand F_Zb(threshold(u)) has kinks where the threshold
reaches an end of Zb's support; each Zw piece is split there, and
sub-pieces on which outage is certain are skipped.  The Zb density's
1/sqrt pole at u = 0 is removed by integrating over Bob's offset
y = sqrt(u) instead.  At n nodes per sub-piece the error falls as n^-4
(about 1e-12 relative at the default n = 1000).

Both metrics saturate at high SNR (the same loss and geometry face Bob
and Willie), so the diversity order and high-SNR slope are zero; the
finite-difference estimators let callers confirm that numerically.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .diststats import ZbDistribution, ZwDistribution
from .model import ChannelParams, Scenario, SecrecyTarget
from .quad import QuadratureRule, integrate

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BoundPair:
    lower: float
    upper: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


def attenuation_span(scenario: Scenario, chan: ChannelParams) -> float:
    """Worst-case guided power loss exp(-2 * alpha * D); 0 once it underflows."""
    return math.exp(-2.0 * chan.attenuation * scenario.side_length)


def sop_threshold(z_w, bob_factor: float, willie_factor: float, chan: ChannelParams,
                  target: SecrecyTarget):
    """Largest Zb that still avoids secrecy outage, given Willie at z_w.

    threshold = eta*rho*A / (4^Rbar - 1 + 4^Rbar * eta*rho*B / z_w), with
    A = bob_factor and B = willie_factor.  A nonpositive denominator
    (degenerate zero-target limits) maps to +inf, meaning no Zb causes
    outage.
    """
    z = np.asarray(z_w, dtype=float)
    if np.any(z <= 0):
        raise ValueError("z_w must be positive")
    eta_rho = chan.eta * chan.rho
    fr = target.threshold
    denom = (fr - 1.0) + fr * eta_rho * willie_factor / z
    safe = np.where(denom > 0, denom, 1.0)
    return np.where(denom > 0, eta_rho * bob_factor / safe, np.inf)


def _piece_sum(rule: QuadratureRule, lo: float, width: float, f) -> float:
    """Plain integral of f over [lo, lo + width]."""
    return width * integrate(rule, lambda x: f(lo + width * x))


def _willie_sums(scenario: Scenario, rule: QuadratureRule, value_of_u,
                 kinks=(), vanishes=None) -> list[float]:
    """Integrate value_of_u(u) against each Zw density branch over its piece.

    Each piece is split at the sorted offsets `kinks` inside it, so that
    every sub-piece integrand is smooth up to corners at its ends.  A
    sub-piece (a, b) for which vanishes(a, b) holds adds nothing.
    """
    zw = ZwDistribution(scenario.side_length)
    sums = []
    for (start, width), branch in zip(zw.pieces, (zw.pdf_piece1, zw.pdf_piece2, zw.pdf_piece3)):
        cuts = [start, *(k for k in kinks if start < k < start + width), start + width]
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            if vanishes is None or not vanishes(a, b):
                total += _piece_sum(rule, a, b - a,
                                    lambda u, branch=branch: value_of_u(u) * branch(u))
        sums.append(total)
    return sums


def _bob_sum(scenario: Scenario, rule: QuadratureRule, value_of_u) -> float:
    """Integrate value_of_u(u) against the Zb density, over Bob's offset y.

    u = y^2 with y in [0, D/2] turns pdf(u) du into (2/D) dy, which cancels
    the density's 1/sqrt(u) pole.  The density is still evaluated, so a
    normalization check of it stays a check.
    """
    zb = ZbDistribution(scenario.side_length)
    y_max = 0.5 * scenario.side_length

    def g(x):
        y = y_max * x
        return value_of_u(y * y) * zb.pdf(y * y) * (2.0 * y)

    return y_max * integrate(rule, g)


def _outage_kinks(scenario: Scenario, a: float, b: float, c: float) -> list[float]:
    """Sorted u at which the threshold a / (b + c/(d^2 + u)) - d^2 reaches an
    end of Zb's support.

    There F_Zb(threshold) saturates at 0 or 1.  Both threshold forms fit
    the pattern: at finite rho a = eta*rho*A, b = 4^Rbar - 1 and
    c = 4^Rbar*eta*rho*B; in the high-SNR limit a = A, b = 0, c = 4^Rbar*B.
    The threshold increases with u, so an end S is reached only if
    a/(d^2 + S) > b.
    """
    zb = ZbDistribution(scenario.side_length)
    d2 = scenario.waveguide_height ** 2
    return sorted(c / (a / (d2 + s) - b) - d2 for s in zb.support if a / (d2 + s) > b)


def _no_outage_sums(scenario: Scenario, rule: QuadratureRule, threshold,
                    kinks: list[float]) -> list[float]:
    """[j, k, l]: F_Zb(threshold(u)) over the Zw pieces, split at the kinks.

    Between two kinks the threshold stays on one side of 0, so a sub-piece
    whose midpoint threshold is <= 0 has F_Zb = 0 throughout and is skipped.
    """
    zb = ZbDistribution(scenario.side_length)
    return _willie_sums(scenario, rule, lambda u: zb.cdf(threshold(u)), kinks,
                        vanishes=lambda lo, hi: threshold(0.5 * (lo + hi)) <= 0.0)


def sop_term_sums(scenario: Scenario, chan: ChannelParams, target: SecrecyTarget,
                  rule: QuadratureRule, bob_factor: float,
                  willie_factor: float) -> list[float]:
    """[j, k, l]: no-outage mass F_Zb(threshold) over the Zw pieces."""
    d2 = scenario.waveguide_height ** 2
    eta_rho = chan.eta * chan.rho
    fr = target.threshold
    kinks = _outage_kinks(scenario, eta_rho * bob_factor, fr - 1.0,
                          fr * eta_rho * willie_factor)
    return _no_outage_sums(
        scenario, rule,
        lambda u: sop_threshold(d2 + u, bob_factor, willie_factor, chan, target) - d2, kinks)


def sop_asymptotic_term_sums(scenario: Scenario, target: SecrecyTarget,
                             rule: QuadratureRule, bob_factor: float,
                             willie_factor: float) -> list[float]:
    """High-SNR limit: the threshold collapses to z * A / (4^Rbar * B).

    With B = 0 Willie hears nothing and the threshold is +inf (no outage).
    """
    d2 = scenario.waveguide_height ** 2
    fr = target.threshold
    factor = bob_factor / (fr * willie_factor) if willie_factor > 0 else math.inf
    kinks = _outage_kinks(scenario, bob_factor, 0.0, fr * willie_factor)
    return _no_outage_sums(scenario, rule, lambda u: (d2 + u) * factor - d2, kinks)


def esc_term_sums(scenario: Scenario, chan: ChannelParams, rule: QuadratureRule,
                  bob_factor: float, willie_factor: float) -> list[float]:
    """[bob, j, k, l]: rate offsets from the rate at u = 0, one ESC bound direction.

    bob: log2(1 + g*A/(d^2 + u)) - log2(1 + g*A/d^2) against the Zb density,
    j, k, l: the same with B against the Zw branches, where g = eta*rho.
    The offset keeps its digits where u << d^2: below g = d^2 it is
    log1p(-s * u/(d^2 + u)) with s = g/(d^2 + g) < 1/2, above it the
    difference log1p(u/(d^2 + g)) - log1p(u/d^2) of terms a factor 2 apart.
    """
    d2 = scenario.waveguide_height ** 2
    ln2 = math.log(2.0)

    def rate_offset(factor):
        g = chan.eta * chan.rho * factor
        if g < d2:
            return lambda u: np.log1p(-(g / (d2 + g)) * (u / (d2 + u))) / ln2
        return lambda u: (np.log1p(u / (d2 + g)) - np.log1p(u / d2)) / ln2

    return [_bob_sum(scenario, rule, rate_offset(bob_factor)),
            *_willie_sums(scenario, rule, rate_offset(willie_factor))]


def _clamp_probability(value: float, label: str) -> float:
    if 0.0 <= value <= 1.0:
        return value
    logger.warning("clamping %s from %.17g into [0, 1]", label, value)
    return min(1.0, max(0.0, value))


def _sop_pair(term_sums, span: float, label: str) -> BoundPair:
    """1 - (j + k + l) in the upper (span, 1) and the lower (1, span) direction."""
    upper, lower = (1.0 - (j + k + l) for j, k, l in (term_sums(span, 1.0),
                                                      term_sums(1.0, span)))
    return BoundPair(lower=_clamp_probability(lower, f"{label} lower bound"),
                     upper=_clamp_probability(upper, f"{label} upper bound"))


def sop_bounds(scenario: Scenario, chan: ChannelParams, target: SecrecyTarget,
               rule: QuadratureRule) -> BoundPair:
    """Secrecy outage probability bracket at the channel's rho."""
    return _sop_pair(lambda b, w: sop_term_sums(scenario, chan, target, rule, b, w),
                     attenuation_span(scenario, chan), "sop")


def sop_asymptotic(scenario: Scenario, chan: ChannelParams, target: SecrecyTarget,
                   rule: QuadratureRule) -> BoundPair:
    """High-SNR saturation levels of the SOP bracket; independent of rho."""
    return _sop_pair(lambda b, w: sop_asymptotic_term_sums(scenario, target, rule, b, w),
                     attenuation_span(scenario, chan), "sop asymptotic")


def esc_bounds(scenario: Scenario, chan: ChannelParams,
               rule: QuadratureRule) -> BoundPair:
    """Ergodic secrecy capacity bracket; the 1/2 pre-log is applied here.

    0.5 * (r(A) - r(B) + bob - (j + k + l)) in the upper (1, span) and the
    lower (span, 1) direction, where r(F) = log2(1 + eta*rho*F/d^2) is the
    rate at distance d that esc_term_sums measures its offsets from.  At
    alpha = 0 the r terms cancel exactly.
    """
    span = attenuation_span(scenario, chan)
    d2 = scenario.waveguide_height ** 2

    def esc(bob_factor, willie_factor):
        c, j, k, l = esc_term_sums(scenario, chan, rule, bob_factor, willie_factor)
        peak = (math.log1p(chan.eta * chan.rho * bob_factor / d2)
                - math.log1p(chan.eta * chan.rho * willie_factor / d2)) / math.log(2.0)
        return 0.5 * (peak + c - (j + k + l))

    return BoundPair(upper=esc(1.0, span), lower=esc(span, 1.0))


def esc_asymptotic(scenario: Scenario, chan: ChannelParams,
                   rule: QuadratureRule) -> BoundPair:
    """High-SNR ESC levels, the limit rho -> inf of esc_bounds.

    Every rate offset tends to -log2(Z/d^2), that of esc_term_sums at
    infinite power, and r(A) - r(B) to log2(A/B), -/+ log2(span) on the upper/
    lower side, taken as -2 alpha D / ln 2: finite where the span underflows.
    """
    c, j, k, l = esc_term_sums(scenario, replace(chan, tx_power=math.inf), rule, 1.0, 1.0)
    gap = c - (j + k + l)
    log_span = -2.0 * chan.attenuation * scenario.side_length / math.log(2.0)
    return BoundPair(lower=0.5 * (gap + log_span),
                     upper=0.5 * (gap - log_span))


def diversity_estimate(sop_at, rho1: float, rho2: float) -> float:
    """Finite-difference log-log slope of an outage curve, negated.

    Saturating outage gives an estimate near zero.
    """
    if not (0 < rho1 < rho2):
        raise ValueError("need 0 < rho1 < rho2")
    p1, p2 = float(sop_at(rho1)), float(sop_at(rho2))
    if p1 <= 0 or p2 <= 0:
        raise ValueError("outage probabilities must be positive")
    return -(math.log(p2) - math.log(p1)) / (math.log(rho2) - math.log(rho1))


def slope_estimate(esc_at, rho1: float, rho2: float) -> float:
    """Finite-difference high-SNR slope of a rate curve in bits per log2(rho)."""
    if not (0 < rho1 < rho2):
        raise ValueError("need 0 < rho1 < rho2")
    r1, r2 = float(esc_at(rho1)), float(esc_at(rho2))
    return (r2 - r1) / (math.log2(rho2) - math.log2(rho1))
