"""Analytical secrecy-outage and ergodic-secrecy-capacity bounds.

The exact guided power loss exp(-2*alpha*L) varies with Bob's position.
Replacing it by a constant on each link, its best case 1 on one and its
worst case span = exp(-2*alpha*D) on the other, yields stochastically
ordered systems, so each metric gets a closed-form upper and lower bound
expressed through the Zb/Zw distance distributions.  A bound direction
is the plain pair (bob_factor, willie_factor): for the outage the upper
bound is (span, 1) and the lower (1, span); the capacity uses the reverse
pairs.  A span that underflows to 0 (alpha*D beyond about 372) is valid.

The term sums are plain integrals in z on the endpoint-smoothed rule of
quad.py, returned per piece: [j, k, l] over the three Zw density pieces,
preceded by the Zb term where there is one.  The outage integrand
F_Zb(threshold(z)) has kinks where the threshold reaches an end of Zb's
support; each Zw piece is split there, and sub-pieces on which outage is
certain are skipped.  The Zb density's 1/sqrt pole at d^2 is removed by
integrating over Bob's offset y instead of z.  At n nodes per sub-piece
the error falls as n^-4 (about 1e-12 relative at the default n = 1000).

Both metrics saturate at high SNR (the same loss and geometry face Bob
and Willie), so the diversity order and high-SNR slope are zero; the
finite-difference estimators let callers confirm that numerically.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

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


def _distributions(scenario: Scenario) -> tuple[ZbDistribution, ZwDistribution]:
    return (ZbDistribution(scenario.side_length, scenario.waveguide_height),
            ZwDistribution(scenario.side_length, scenario.waveguide_height))


def _piece_sum(rule: QuadratureRule, lo: float, width: float, f) -> float:
    """Plain integral of f over [lo, lo + width]."""
    return width * integrate(rule, lambda x: f(lo + width * x))


def _willie_sums(scenario: Scenario, rule: QuadratureRule, value_of_z,
                 kinks=(), vanishes=None) -> list[float]:
    """Integrate value_of_z(z) against each Zw density branch over its piece.

    Each piece is split at the sorted `kinks` inside it, so that every
    sub-piece integrand is smooth up to corners at its ends.  A sub-piece
    (lo, hi) for which vanishes(lo, hi) holds adds nothing.  Cuts are kept
    as offsets from the piece start, so the widths add up to the exact
    piece width even where d^2 dwarfs D^2.
    """
    _, zw = _distributions(scenario)
    branches = (zw.pdf_piece1, zw.pdf_piece2, zw.pdf_piece3)
    sums = []
    for (start, width), branch in zip(zw.pieces, branches):
        cuts = [0.0, *(k - start for k in kinks if 0.0 < k - start < width), width]
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            if vanishes is None or not vanishes(start + a, start + b):
                total += _piece_sum(rule, start + a, b - a,
                                    lambda z, branch=branch: value_of_z(z) * branch(z))
        sums.append(total)
    return sums


def _bob_sum(scenario: Scenario, rule: QuadratureRule, value_of_z) -> float:
    """Integrate value_of_z(z) against the Zb density, over Bob's offset y.

    z = d^2 + y^2 with y in [0, D/2] turns pdf(z) dz into (2/D) dy, which
    cancels the density's 1/sqrt(z - d^2) pole.  The density is still
    evaluated, so a normalization check of it stays a check.  Near the pole
    y^2 falls below the spacing of floats at d^2, so every node is moved to
    a float above d^2 and dz/dy = 2y is taken as 2 sqrt(z - d^2) of z as
    represented; pdf's floor sentinel is never reached and the product
    pdf(z) * dz/dy stays 2/D at every node.
    """
    zb, _ = _distributions(scenario)
    lo, hi = zb.support
    y_max = 0.5 * scenario.side_length
    z_min = np.nextafter(lo, hi)

    def g(x):
        z = np.clip(lo + (y_max * x) ** 2, z_min, hi)
        return value_of_z(z) * zb.pdf(z) * (2.0 * np.sqrt(z - lo))

    return y_max * integrate(rule, g)


def _outage_kinks(zb: ZbDistribution, a: float, b: float, c: float) -> list[float]:
    """Sorted z at which the threshold a / (b + c/z) reaches an end of Zb's support.

    There F_Zb(threshold(z)) saturates at 0 or 1.  Both threshold forms fit
    the pattern: at finite rho a = eta*rho*A, b = 4^Rbar - 1 and
    c = 4^Rbar*eta*rho*B; in the high-SNR limit a = A, b = 0, c = 4^Rbar*B.
    The threshold increases with z, so an end S is reached only if a/S > b.
    """
    return sorted(c / (a / s - b) for s in zb.support if a / s > b)


def _no_outage_sums(scenario: Scenario, rule: QuadratureRule, threshold,
                    kinks: list[float]) -> list[float]:
    """[j, k, l]: F_Zb(threshold(z)) over the Zw pieces, split at the kinks.

    Between two kinks the threshold stays on one side of d^2, so a sub-piece
    whose midpoint threshold is <= d^2 has F_Zb = 0 throughout and is skipped.
    """
    zb, _ = _distributions(scenario)
    d2 = zb.support[0]
    return _willie_sums(scenario, rule, lambda z: zb.cdf(threshold(z)), kinks,
                        vanishes=lambda lo, hi: threshold(0.5 * (lo + hi)) <= d2)


def sop_term_sums(scenario: Scenario, chan: ChannelParams, target: SecrecyTarget,
                  rule: QuadratureRule, bob_factor: float,
                  willie_factor: float) -> list[float]:
    """[j, k, l]: no-outage mass F_Zb(threshold(z)) over the Zw pieces."""
    zb, _ = _distributions(scenario)
    eta_rho = chan.eta * chan.rho
    fr = target.threshold
    kinks = _outage_kinks(zb, eta_rho * bob_factor, fr - 1.0, fr * eta_rho * willie_factor)
    return _no_outage_sums(
        scenario, rule,
        lambda z: sop_threshold(z, bob_factor, willie_factor, chan, target), kinks)


def sop_asymptotic_term_sums(scenario: Scenario, target: SecrecyTarget,
                             rule: QuadratureRule, bob_factor: float,
                             willie_factor: float) -> list[float]:
    """High-SNR limit: the threshold collapses to z * A / (4^Rbar * B).

    With B = 0 Willie hears nothing and the threshold is +inf (no outage).
    """
    zb, _ = _distributions(scenario)
    fr = target.threshold
    factor = bob_factor / (fr * willie_factor) if willie_factor > 0 else math.inf
    kinks = _outage_kinks(zb, bob_factor, 0.0, fr * willie_factor)
    return _no_outage_sums(scenario, rule, lambda z: z * factor, kinks)


def esc_term_sums(scenario: Scenario, chan: ChannelParams, rule: QuadratureRule,
                  bob_factor: float, willie_factor: float) -> list[float]:
    """[bob, j, k, l]: rate integrands for one ESC bound direction.

    bob: log2(1 + eta*rho*A/z) against the Zb density;
    j, k, l: log2(1 + eta*rho*B/z) against the Zw branches.
    """
    eta_rho = chan.eta * chan.rho

    def bob_rate(z):
        return np.log2(1.0 + eta_rho * bob_factor / z)

    def willie_rate(z):
        return np.log2(1.0 + eta_rho * willie_factor / z)

    return [_bob_sum(scenario, rule, bob_rate), *_willie_sums(scenario, rule, willie_rate)]


def log2_moment_sums(scenario: Scenario, rule: QuadratureRule) -> list[float]:
    """[bob, j, k, l]: E[log2 Zb] and the per-piece parts of E[log2 Zw]."""
    return [_bob_sum(scenario, rule, np.log2), *_willie_sums(scenario, rule, np.log2)]


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

    0.5 * (bob - (j + k + l)) in the upper (1, span) and the lower
    (span, 1) direction.
    """
    span = attenuation_span(scenario, chan)
    upper, lower = (0.5 * (c - (j + k + l)) for c, j, k, l in (
        esc_term_sums(scenario, chan, rule, 1.0, span),
        esc_term_sums(scenario, chan, rule, span, 1.0)))
    return BoundPair(lower=lower, upper=upper)


def esc_asymptotic(scenario: Scenario, chan: ChannelParams,
                   rule: QuadratureRule) -> BoundPair:
    """High-SNR ESC levels from the log2 distance moments.

    upper/lower = (1/2) * (E[log2 Zw] - E[log2 Zb] -/+ log2(exp(-2 alpha D))).
    The log of the span is negative, so "minus" is the upper side; it is
    taken in the log domain, -2 alpha D / ln 2, so it stays finite where
    the span itself underflows to 0.
    """
    c, j, k, l = log2_moment_sums(scenario, rule)
    gap = (j + k + l) - c
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
