"""Analytical secrecy-outage and ergodic-secrecy-capacity bounds.

The exact guided power loss exp(-2*alpha*L) varies with Bob's position.
Replacing it by a constant on each link, its best case 1 on one and its
worst case span = exp(-2*alpha*D) on the other, yields stochastically
ordered systems, so each metric gets a closed-form upper and lower bound
expressed through the Zb/Zw distance distributions.  A bound direction
is the plain pair (bob_factor, willie_factor): for the outage the upper
bound is (span, 1) and the lower (1, span); the capacity uses the reverse
pairs.  A span that underflows to 0 (alpha*D beyond about 372) is valid.
Both metrics saturate at high SNR (the same loss and geometry face Bob
and Willie), so the diversity order and high-SNR slope are zero; the
saturation levels are the brackets at rho = inf.

The term sums are integrals over the distance offsets u = z - d^2 of
diststats.py, on the tanh-sinh rule of quad.py, with d^2 entering only
where a rate or the outage threshold is formed.  Rows run in blocks, each
summed alone by quad.integrate, so a power's bracket has the same bits in
any array.

sop_bounds and esc_bounds take one ChannelParams, whose tx_power they
ignore, and an array of transmit powers, and return a BoundPair of arrays
in that order, each from one term-sum call for both of its directions
(_directions).  sop_term_sums and esc_term_sums take the rows
(eta*rho, A, B) as arrays and return per row the sums [j, k, l] over the
three Zw density pieces, preceded by the Zb term where there is one
(_densities).  sop_asymptotic and esc_asymptotic are the brackets at
rho = inf; the finite-difference estimators let callers confirm the
saturation numerically.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .diststats import ZbDistribution, ZwDistribution
from .model import ChannelParams, Scenario, SecrecyTarget, _tx_powers
from .quad import QuadratureRule, integrate

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BoundPair:
    """A bracket: numbers, or arrays with one entry per transmit power."""

    lower: float
    upper: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


def attenuation_span(scenario: Scenario, chan: ChannelParams) -> float:
    """Worst-case guided power loss exp(-2 * alpha * D); 0 once it underflows."""
    return math.exp(-2.0 * chan.attenuation * scenario.side_length)


# per row block: 81 rows at n = 200, 16 at n = 1000.  On dense-bounds 4x fewer were 34-76%
# slower; 4x more were 6-15% faster but took 3x the memory (1.7 + 1.2 MB at n = 1000)
_BLOCK_ELEMENTS = 16384
_TINY = np.finfo(float).tiny  # the smallest normal float


def _row_blocks(rows, rule: QuadratureRule) -> list:
    """The row indices `rows` in runs of at most _BLOCK_ELEMENTS // n."""
    step = max(1, _BLOCK_ELEMENTS // rule.n)
    return [rows[i:i + step] for i in range(0, len(rows), step)]


@contextmanager
def _row_buffer(rule: QuadratureRule):
    """numpy's ufunc buffer cut to a multiple of 16 no larger than rule.n, nor than it was.

    Under the default 8192-element buffer numpy's iterator joins a block's
    rows into one inner loop by copying the broadcast per-row column or
    per-node row on every call, ~3x the cost of a row-by-row op at
    n = 1000.  The term sums' ops are element-wise or row sums, so no bit
    depends on the buffer.
    """
    old = np.setbufsize(min(np.getbufsize(), max(16, 16 * (rule.n // 16))))
    try:
        yield
    finally:
        np.setbufsize(old)


def _threshold_offset(u, d2: float, a, b, c, out=None, scratch=None):
    """Largest Zb offset that still avoids secrecy outage, Willie at offset u.

    The threshold a / (b + c/z) of _outage_rows at z = d^2 + u, minus d^2,
    over one denominator: (d^2*K + u*(a - b*d^2)) / (b*(d^2 + u) + c) with
    K = a - b*d^2 - c.  K is exactly 0 at Rbar = 0 and equal factors, so no
    digit of d^2 is lost.  Where b = c = 0 Willie hears nothing and the
    offset is a*z/0 = +inf (no outage).  Arrays `out` and `scratch` of the
    offset's shape (u's, or u's broadcast over rows of a, b, c) take the
    numerator and the denominator in place; the offset is written to `out`.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore"):
        num = np.multiply(u, a - b * d2, out=out)
        num += d2 * (a - b * d2 - c)
        den = np.add(d2, u, out=scratch)
        den *= b
        den += c
        return np.divide(num, den, out=out)


def _densities(scenario: Scenario, rule: QuadratureRule) -> list:
    """(width, u, density) of the Zb density and of each Zw branch on the rule, over its piece.

    Zb's 1/sqrt(u) pole at u = 0 is integrable and sits at the rule's left
    end, where its nodes reach x ~ 1e-37, so it needs no change of variable.
    """
    zb, zw = ZbDistribution(scenario.side_length), ZwDistribution(scenario.side_length)
    pieces = []
    for start, width, pdf, _ in ((0.0, zb.support[1], zb.pdf, zb.cdf), *zw.branches):
        u = start + width * rule.nodes
        pieces.append((width, u, pdf(u)))
    return pieces


def _rows(eta_rho, bob_factor, willie_factor) -> list:
    """The rows eta*rho, A and B as float arrays of one shape; a number stands for every row."""
    return np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                 for v in (eta_rho, bob_factor, willie_factor)))


def _outage_rows(scenario: Scenario, target: SecrecyTarget, eta_rho, bob_factor,
                 willie_factor) -> list:
    """Arrays a, b, c, u_0, u_1, one entry per row (eta*rho, A, B).

    With Willie at z, Bob avoids outage where Zb < a / (b + c/z), with
    a = A, b = (4^Rbar - 1)/(eta*rho) and c = 4^Rbar*B.  b is 0 at
    rho = inf and at Rbar = 0, and +inf for Rbar > 0 where eta*rho
    underflows to 0 or 4^Rbar overflows (outage is certain).  u_0 and u_1 are the offsets at which
    _threshold_offset reaches the ends 0 and D^2/4 of Zb's support, where
    F_Zb(threshold) saturates: u_S = (S*(c + b*d^2) - d^2*K) / (a - b*(d^2 + S))
    with K of _threshold_offset.  The threshold increases with u towards
    a/b, so it never reaches an end S with a <= b*(d^2 + S); u_S is +inf there.
    """
    d2 = scenario.waveguide_height ** 2
    fr, gap = target.threshold, target.threshold_minus_one
    eta_rho, a, willie = _rows(eta_rho, bob_factor, willie_factor)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        b = np.where((eta_rho > 0) & (gap < math.inf), gap / eta_rho,
                     math.inf if gap > 0.0 else 0.0)
        c = fr * willie
        k = a - b * d2 - c
        kinks = [np.where(a > b * (d2 + s), (s * (c + b * d2) - d2 * k) / (a - b * (d2 + s)),
                          math.inf)
                 for s in ZbDistribution(scenario.side_length).support]
    return [a, b, c, *kinks]


def sop_term_sums(scenario: Scenario, target: SecrecyTarget, rule: QuadratureRule, eta_rho,
                  bob_factor, willie_factor) -> np.ndarray:
    """Rows [j, k, l], one per row (eta*rho, A, B): no-outage mass F_Zb(threshold) on Zw's pieces.

    F_Zb(threshold) is 0 below u_0 and 1 beyond u_1 (_outage_rows), so row
    r's quadrature runs over [u_0, u_1] clipped to each piece, whose
    integrand is smooth up to corners at its ends, and the mass beyond u_1
    is the piece's closed-form CDF difference.  Where u_1 <= 0 the row's
    mass is exactly 1: its last piece takes the rest of 1 (exact, as j + k
    lies in [1/2, 1]).

    A full row, whose clipped interval is the whole piece, shares the
    piece's nodes u and density, formed once per piece; the other rows
    form their own in blocks.  Each block writes into one workspace made
    per call: a partial block's nodes u, then the threshold's numerator,
    into which the offset, F_Zb and the product with the density are
    formed in place, and its denominator, which then takes a partial
    block's density.
    """
    with _row_buffer(rule):
        d2 = scenario.waveguide_height ** 2
        zb, zw = ZbDistribution(scenario.side_length), ZwDistribution(scenario.side_length)
        a, b, c, u_0, u_1 = _outage_rows(scenario, target, eta_rho, bob_factor, willie_factor)
        a, b, c = a[:, None], b[:, None], c[:, None]
        workspace = np.empty((3, min(a.size, max(1, _BLOCK_ELEMENTS // rule.n)), rule.n))
        sums = np.zeros((a.size, 3))
        for total, (start, span, branch, cdf) in zip(sums.T, zw.branches):
            hi = start + span
            lo = np.clip(u_0, start, hi)
            cut = np.clip(u_1, lo, hi)
            full = (lo == start) & (cut == hi)
            partial = np.flatnonzero((lo < cut) & ~full)
            blocks = [(rows, None) for rows in _row_blocks(partial, rule)]
            if full.any():
                u = start + (hi - start) * rule.nodes
                shared = (u, branch(u))
                blocks += [(rows, shared) for rows in _row_blocks(np.flatnonzero(full), rule)]
            for rows, shared in blocks:
                own, num, den = workspace[:, :rows.size]
                width = cut[rows] - lo[rows]
                if shared:
                    u, density = shared
                else:
                    u = np.add(lo[rows, None], np.outer(width, rule.nodes, out=own), out=own)
                offset = _threshold_offset(u, d2, a[rows], b[rows], c[rows], num, den)
                value = zb.cdf(offset, out=num)
                value *= density if shared else branch(u, out=den)
                total[rows] = width * integrate(rule, value)
            saturated = cut < hi
            total[saturated] += cdf(hi) - cdf(cut[saturated])
        certain = u_1 <= 0.0
        sums[certain, 2] = 1.0 - (sums[certain, 0] + sums[certain, 1])
    return sums


def _rate_offset(gain, d2: float, u):
    """log2(1 + g/(d^2 + u)) - log2(1 + g/d^2) = -log2(1 + t); g and u broadcast.

    t = g*u/(d^2*(d^2 + g + u)) is taken as w / x with w = u/(d^2 + u) and
    x = d^2/g + v, v = d^2/(d^2 + u): non-negative terms, w and v at most 1,
    joined by one add, so it neither cancels nor overflows.  d^2/g is 0 at
    g = inf, giving -log2(1 + u/d^2), and +inf where g is 0 or d^2/g
    overflows, giving 0.  Where x is below the normal range (u/d^2 near or
    past it, g far above d^2), ln(1 + t) is taken in logs as
    log1p(d^2/g) - ln(x), with ln(x) = ln(d^2) - ln(d^2 + u) + log1p((d^2 + u)/g).
    """
    u = np.asarray(u, dtype=float)
    w, v = u / (d2 + u), d2 / (d2 + u)
    gain = np.asarray(gain, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        d2_over_g = d2 / gain
        offset = np.asarray(d2_over_g + v)  # the one (rows, n) array, formed in place
        np.divide(w, offset, out=offset)
        np.log1p(offset, out=offset)
        offset /= -math.log(2.0)
    if np.any(v < _TINY):  # x >= v, so x is normal wherever v is
        with np.errstate(all="ignore"):
            log_x = math.log(d2) - np.log(d2 + u) + np.log1p((d2 + u) / gain)
            offset = np.where(d2_over_g + v < _TINY,
                              (np.log1p(d2_over_g) - log_x) / -math.log(2.0), offset)
    return offset


def _moments(pieces: list, rule: QuadratureRule, d2: float, k_max: int) -> np.ndarray:
    """M_k = integral of w^k, w = u/(d^2 + u), for k = 1..k_max: one column per density piece.

    Against each of `pieces` (_densities) on the same rule.  Each piece
    forms w once; its powers come in blocks of at most _BLOCK_ELEMENTS
    elements, each block's cumulative product starting from the last power
    of the block before, so M_k has the same bits at any k_max.
    """
    moments = np.empty((k_max, len(pieces)))
    for p, (width, u, density) in enumerate(pieces):
        w, last = u / (d2 + u), 1.0
        for ks in _row_blocks(np.arange(k_max), rule):
            powers = np.empty((ks.size, w.size))
            np.multiply(last, w, out=powers[0])
            for j in range(1, ks.size):  # row by row: a cumprod along axis 0 is ~3x slower
                np.multiply(powers[j - 1], w, out=powers[j])
            last = powers[-1].copy()  # powers is weighted in place below
            powers *= density
            moments[ks, p] = width * integrate(rule, powers)
    return moments


def esc_term_sums(scenario: Scenario, rule: QuadratureRule, eta_rho, bob_factor,
                  willie_factor) -> np.ndarray:
    """Rows [bob, j, k, l], one per row (g = eta*rho, A, B): rate offsets from the rate at u = 0.

    Offsets from the rate at distance d keep their digits where d^2
    dwarfs D^2.  One gain column per density piece, g*[A, B, B, B]: bob is
    the offset at gain g*A against the Zb density, j, k, l at g*B against
    the Zw branches.  At g = inf every gain is +inf whatever the factors,
    an underflowed span included.

    In nats the offset is ln(1 - s*w) = -sum_k s^k w^k / k with
    s = g/(d^2 + g) and w = u/(d^2 + u) (Abramowitz & Stegun 4.1), so a
    term sum is -sum_k s^k M_k / k over the moments M_k of _moments, formed
    once per call.  s, w and the densities are non-negative, so every term
    has the same sign and the sum does not cancel.  Gains with s <= 1/2
    (g <= d^2) take the series with K = ceil(53 / -log2(s)) + 1 terms for
    their own s (54 at s = 1/2; w < 1, so the tail is below 2^-53 of the
    sum), by Horner's rule with the sum held at 0 past K, so a row's bits
    depend on its gains alone.  Gains with s > 1/2, rho = inf among them,
    take the quadrature of _rate_offset, one log1p per node and row.
    """
    with _row_buffer(rule):
        d2 = scenario.waveguide_height ** 2
        g, a, b = _rows(eta_rho, bob_factor, willie_factor)
        g = g[:, None]
        with np.errstate(invalid="ignore"):  # inf * 0 where a span underflowed
            gains = np.where(g < math.inf, g * np.column_stack([a, b, b, b]), g)
        with np.errstate(divide="ignore", over="ignore"):
            s = 1.0 / (1.0 + d2 / gains)  # exactly 1 at g = inf, 0 at g = 0
            terms = np.where(s <= 0.5, np.ceil(53.0 / -np.log2(s)) + 1.0, 0.0)
        sums = np.zeros(gains.shape)
        k_max = int(terms.max(initial=0.0))
        pieces = _densities(scenario, rule)
        moments = _moments(pieces, rule, d2, k_max) / np.arange(1.0, k_max + 1.0)[:, None]
        for k in range(k_max, 0, -1):
            sums = np.where(k <= terms, s * (moments[k - 1] + sums), 0.0)
        sums /= -math.log(2.0)
        for p, (width, u, density) in enumerate(pieces):
            for rows in _row_blocks(np.flatnonzero(terms[:, p] == 0), rule):
                value = _rate_offset(gains[rows, p, None], d2, u)
                value *= density
                sums[rows, p] = width * integrate(rule, value)
    return sums


def _clamp_probability(values, label: str):
    """values clipped into [0, 1], with one warning of how many lay outside and the farthest."""
    outside = values[(values < 0.0) | (values > 1.0)]
    if outside.size:
        logger.warning("clamping %d %s value(s) into [0, 1], the farthest %.17g", outside.size,
                       label, outside[np.argmax(np.abs(outside - 0.5))])
    return np.clip(values, 0.0, 1.0)


def _eta_rho(chan: ChannelParams, tx_powers):
    """eta*rho at each of tx_powers, by chan.eta * chan.rho's operations and checks."""
    if chan.noise_bob != chan.noise_willie:
        raise ValueError("rho undefined: noise_bob != noise_willie")
    return chan.eta * (_tx_powers(tx_powers) / chan.noise_bob)


def _directions(eta_rho, first: tuple) -> tuple:
    """Rows (eta*rho, A, B) of direction `first` (A, B), then of its reverse: the first and the
    last eta_rho.size rows, which are the same rows where the two are equal (span = 1)."""
    k = 1 if first[0] == first[1] else 2
    return (np.tile(eta_rho, k), np.repeat(first[:k], eta_rho.size),
            np.repeat(first[::-1][:k], eta_rho.size))


def sop_bounds(scenario: Scenario, chan: ChannelParams, tx_powers, target: SecrecyTarget,
               rule: QuadratureRule) -> BoundPair:
    """Secrecy outage probability brackets at each of tx_powers, as arrays in their order.

    1 - (j + k + l) in the upper (span, 1) and the lower (1, span) direction.
    """
    eta_rho = _eta_rho(chan, tx_powers)
    sums = sop_term_sums(scenario, target, rule,
                         *_directions(eta_rho, (attenuation_span(scenario, chan), 1.0)))
    outage = 1.0 - (sums[:, 0] + sums[:, 1] + sums[:, 2])
    return BoundPair(lower=_clamp_probability(outage[-eta_rho.size:], "sop lower bound"),
                     upper=_clamp_probability(outage[:eta_rho.size], "sop upper bound"))


def sop_asymptotic(scenario: Scenario, chan: ChannelParams, target: SecrecyTarget,
                   rule: QuadratureRule) -> BoundPair:
    """High-SNR saturation levels of the SOP bracket: sop_bounds at rho = inf, as numbers."""
    pair = sop_bounds(scenario, chan, [math.inf], target, rule)
    return BoundPair(lower=pair.lower.item(), upper=pair.upper.item())


def esc_bounds(scenario: Scenario, chan: ChannelParams, tx_powers,
               rule: QuadratureRule) -> BoundPair:
    """Ergodic secrecy capacity brackets at each of tx_powers, as arrays in their order.

    0.5 * (r(A) - r(B) + bob - (j + k + l)) in the upper (1, span) and the
    lower (span, 1) direction, where r(F) = log2(1 + eta*rho*F/d^2) is the
    rate at distance d that esc_term_sums measures its offsets from.  At
    alpha = 0 the r terms cancel exactly.  rho = inf gives the high-SNR
    limit, where r(A) - r(B) is log2(A/B) = -/+ log2(span), taken as
    2 alpha D / ln 2: finite where the span underflows.
    """
    d2, ln2 = scenario.waveguide_height ** 2, math.log(2.0)
    span = attenuation_span(scenario, chan)
    eta_rho = _eta_rho(chan, tx_powers)
    # r(1) - r(span), the upper direction's r(A) - r(B), by libm's log1p per
    # power: np.log1p differs from it in the last bit on some gains
    head = np.array([(math.log1p(g / d2) - math.log1p(g * span / d2)) / ln2 if g < math.inf
                     else 2.0 * chan.attenuation * scenario.side_length / ln2
                     for g in eta_rho.tolist()])
    sums = esc_term_sums(scenario, rule, *_directions(eta_rho, (1.0, span)))
    rate = sums[:, 0] - (sums[:, 1] + sums[:, 2] + sums[:, 3])
    return BoundPair(lower=0.5 * (rate[-eta_rho.size:] - head),
                     upper=0.5 * (rate[:eta_rho.size] + head))


def esc_asymptotic(scenario: Scenario, chan: ChannelParams,
                   rule: QuadratureRule) -> BoundPair:
    """High-SNR saturation levels of the ESC bracket: esc_bounds at rho = inf, as numbers."""
    pair = esc_bounds(scenario, chan, [math.inf], rule)
    return BoundPair(lower=pair.lower.item(), upper=pair.upper.item())


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
