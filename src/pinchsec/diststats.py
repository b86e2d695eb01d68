"""Distributions of the squared radiator-to-user distances, as offsets from d^2.

With users dropped uniformly on the room floor and the radiator pinned at
Bob's x coordinate, the squared distance to Bob is Zb = d^2 + y1^2 and the
squared distance to Willie is Zw = d^2 + (x1 - x2)^2 + y2^2.  Only the
offsets u = Z - d^2 are random, and they depend on the side length D
alone, so both classes describe u: every pdf, cdf, quantile, support,
breakpoint and sample here is in u, on [0, D^2/4] for Bob and [0, 5 D^2/4]
for Willie.  Callers add d^2 where they form a distance.  Both admit
closed-form piecewise PDFs/CDFs, implemented here together with exact
geometric samplers and goodness-of-fit utilities.  ZwDistribution also
owns the layout of its three density pieces (`pieces`), over which the
bounds integrate branch by branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ZbDistribution:
    """Offset of the squared distance to Bob: u = Zb - d^2 = y1^2 on [0, D^2/4].

    pdf(u) = 1 / (D * sqrt(u)) inside the support (+inf at the integrable
    pole u = 0), 0 outside; cdf(u) = (2/D) * sqrt(u), clamped to [0, 1].
    """

    side_length: float = 25.0

    def __post_init__(self):
        if not (self.side_length > 0):
            raise ValueError("side_length must be > 0")

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, self.side_length ** 2 / 4.0)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self.support

    def pdf(self, u):
        u = np.asarray(u, dtype=float)
        lo, hi = self.support
        return np.piecewise(u, [(u >= lo) & (u <= hi)],
                            [lambda v: 1.0 / (self.side_length * np.sqrt(v))])

    def cdf(self, u):
        u = np.clip(np.asarray(u, dtype=float), *self.support)
        return (2.0 / self.side_length) * np.sqrt(u)

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise ValueError("quantile argument must lie in [0, 1]")
        return (self.side_length * q / 2.0) ** 2

    def sample(self, rng: np.random.Generator, n: int):
        """n exact draws via the underlying uniform placement."""
        x1, x2, y1, y2 = _draw_positions(rng, self.side_length, n)
        return y1 ** 2


@dataclass(frozen=True)
class ZwDistribution:
    """Offset of the squared distance to Willie: u = (x1 - x2)^2 + y2^2 on [0, 5 D^2/4].

    Three pieces with breakpoints at D^2/4 and D^2.  The first piece comes
    from the triangular density of x1 - x2 folded with y2^2; the upper
    pieces pick up circular-segment corrections.  Each branch function is
    the density or CDF on its own piece only; pdf and cdf evaluate every
    branch on its piece alone.
    """

    side_length: float = 25.0

    def __post_init__(self):
        if not (self.side_length > 0):
            raise ValueError("side_length must be > 0")

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, 1.25 * self.side_length ** 2)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        D2 = self.side_length ** 2
        return (0.0, 0.25 * D2, D2, 1.25 * D2)

    @property
    def pieces(self) -> tuple[tuple[float, float], ...]:
        """(start, width) of the piece of each density branch, in branch order."""
        b0, b1, b2, _ = self.breakpoints
        D2 = self.side_length ** 2
        return ((b0, 0.25 * D2), (b1, 0.75 * D2), (b2, 0.25 * D2))

    def _masks(self, u):
        b0, b1, b2, b3 = self.breakpoints
        return [(u >= b0) & (u < b1), (u >= b1) & (u < b2), (u >= b2) & (u <= b3)]

    # -- per-piece densities; the arcsin argument at D^2/4 may round above 1 --

    def pdf_piece1(self, u):
        D = self.side_length
        return np.pi / D ** 2 - 2.0 * np.sqrt(u) / D ** 3

    def pdf_piece2(self, u):
        D = self.side_length
        a = np.minimum(D / (2.0 * np.sqrt(u)), 1.0)
        return (2.0 / D ** 2) * np.arcsin(a) - 1.0 / D ** 2

    def pdf_piece3(self, u):
        D = self.side_length
        return ((2.0 / D ** 2) * (np.arcsin(D / (2.0 * np.sqrt(u)))
                                  - np.arcsin(np.sqrt(1.0 - D ** 2 / u)))
                - 1.0 / D ** 2
                + (2.0 / D ** 3) * np.sqrt(u - D ** 2))

    def pdf(self, u):
        u = np.asarray(u, dtype=float)
        return np.piecewise(u, self._masks(u),
                            [self.pdf_piece1, self.pdf_piece2, self.pdf_piece3])

    # -- per-piece CDFs --

    def cdf_piece1(self, u):
        D = self.side_length
        return np.pi * u / D ** 2 - (4.0 / 3.0) * u ** 1.5 / D ** 3

    def cdf_piece2(self, u):
        D = self.side_length
        a = np.minimum(D / (2.0 * np.sqrt(u)), 1.0)
        return (np.sqrt(u - D ** 2 / 4.0) / D
                + (2.0 * u / D ** 2) * np.arcsin(a)
                - u / D ** 2 + 1.0 / 12.0)

    def cdf_piece3(self, u):
        D = self.side_length
        r = np.sqrt(u - D ** 2 / 4.0)
        s = np.sqrt(u - D ** 2)
        return (r / D
                + (2.0 * u / D ** 2) * (np.arctan(D / (2.0 * r)) - np.arctan(s / D))
                - u / D ** 2 + 1.0 / 12.0
                + (2.0 / (3.0 * D ** 3)) * s * (2.0 * u + D ** 2))

    def cdf(self, u):
        u = np.asarray(u, dtype=float)
        return np.piecewise(u, [*self._masks(u), u >= self.support[1]],
                            [self.cdf_piece1, self.cdf_piece2, self.cdf_piece3, 1.0])

    def quantile(self, q):
        """Inverse CDF by bisection (the CDF is strictly increasing)."""
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise ValueError("quantile argument must lie in [0, 1]")
        b0, _, _, b3 = self.breakpoints
        lo = np.full(np.broadcast(q).shape, b0)
        hi = np.full(np.broadcast(q).shape, b3)
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < q
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    def sample(self, rng: np.random.Generator, n: int):
        x1, x2, y1, y2 = _draw_positions(rng, self.side_length, n)
        return (x1 - x2) ** 2 + y2 ** 2


def _draw_positions(rng, side_length, n):
    """Canonical position draw order shared by every sampler in the package."""
    if n < 1:
        raise ValueError("need at least one sample")
    h = side_length / 2.0
    x1 = rng.uniform(-h, h, n)
    x2 = rng.uniform(-h, h, n)
    y1 = rng.uniform(-h, h, n)
    y2 = rng.uniform(-h, h, n)
    return x1, x2, y1, y2


def ks_statistic(samples, cdf) -> float:
    """Sup-norm distance between the empirical CDF of samples and cdf."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("ks_statistic needs at least one sample")
    f = np.asarray(cdf(x), dtype=float)
    steps = np.arange(1, n + 1) / n
    d_plus = np.max(steps - f)
    d_minus = np.max(f - (steps - 1.0 / n))
    return float(max(d_plus, d_minus))


def cdf_pdf_fd_gap(dist, n_points: int = 1000) -> float:
    """Worst relative gap between a central difference of the CDF and the PDF.

    Checks n_points interior points spread at equal probability spacing,
    skipping neighborhoods of width 1e-6 * D^2 around each breakpoint.
    The step is proportional to the distance from the nearest breakpoint,
    which keeps both the truncation error (the PDF's curvature blows up at
    the support edges) and float cancellation below the 1e-5 target.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    brk = np.asarray(dist.breakpoints, dtype=float)
    lo, hi = brk[0], brk[-1]
    w = 1e-6 * dist.side_length ** 2
    qlo = float(dist.cdf(lo + w))
    qhi = float(dist.cdf(hi - w))
    q = qlo + (np.arange(n_points) + 0.5) / n_points * (qhi - qlo)
    u = np.asarray(dist.quantile(q), dtype=float)
    for b in brk:
        inside = np.abs(u - b) <= w
        u = np.where(inside, b + np.where(u >= b, 1.0001 * w, -1.0001 * w), u)
    gap = np.min(np.abs(u[:, None] - brk[None, :]), axis=1)
    h = 2e-3 * gap
    fd = (dist.cdf(u + h) - dist.cdf(u - h)) / (2.0 * h)
    f = np.asarray(dist.pdf(u), dtype=float)
    return float(np.max(np.abs(fd - f) / f))
