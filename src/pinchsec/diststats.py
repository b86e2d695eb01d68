"""Distributions of the squared radiator-to-user distances.

With users dropped uniformly on the room floor and the radiator pinned at
Bob's x coordinate, the squared distance to Bob is Zb = y1^2 + d^2 and the
squared distance to Willie is Zw = (x1 - x2)^2 + y2^2 + d^2.  Both admit
closed-form piecewise PDFs/CDFs, implemented here together with exact
geometric samplers and goodness-of-fit utilities.  ZwDistribution also
owns the layout of its three density pieces (`pieces`), over which the
bounds integrate branch by branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Floor for z - d^2 so the Zb density stays finite at the support start.
# Quadrature nodes and test grids never evaluate there; the returned
# sentinel is merely a large finite stand-in for the integrable pole.
_U_FLOOR = 1e-300


@dataclass(frozen=True)
class ZbDistribution:
    """Squared distance to Bob: support [d^2, d^2 + D^2/4].

    pdf(z) = 1 / (D * sqrt(z - d^2)) inside the support, 0 outside;
    cdf(z) = (2/D) * sqrt(z - d^2), clamped to [0, 1].
    """

    side_length: float = 25.0
    height: float = 3.0

    def __post_init__(self):
        if not (self.side_length > 0 and self.height > 0):
            raise ValueError("side_length and height must be > 0")

    @property
    def support(self) -> tuple[float, float]:
        d2 = self.height ** 2
        return (d2, d2 + self.side_length ** 2 / 4.0)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self.support

    def pdf(self, z):
        z = np.asarray(z, dtype=float)
        lo, hi = self.support
        u = np.maximum(z - lo, _U_FLOOR)
        inside = (z >= lo) & (z <= hi)
        return np.where(inside, 1.0 / (self.side_length * np.sqrt(u)), 0.0)

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        lo, hi = self.support
        u = np.clip(z - lo, 0.0, hi - lo)
        return (2.0 / self.side_length) * np.sqrt(u)

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise ValueError("quantile argument must lie in [0, 1]")
        return self.height ** 2 + (self.side_length * q / 2.0) ** 2

    def sample(self, rng: np.random.Generator, n: int):
        """n exact draws via the underlying uniform placement."""
        x1, x2, y1, y2 = _draw_positions(rng, self.side_length, n)
        return y1 ** 2 + self.height ** 2


@dataclass(frozen=True)
class ZwDistribution:
    """Squared distance to Willie: support [d^2, d^2 + 5 D^2/4].

    Three pieces in zeta = z - d^2 with breakpoints at D^2/4 and D^2.
    The first piece comes from the triangular density of x1 - x2 folded
    with y2^2; the upper pieces pick up circular-segment corrections.
    """

    side_length: float = 25.0
    height: float = 3.0

    def __post_init__(self):
        if not (self.side_length > 0 and self.height > 0):
            raise ValueError("side_length and height must be > 0")

    @property
    def support(self) -> tuple[float, float]:
        d2 = self.height ** 2
        return (d2, d2 + 1.25 * self.side_length ** 2)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        d2 = self.height ** 2
        D2 = self.side_length ** 2
        return (d2, d2 + 0.25 * D2, d2 + D2, d2 + 1.25 * D2)

    @property
    def pieces(self) -> tuple[tuple[float, float], ...]:
        """(start, width) of the piece of each density branch, in branch order.

        The widths D^2/4, 3 D^2/4 and D^2/4 are exact, so they add up to the
        support width even where d^2 dwarfs D^2.
        """
        b0, b1, b2, _ = self.breakpoints
        D2 = self.side_length ** 2
        return ((b0, 0.25 * D2), (b1, 0.75 * D2), (b2, 0.25 * D2))

    # -- per-piece densities (no support masking; trig arguments clamped
    #    so breakpoint evaluations sitting on domain edges stay finite) --

    def pdf_piece1(self, z):
        D = self.side_length
        u = np.maximum(np.asarray(z, dtype=float) - self.height ** 2, 0.0)
        return np.pi / D ** 2 - 2.0 * np.sqrt(u) / D ** 3

    def pdf_piece2(self, z):
        D = self.side_length
        u = np.maximum(np.asarray(z, dtype=float) - self.height ** 2, _U_FLOOR)
        a = np.clip(D / (2.0 * np.sqrt(u)), -1.0, 1.0)
        return (2.0 / D ** 2) * np.arcsin(a) - 1.0 / D ** 2

    def pdf_piece3(self, z):
        D = self.side_length
        u = np.maximum(np.asarray(z, dtype=float) - self.height ** 2, _U_FLOOR)
        a1 = np.clip(D / (2.0 * np.sqrt(u)), -1.0, 1.0)
        a2 = np.clip(np.sqrt(np.maximum(1.0 - D ** 2 / u, 0.0)), -1.0, 1.0)
        return ((2.0 / D ** 2) * (np.arcsin(a1) - np.arcsin(a2))
                - 1.0 / D ** 2
                + (2.0 / D ** 3) * np.sqrt(np.maximum(u - D ** 2, 0.0)))

    def pdf(self, z):
        z = np.asarray(z, dtype=float)
        b0, b1, b2, b3 = self.breakpoints
        out = np.zeros(np.broadcast(z).shape)
        m1 = (z >= b0) & (z < b1)
        m2 = (z >= b1) & (z < b2)
        m3 = (z >= b2) & (z <= b3)
        out = np.where(m1, self.pdf_piece1(z), out)
        out = np.where(m2, self.pdf_piece2(z), out)
        out = np.where(m3, self.pdf_piece3(z), out)
        return out

    # -- per-piece CDFs --

    def cdf_piece1(self, z):
        D = self.side_length
        u = np.maximum(np.asarray(z, dtype=float) - self.height ** 2, 0.0)
        return np.pi * u / D ** 2 - (4.0 / 3.0) * u ** 1.5 / D ** 3

    def cdf_piece2(self, z):
        D = self.side_length
        u = np.maximum(np.asarray(z, dtype=float) - self.height ** 2, _U_FLOOR)
        a = np.clip(D / (2.0 * np.sqrt(u)), -1.0, 1.0)
        return (np.sqrt(np.maximum(u - D ** 2 / 4.0, 0.0)) / D
                + (2.0 * u / D ** 2) * np.arcsin(a)
                - u / D ** 2 + 1.0 / 12.0)

    def cdf_piece3(self, z):
        D = self.side_length
        u = np.maximum(np.asarray(z, dtype=float) - self.height ** 2, _U_FLOOR)
        r = np.sqrt(np.maximum(u - D ** 2 / 4.0, _U_FLOOR))
        s = np.sqrt(np.maximum(u - D ** 2, 0.0))
        return (r / D
                + (2.0 * u / D ** 2) * (np.arctan(D / (2.0 * r)) - np.arctan(s / D))
                - u / D ** 2 + 1.0 / 12.0
                + (2.0 / (3.0 * D ** 3)) * s * (2.0 * u + D ** 2))

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        b0, b1, b2, b3 = self.breakpoints
        out = np.zeros(np.broadcast(z).shape)
        m1 = (z >= b0) & (z < b1)
        m2 = (z >= b1) & (z < b2)
        m3 = (z >= b2) & (z < b3)
        out = np.where(m1, self.cdf_piece1(z), out)
        out = np.where(m2, self.cdf_piece2(z), out)
        out = np.where(m3, self.cdf_piece3(z), out)
        return np.where(z >= b3, 1.0, out)

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
        return (x1 - x2) ** 2 + y2 ** 2 + self.height ** 2


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
    z = np.asarray(dist.quantile(q), dtype=float)
    for b in brk:
        inside = np.abs(z - b) <= w
        z = np.where(inside, b + np.where(z >= b, 1.0001 * w, -1.0001 * w), z)
    gap = np.min(np.abs(z[:, None] - brk[None, :]), axis=1)
    h = 2e-3 * gap
    fd = (dist.cdf(z + h) - dist.cdf(z - h)) / (2.0 * h)
    f = np.asarray(dist.pdf(z), dtype=float)
    return float(np.max(np.abs(fd - f) / f))
