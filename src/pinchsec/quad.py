"""Chebyshev-Gauss quadrature, its endpoint-smoothed form, and the piece maps.

The n-node rule has nodes t_i = cos((2i-1)pi/(2n)) and equal weights pi/n.
An integrand passed to integrate() together with this rule must already
contain the sqrt(1 - t^2) compensation factor, so that sum(w * g(t))
approximates the plain integral of the underlying function over [-1, 1].

With the compensation the rule is the midpoint rule in theta = arccos(t),
whose error is O(n^-2) as soon as the integrand does not vanish, or has a
square-root corner, at an end of its interval.  Every rule therefore also
carries `smooth`: the same n nodes pushed through the endpoint-smoothing
map x = sin^2(pi (t + 1) / 4) onto (0, 1) (a sin^m transformation, Sidi
1993), with the map's derivative and the compensation folded into the
weights.  sum(w * f(x)) over `smooth` approximates the plain integral of
f over [0, 1], and the mapped integrand vanishes to third order at both
ends, so a function that is smooth up to square-root corners at the ends
converges at O(n^-4).  Kinks inside an interval are not smoothed; callers
split their intervals there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray
    smooth: QuadratureRule | None = None

    @property
    def n(self) -> int:
        return self.nodes.size


def make_rule(n: int) -> QuadratureRule:
    """n-node Chebyshev-Gauss rule; nodes lie strictly inside (-1, 1).

    Its `smooth` rule, computed here once, integrates plain functions over
    [0, 1].  The map is evaluated in theta, where 1 + t = 2 cos^2(theta/2)
    and sqrt(1 - t^2) = sin(theta) keep full relative precision near t = -1.
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    theta = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
    nodes = np.cos(theta)
    weights = np.full(n, np.pi / n)
    phi = 0.5 * np.pi * np.cos(0.5 * theta) ** 2  # pi (t + 1) / 4
    x = np.sin(phi) ** 2
    # dx/dt = (pi/4) sin(2 phi), times sqrt(1 - t^2) = sin(theta), times pi/n
    x_weights = (np.pi / n) * (0.25 * np.pi) * np.sin(2.0 * phi) * np.sin(theta)
    for a in (nodes, weights, x, x_weights):
        a.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights,
                          smooth=QuadratureRule(nodes=x, weights=x_weights))


def integrate(rule: QuadratureRule, integrand) -> float:
    """sum(w_i * g(x_i)) for a vectorized integrand g over the rule's nodes.

    The summation order is fixed (numpy pairwise over the node array), so
    results are bit-stable for a given rule regardless of caller threading.
    """
    values = np.asarray(integrand(rule.nodes), dtype=float)
    values = np.broadcast_to(values, rule.nodes.shape)
    bad = ~np.isfinite(values)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"integrand not finite at node {i} ({rule.nodes[i]!r}: "
                         f"value {values[i]!r})")
    return float(np.sum(rule.weights * values))


@dataclass(frozen=True)
class PieceMap:
    """Affine substitution z = scale * t + offset for one distribution piece."""

    scale: float
    offset: float

    @property
    def z_range(self) -> tuple[float, float]:
        return (self.offset - self.scale, self.offset + self.scale)


def willie_pieces(side_length: float, height: float) -> tuple[PieceMap, PieceMap, PieceMap]:
    """Three pieces covering the Zw support, one per density branch."""
    D2 = side_length ** 2
    d2 = height ** 2
    return (PieceMap(scale=D2 / 8.0, offset=D2 / 8.0 + d2),
            PieceMap(scale=3.0 * D2 / 8.0, offset=5.0 * D2 / 8.0 + d2),
            PieceMap(scale=D2 / 8.0, offset=9.0 * D2 / 8.0 + d2))
