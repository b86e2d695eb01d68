"""Endpoint-smoothed quadrature over [0, 1].

The n-node rule starts from the Chebyshev angles theta_i = (2i-1)pi/(2n),
i.e. the midpoint rule in theta on t = cos(theta) in (-1, 1), and pushes
them through the endpoint-smoothing map x = sin^2(pi (t + 1) / 4) onto
(0, 1) (a sin^m transformation, Sidi 1993).  The map's derivative and
dt = sin(theta) dtheta are folded into the weights, so sum(w * f(x))
approximates the plain integral of f over [0, 1].  The mapped integrand
vanishes to third order at both ends, so a function that is smooth up to
square-root corners at the ends converges at O(n^-4).  Kinks inside an
interval are not smoothed; callers split their intervals there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size


def make_rule(n: int) -> QuadratureRule:
    """n-node endpoint-smoothed rule; nodes lie strictly inside (0, 1).

    The map is evaluated in theta, where 1 + t = 2 cos^2(theta/2) and
    sqrt(1 - t^2) = sin(theta) keep full relative precision near t = -1.
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    theta = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
    phi = 0.5 * np.pi * np.cos(0.5 * theta) ** 2  # pi (t + 1) / 4
    nodes = np.sin(phi) ** 2
    # dx/dt = (pi/4) sin(2 phi), times sqrt(1 - t^2) = sin(theta), times pi/n
    weights = (np.pi / n) * (0.25 * np.pi) * np.sin(2.0 * phi) * np.sin(theta)
    for a in (nodes, weights):
        a.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


def integrate(rule: QuadratureRule, integrand):
    """sum(w_i * f(x_i)), the integral of a vectorized f over [0, 1].

    f maps the (n,) nodes to n values, or to an (m, n) block of m rows, one
    integrand each; a block gives the (m,) row sums.  The summation order
    is fixed (numpy pairwise along the contiguous node axis), so each row
    sum is bit-identical to the 1-D call on that row, whatever the row
    count or the caller's threading.
    """
    values = np.asarray(integrand(rule.nodes), dtype=float)
    values = np.broadcast_to(values, np.broadcast_shapes(values.shape, rule.nodes.shape))
    bad = ~np.isfinite(values)
    if np.any(bad):
        *row, i = np.unravel_index(np.argmax(bad), values.shape)
        where = f"row {row[0]}, node {i}" if row else f"node {i}"
        raise ValueError(f"integrand not finite at {where} ({rule.nodes[i]!r}: "
                         f"value {values[(*row, i)]!r})")
    sums = np.sum(rule.weights * values, axis=-1)
    return sums if sums.ndim else float(sums)
