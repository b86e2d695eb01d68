"""Tanh-sinh (double-exponential) quadrature over [0, 1].

The n-node rule is the midpoint rule in t on [-4, T] with step
h = (4 + T)/n, pushed onto (0, 1) by x = 1/(1 + exp(-pi sinh t)); the
map's derivative dx/dt = pi cosh t / (4 cosh^2((pi/2) sinh t)) is folded
into the weights, so sum(w * f(x)) approximates the plain integral of f
over [0, 1] (Takahasi & Mori 1974; Mori & Sugihara 2001).  The mapped
integrand decays double-exponentially at both ends, so an f analytic
inside the interval converges exponentially in n, algebraic endpoint
singularities included.  Kinks inside an interval are not smoothed;
callers split their intervals there.

The contract is one-sided.  The left end t = -4 reaches x ~ 1e-37, deep
enough for an integrable singularity at x = 0 such as x^-1/2.  The right
end T = asinh(53 ln 2 / pi) stops where 1 - x would round to 0, so the
rule leaves out the last ~2^-53 of the interval: f must be bounded there.
Every node lies strictly inside (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_T_LEFT = -4.0
_T_RIGHT = math.asinh(53.0 * math.log(2.0) / math.pi)  # exp(-pi sinh T) = 2^-53


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size


def make_rule(n: int) -> QuadratureRule:
    """n-node tanh-sinh rule; nodes lie strictly inside (0, 1), weights are positive."""
    if n < 1:
        raise ValueError("node count must be >= 1")
    h = (_T_RIGHT - _T_LEFT) / n
    t = _T_LEFT + (np.arange(n) + 0.5) * h
    s = np.pi * np.sinh(t)
    nodes = 1.0 / (1.0 + np.exp(-s))
    weights = h * np.pi * np.cosh(t) / (4.0 * np.cosh(0.5 * s) ** 2)
    for a in (nodes, weights):
        a.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


def integrate(rule: QuadratureRule, values):
    """sum(w_i * f(x_i)), the integral of f over [0, 1], from f's values at the nodes.

    values, a writeable float array that the caller owns and then drops,
    is (n,) or an (m, n) block of m integrands giving (m,) row sums; it is
    weighted in place.  The summation order is fixed (numpy pairwise along
    the contiguous node axis), so each row sum is bit-identical to the 1-D
    call on that row, whatever the row count or the caller's threading.

    The weights are positive, so a row sum is finite only if each of its
    values is; a non-finite sum names the first non-finite value's row and
    node, or the row whose weighted sum of finite values overflowed.
    """
    values *= rule.weights
    with np.errstate(over="ignore", invalid="ignore"):  # named below instead
        sums = np.sum(values, axis=-1)
    if not np.all(np.isfinite(sums)):
        bad = ~np.isfinite(values)
        if np.any(bad):
            *row, i = np.unravel_index(np.argmax(bad), values.shape)
            where = f"row {row[0]}, node {i}" if row else f"node {i}"
            raise ValueError(f"integrand not finite at {where} ({rule.nodes[i]!r}: "
                             f"value {values[(*row, i)]!r})")
        where = f" at row {np.argmax(~np.isfinite(sums))}" if sums.ndim else ""
        raise ValueError(f"weighted sum of finite integrand values overflowed{where}")
    return sums if sums.ndim else float(sums)
