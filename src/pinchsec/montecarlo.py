"""Seeded Monte Carlo estimates of the exact-model SOP and ESC.

Unlike the analytical bounds, every trial applies the exact guided loss
exp(-2*alpha*(x1 + D/2)) for the sampled Bob position.  Trials are split
into fixed-size chunks; chunk k draws from a child stream spawned from
(seed, k) and partial results are reduced in chunk order, so estimates
are bit-identical for a given (seed, trials, chunk_size) at any worker
count.  The positions depend neither on rho nor on the estimator, so
`_mc_sweep` draws each chunk once and evaluates the outage and the mean
of each requested rate kernel (PA, FA or both) at every grid point from
it (paired PA-vs-FA comparisons are thus common random numbers); the
public `mc_*` functions are its single-channel, single-kernel views.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .diststats import _draw_positions
from .model import ChannelParams, Scenario, SecrecyTarget, los_rate


@dataclass(frozen=True)
class McConfig:
    trials: int = 50000
    seed: int = 12345
    chunk_size: int = 4096

    def __post_init__(self):
        if self.trials < 100:
            raise ValueError("trials must be >= 100")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must fit in 64 bits")

    @property
    def n_chunks(self) -> int:
        return (self.trials + self.chunk_size - 1) // self.chunk_size


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    trials: int


def _chunk_positions(scenario: Scenario, cfg: McConfig, k: int):
    size = min(cfg.chunk_size, cfg.trials - k * cfg.chunk_size)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(k,)))
    return _draw_positions(rng, scenario.side_length, size)


def pa_secrecy_rate(scenario: Scenario, chan: ChannelParams, x1, x2, y1, y2):
    """Exact secrecy rate Rb - Rw with the radiator pinned above Bob at (x1, 0, d).

    Bob stands at (x1, y1), Willie at (x2, y2); both links pay the guided
    loss of the travel x1 + D/2 from the feed.  Vectorized over positions;
    scalars work too.  The difference may be negative.
    """
    d2 = scenario.waveguide_height ** 2
    guided = x1 + scenario.side_length / 2.0
    zb = y1 ** 2 + d2
    zw = (x1 - x2) ** 2 + y2 ** 2 + d2
    return (los_rate(zb, chan, chan.noise_bob, guided)
            - los_rate(zw, chan, chan.noise_willie, guided))


def fa_secrecy_rate(scenario: Scenario, chan: ChannelParams, x1, x2, y1, y2):
    """Secrecy rate Rb - Rw from the fixed antenna at (0, 0, d); no guided loss."""
    d2 = scenario.waveguide_height ** 2
    zb = x1 ** 2 + y1 ** 2 + d2
    zw = x2 ** 2 + y2 ** 2 + d2
    return (los_rate(zb, chan, chan.noise_bob)
            - los_rate(zw, chan, chan.noise_willie))


def _map_chunks(fn, cfg: McConfig, workers: int) -> list:
    ks = range(cfg.n_chunks)
    if workers <= 1:
        return [fn(k) for k in ks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, ks))


def _mc_sweep(scenario: Scenario, chans, target: SecrecyTarget, cfg: McConfig,
              workers: int = 1, kernels=(pa_secrecy_rate, fa_secrecy_rate)
              ) -> list[tuple[McEstimate, ...]]:
    """(sop, esc) of each kernel, in kernel order, at every channel, from one pass.

    With the default kernels a channel's tuple is (pa_sop, pa_esc, fa_sop,
    fa_esc).  Each chunk's positions are drawn once and reduced, per
    channel and kernel, to an outage count, a rate sum and a squared-rate
    sum; those scalars are added up in fixed chunk order.
    """
    def chunk_sums(k):
        positions = _chunk_positions(scenario, cfg, k)
        return [(int(np.sum(rs < target.rate)), float(np.sum(rs)), float(np.sum(rs * rs)))
                for chan in chans
                for rs in (kernel(scenario, chan, *positions) for kernel in kernels)]

    totals = [(0, 0.0, 0.0)] * (len(kernels) * len(chans))
    for part in _map_chunks(chunk_sums, cfg, workers):  # fixed chunk order
        totals = [(c + dc, s + ds, s2 + ds2) for (c, s, s2), (dc, ds, ds2) in zip(totals, part)]
    n = cfg.trials
    estimates = []
    for count, s, s2 in totals:
        p = count / n
        var = max((s2 - s * s / n) / (n - 1), 0.0)
        estimates += [McEstimate(mean=p, std_error=math.sqrt(p * (1.0 - p) / n), trials=n),
                      McEstimate(mean=s / n, std_error=math.sqrt(var / n), trials=n)]
    width = 2 * len(kernels)
    return [tuple(estimates[i:i + width]) for i in range(0, len(estimates), width)]


def mc_sop_pa(scenario: Scenario, chan: ChannelParams, target: SecrecyTarget,
              cfg: McConfig, workers: int = 1) -> McEstimate:
    """Fraction of placements whose exact secrecy rate falls below the target."""
    return _mc_sweep(scenario, [chan], target, cfg, workers, (pa_secrecy_rate,))[0][0]


def mc_esc_pa(scenario: Scenario, chan: ChannelParams,
              cfg: McConfig, workers: int = 1) -> McEstimate:
    """Sample mean of the exact secrecy rate over random placements."""
    return _mc_sweep(scenario, [chan], SecrecyTarget(), cfg, workers, (pa_secrecy_rate,))[0][1]


def mc_sop_fa(scenario: Scenario, chan: ChannelParams, target: SecrecyTarget,
              cfg: McConfig, workers: int = 1) -> McEstimate:
    """Outage of the fixed-antenna baseline on the same position stream."""
    return _mc_sweep(scenario, [chan], target, cfg, workers, (fa_secrecy_rate,))[0][0]


def mc_esc_fa(scenario: Scenario, chan: ChannelParams,
              cfg: McConfig, workers: int = 1) -> McEstimate:
    return _mc_sweep(scenario, [chan], SecrecyTarget(), cfg, workers, (fa_secrecy_rate,))[0][1]
