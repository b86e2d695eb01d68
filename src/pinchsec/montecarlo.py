"""Seeded Monte Carlo estimates of the exact-model SOP and ESC.

Unlike the analytical bounds, every trial applies the exact guided loss
exp(-2*alpha*(x1 + D/2)) for the sampled Bob position.  Trials are split
into fixed-size chunks; chunk k draws from a child stream spawned from
(seed, k) and partial results are reduced in chunk order, so estimates
are bit-identical for a given (seed, trials, chunk_size) at any worker
count.  The positions depend neither on rho nor on the estimator, so
`_mc_sweep`, over one channel and an array of transmit powers, draws each
chunk once and forms each requested kernel's (PA, FA or both) rho-free
geometry from it once: the guided loss and the noise powers z*sigma^2.
It evaluates the rates of a block of powers at a time, with eta*P as a
column, in los_rate's operation order, so each estimate has the bits of
a one-point-at-a-time evaluation; PA and FA see common random numbers.
Each worker thread writes a block's rates, outage mask and squared rates
into C-contiguous views of one workspace, made once per `_mc_sweep` call,
by the same operations in the same order (divide, log1p, scale,
subtract): the bits are unchanged, and no block allocates temporaries,
which at the default chunk (128 KiB, glibc's mmap threshold) were
page-faulted afresh every block.  The means and standard errors are
formed on arrays, whose divide, multiply and sqrt round as Python's do.
The public `mc_*` functions are its single-power, single-kernel views.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bounds import _BLOCK_ELEMENTS
from .diststats import _draw_positions
# los_rate is imported for bench/tracer.py, which patches pinchsec.montecarlo.los_rate
from .model import (ChannelParams, Scenario, SecrecyTarget, _link_rate, _tx_powers,  # noqa: F401
                    los_rate)


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


def _pa_geometry(scenario: Scenario, chan: ChannelParams, x1, x2, y1, y2):
    """The rho-free part of the PA rates: (guided loss, Bob's and Willie's z*sigma^2)."""
    d2 = scenario.waveguide_height ** 2
    loss = np.exp(-2.0 * chan.attenuation * (x1 + scenario.side_length / 2.0))
    zb = y1 ** 2 + d2
    zw = (x1 - x2) ** 2 + y2 ** 2 + d2
    return loss, zb * chan.noise_bob, zw * chan.noise_willie


def _fa_geometry(scenario: Scenario, chan: ChannelParams, x1, x2, y1, y2):
    """The same for the fixed antenna at (0, 0, d), which has no guided loss."""
    d2 = scenario.waveguide_height ** 2
    zb = x1 ** 2 + y1 ** 2 + d2
    zw = x2 ** 2 + y2 ** 2 + d2
    return 1.0, zb * chan.noise_bob, zw * chan.noise_willie


def _secrecy_rates(gain, loss, noise_b, noise_w, out=None):
    """Rb - Rw at received power gain*loss; gain = eta*P is a number or a (rows, 1) column.

    Given `out`, a pair (rates, scratch) of arrays of the rates' shape, it
    allocates nothing: the signal and then Rw go to scratch, Rb and the
    result to rates, in the allocating call's order and so with its bits.
    """
    rates, scratch = (None, None) if out is None else out
    signal = np.multiply(gain, loss, out=scratch)
    rate_b = _link_rate(signal, noise_b, rates)
    rate_w = _link_rate(signal, noise_w, scratch)
    return np.subtract(rate_b, rate_w, out=rates)


def pa_secrecy_rate(scenario: Scenario, chan: ChannelParams, x1, x2, y1, y2):
    """Exact secrecy rate Rb - Rw with the radiator pinned above Bob at (x1, 0, d).

    Bob stands at (x1, y1), Willie at (x2, y2); both links pay the guided
    loss of the travel x1 + D/2 from the feed.  Vectorized over positions;
    scalars work too.  The difference may be negative.
    """
    return _secrecy_rates(chan.eta * chan.tx_power,
                          *_pa_geometry(scenario, chan, x1, x2, y1, y2))


def fa_secrecy_rate(scenario: Scenario, chan: ChannelParams, x1, x2, y1, y2):
    """Secrecy rate Rb - Rw from the fixed antenna at (0, 0, d); no guided loss."""
    return _secrecy_rates(chan.eta * chan.tx_power,
                          *_fa_geometry(scenario, chan, x1, x2, y1, y2))


def _map_chunks(fn, cfg: McConfig, workers: int) -> list:
    ks = range(cfg.n_chunks)
    if workers <= 1:
        return [fn(k) for k in ks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, ks))


def _mc_sweep(scenario: Scenario, chan: ChannelParams, tx_powers, target: SecrecyTarget,
              cfg: McConfig, workers: int = 1, kernels=(_pa_geometry, _fa_geometry)
              ) -> np.ndarray:
    """(sop, esc) x (mean, std_error) of each kernel at each of tx_powers, from one pass.

    An array of shape (powers, kernels, 2, 2); with the default kernels a
    power's rows are PA, then FA.  chan.tx_power is not used.  Each chunk's
    positions are drawn once, and each kernel forms its rho-free geometry
    from them once.  The rates of a block of powers, at most
    _BLOCK_ELEMENTS rates at once, are then reduced row-wise to an outage
    count (exact in a float), a rate sum and a squared-rate sum per power;
    those are added up in fixed chunk order.
    """
    gains = chan.eta * _tx_powers(tx_powers)[:, None]
    size_max = min(cfg.chunk_size, cfg.trials)
    step = max(1, _BLOCK_ELEMENTS // size_max)
    capacity = min(step, len(gains)) * size_max
    local = threading.local()  # this call's workspace of each worker thread

    def block_views(rows: int, size: int):
        """(rates, scratch, mask) as C-contiguous (rows, size) views of the workspace."""
        if not hasattr(local, "buffers"):
            local.buffers = (np.empty(capacity), np.empty(capacity), np.empty(capacity, bool))
        return tuple(buf[:rows * size].reshape(rows, size) for buf in local.buffers)

    def chunk_sums(k):
        positions = _chunk_positions(scenario, cfg, k)
        sums = np.empty((len(gains), len(kernels), 3))
        for j, geometry in enumerate(kernels):
            loss, noise_b, noise_w = geometry(scenario, chan, *positions)
            for lo in range(0, len(gains), step):
                rows = slice(lo, lo + step)
                gain = gains[rows]
                rs, scratch, mask = block_views(len(gain), len(positions[0]))
                _secrecy_rates(gain, loss, noise_b, noise_w, (rs, scratch))
                sums[rows, j, 0] = np.count_nonzero(np.less(rs, target.rate, out=mask), axis=1)
                sums[rows, j, 1] = np.sum(rs, axis=1)
                sums[rows, j, 2] = np.sum(np.multiply(rs, rs, out=scratch), axis=1)
        return sums

    count, s, s2 = np.moveaxis(sum(_map_chunks(chunk_sums, cfg, workers)), -1, 0)  # chunk order
    n = cfg.trials
    p = count / n
    var = np.maximum((s2 - s * s / n) / (n - 1), 0.0)
    return np.stack([np.stack([p, np.sqrt(p * (1.0 - p) / n)], -1),
                     np.stack([s / n, np.sqrt(var / n)], -1)], -2)


def _estimate(scenario: Scenario, chan: ChannelParams, target: SecrecyTarget, cfg: McConfig,
              workers: int, kernel, metric: int) -> McEstimate:
    """`kernel`'s sop (metric 0) or esc (metric 1) estimate at chan's own tx_power."""
    mean, std_error = _mc_sweep(scenario, chan, [chan.tx_power], target, cfg, workers,
                                (kernel,))[0, 0, metric].tolist()
    return McEstimate(mean=mean, std_error=std_error, trials=cfg.trials)


def mc_sop_pa(scenario: Scenario, chan: ChannelParams, target: SecrecyTarget,
              cfg: McConfig, workers: int = 1) -> McEstimate:
    """Fraction of placements whose exact secrecy rate falls below the target."""
    return _estimate(scenario, chan, target, cfg, workers, _pa_geometry, 0)


def mc_esc_pa(scenario: Scenario, chan: ChannelParams,
              cfg: McConfig, workers: int = 1) -> McEstimate:
    """Sample mean of the exact secrecy rate over random placements."""
    return _estimate(scenario, chan, SecrecyTarget(), cfg, workers, _pa_geometry, 1)


def mc_sop_fa(scenario: Scenario, chan: ChannelParams, target: SecrecyTarget,
              cfg: McConfig, workers: int = 1) -> McEstimate:
    """Outage of the fixed-antenna baseline on the same position stream."""
    return _estimate(scenario, chan, target, cfg, workers, _fa_geometry, 0)


def mc_esc_fa(scenario: Scenario, chan: ChannelParams,
              cfg: McConfig, workers: int = 1) -> McEstimate:
    return _estimate(scenario, chan, SecrecyTarget(), cfg, workers, _fa_geometry, 1)
