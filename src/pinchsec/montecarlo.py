"""Seeded Monte Carlo estimates of the exact-model SOP and ESC.

Unlike the analytical bounds, every trial applies the exact guided loss
exp(-2*alpha*(x1 + D/2)) for the sampled Bob position.  The PA and the
fixed-antenna (FA) baseline are evaluated on the same positions (common
random numbers), which depend neither on the power nor on the estimator.

Trials are split into fixed-size chunks, which all draw from one
PCG64(seed) stream: chunk k from its (4*chunk_size*k)-th double on.
Each chunk's sums are reduced alone and added up in chunk order, so
estimates are bit-identical for a given (seed, trials, chunk_size) at any
worker count, and a power's estimate has the same bits in any grid.

`_mc_sweep` is the engine, over one channel and an array of transmit
powers.  Its kernels form the rho-free terms of `model._secrecy_ratio`
from the positions (`_pa_geometry`, `_fa_geometry`); its pool runs
`_slabs` of chunks through `_in_order`.  `pa_secrecy_rate` and
`fa_secrecy_rate` evaluate the same ratio at given positions, and the
`mc_*` functions are the engine's single-power, single-kernel views.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import operator
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .diststats import _draw_positions
# los_rate is imported for bench/tracer.py, which patches pinchsec.montecarlo.los_rate
from .model import (_HALF_LOG2E, ChannelParams, Scenario, SecrecyTarget,  # noqa: F401
                    _secrecy_ratio, _tx_powers, los_rate)

_SLAB_TRIALS = 24576  # trials per pool task (six default chunks), a quarter of a block of ratios
_CERTAIN_MARGIN = 1e-12  # the certain-outage test's relative headroom over the rounding of t
_ALIGN = 64  # bytes: the start of each worker's workspace, a cache line and an AVX-512 register


@dataclass(frozen=True)
class McConfig:
    trials: int = 50000
    seed: int = 12345
    chunk_size: int = 4096

    def __post_init__(self):
        for name in ("trials", "seed", "chunk_size"):
            try:  # numpy integers become ints, whose products (4*chunk_size*k) cannot wrap
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if self.trials < 100:
            raise ValueError("trials must be >= 100")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    trials: int


def _power_unit(scenario: Scenario, chan: ChannelParams) -> float:
    """The power of two in which S, Nb and Nw are measured: near sqrt(Nb*Nw) at the room's scale.

    Scaling all three by one power of two changes no bit of t.  It keeps
    Nb and Nw of the order of z/(d^2 + D^2/4), and so 1/Nb, 1/Nw, p and q
    inside the float range at any noise variance, where in the noise
    powers' own units q = loss/Nw overflows below sigma^2 ~ 1e-308 and
    goes subnormal above sigma^2 ~ 1e306.
    """
    scale = scenario.waveguide_height ** 2 + scenario.side_length ** 2 / 4.0
    exponent = (math.frexp(scale * chan.noise_bob)[1] + math.frexp(scale * chan.noise_willie)[1])
    return math.ldexp(1.0, exponent // 2 - 1)


def _noise_power(out, scale, d2, u, v=None, scratch=None):
    """((u^2 + v^2) + d^2)*scale, a noise power in `_power_unit`, written into `out`.

    v^2 is formed in `scratch`; without v the sum is u^2 + d^2.
    """
    np.multiply(u, u, out=out)
    if v is not None:
        out += np.multiply(v, v, out=scratch)
    out += d2
    out *= scale
    return out


def _ratio_terms(noise_w, q, noise_b, loss=1.0):
    """_secrecy_ratio's (p, q), with p as (Nw - Nb)*q/Nb: q into `q`, p over the Willie row."""
    np.divide(loss, noise_w, out=q)
    noise_w -= noise_b
    noise_w *= q
    noise_w /= noise_b
    return noise_w, q


def _pa_geometry(scenario: Scenario, chan: ChannelParams, x1, x2, y1, y2, out):
    """The PA's (p, q): both links pay the guided loss of the travel x1 + D/2.

    Written into the first two of `out`'s three arrays of the positions'
    shape, 0-d at scalar positions; Bob's noise power takes the third,
    which may be x2 itself: x2 is not read once Willie's is formed.
    """
    noise_w, loss, noise_b = out
    d2, unit = scenario.waveguide_height ** 2, _power_unit(scenario, chan)
    _noise_power(noise_w, chan.noise_willie / unit, d2, np.subtract(x1, x2, out=noise_w), y2,
                 loss)
    _noise_power(noise_b, chan.noise_bob / unit, d2, y1)
    np.add(x1, scenario.side_length / 2.0, out=loss)
    loss *= -2.0 * chan.attenuation
    return _ratio_terms(noise_w, loss, noise_b, np.exp(loss, out=loss))


def _fa_geometry(scenario: Scenario, chan: ChannelParams, x1, x2, y1, y2, out):
    """The same for the fixed antenna at (0, 0, d), which has no guided loss (loss = 1)."""
    noise_w, scratch, noise_b = out
    d2, unit = scenario.waveguide_height ** 2, _power_unit(scenario, chan)
    _noise_power(noise_w, chan.noise_willie / unit, d2, x2, y2, scratch)
    _noise_power(noise_b, chan.noise_bob / unit, d2, x1, y1, scratch)
    return _ratio_terms(noise_w, scratch, noise_b)


def _inverse_gains(scenario: Scenario, chan: ChannelParams, tx_powers) -> np.ndarray:
    """r = 1/(eta*P) of each power, in `_power_unit`: +inf where eta*P underflows, 0 at P = inf."""
    with np.errstate(divide="ignore", over="ignore"):
        return _power_unit(scenario, chan) / (chan.eta * _tx_powers(tx_powers))


def _certain_outage(scenario: Scenario, chan: ChannelParams, inverse_gains, below) -> np.ndarray:
    """Where eta*P/(d^2*sigma_b^2)*(1 + _CERTAIN_MARGIN) < 4^Rbar - 1 (`below`), of each r.

    Since loss <= 1 and Nb >= d^2*sigma_b^2, every trial of either system
    has t < S/Nb <= eta*P/(d^2*sigma_b^2), so there every trial is in
    outage: a chunk's count is its size, with no comparison of t, while
    its log1p sums are formed as at any other power.  Never at Rbar = 0,
    nor at r = 0 (P = inf).
    """
    floor = scenario.waveguide_height ** 2 * (chan.noise_bob / _power_unit(scenario, chan))
    with np.errstate(divide="ignore", over="ignore"):
        gains = 1.0 / (inverse_gains * floor)
    return gains * (1.0 + _CERTAIN_MARGIN) < below


def _secrecy_rate(geometry, scenario: Scenario, chan: ChannelParams, tx_power, *positions):
    """Rb - Rw (bits/s/Hz) at tx_power, from `geometry` at the broadcast positions."""
    r = _inverse_gains(scenario, chan, [tx_power])[0]
    if r == 0:  # rho = inf: the loss-free limit, as in _mc_sweep
        chan = dataclasses.replace(chan, attenuation=0.0)
    positions = np.broadcast_arrays(*positions)
    out = np.empty((3,) + positions[0].shape)
    t = _secrecy_ratio(r, *geometry(scenario, chan, *positions, [out[k, ...] for k in range(3)]))
    return np.log1p(t) * _HALF_LOG2E


def pa_secrecy_rate(scenario: Scenario, chan: ChannelParams, tx_power: float, x1, x2, y1, y2):
    """Exact secrecy rate Rb - Rw with the radiator pinned above Bob at (x1, 0, d).

    Bob stands at (x1, y1), Willie at (x2, y2); both links pay the guided
    loss of the travel x1 + D/2 from the feed.  Vectorized over positions;
    scalars work too.  The difference may be negative.
    """
    return _secrecy_rate(_pa_geometry, scenario, chan, tx_power, x1, x2, y1, y2)


def fa_secrecy_rate(scenario: Scenario, chan: ChannelParams, tx_power: float, x1, x2, y1, y2):
    """Secrecy rate Rb - Rw from the fixed antenna at (0, 0, d); no guided loss."""
    return _secrecy_rate(_fa_geometry, scenario, chan, tx_power, x1, x2, y1, y2)


def _slabs(cfg: McConfig) -> list:
    """The pool's tasks (first chunk, chunks, chunk size): runs of full chunks, then the ragged one.

    A run holds at most _SLAB_TRIALS trials, or one chunk where a chunk is
    larger.  The tasks are slabs, not chunks, because every numpy call
    releases the GIL and takes it back: with two threads each of those
    handoffs can wait on the other thread, and a slab makes its ~50 calls,
    so as many handoffs, at any width.  On 2 CPUs a two-thread pass of
    10^6 trials at 5 powers made ~420 voluntary context switches in slabs
    of six default chunks, ~750 in slabs of four.
    """
    full, rest = divmod(cfg.trials, cfg.chunk_size)
    per_slab = max(1, _SLAB_TRIALS // cfg.chunk_size)
    slabs = [(k, min(per_slab, full - k), cfg.chunk_size) for k in range(0, full, per_slab)]
    return slabs + [(full, 1, rest)] if rest else slabs


def _in_order(fn, tasks, workers: int):
    """fn(task) of each task, in the tasks' order.

    At one worker in the calling thread; otherwise on a pool of `workers`
    threads, which holds at most 2*workers tasks handed out and not yet
    taken back.
    """
    if workers == 1:
        yield from map(fn, tasks)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        window = collections.deque()
        for task in tasks:
            if len(window) == 2 * workers:
                yield window.popleft().result()
            window.append(pool.submit(fn, task))
        while window:
            yield window.popleft().result()


def _mc_sweep(scenario: Scenario, chan: ChannelParams, tx_powers, target: SecrecyTarget,
              cfg: McConfig, workers: int = 1, kernels=(_pa_geometry, _fa_geometry)
              ) -> np.ndarray:
    """(sop, esc) x (mean, std_error) of each kernel at each of tx_powers.

    An array of shape (powers, kernels, 2, 2); with the default kernels a
    power's rows are PA, then FA.  A slab's positions come in one fill of
    its (chunks, 4, size) block, since that chunk-major layout is the
    stream's order, and each kernel forms its (p, q) from them once, over
    the whole slab.  For each block of powers the ratios t across the slab
    are reduced per power and chunk to an outage count, a sum of log1p(t)
    and a sum of its squares, which are folded into one total in chunk
    order as each slab arrives and scaled by 1/(2 ln 2) once.  The means
    and standard errors are formed on arrays, whose divide, multiply and
    sqrt round as Python's do.
    """
    inverse_gains = _inverse_gains(scenario, chan, tx_powers)
    # rho = inf (r = 0) takes t = (Nw - Nb)/Nb from the loss-free geometry: the loss cancels
    # from the limit, and the PA's underflows to 0 beyond alpha*(x1 + D/2) ~ 372 (p/q = 0/0).
    limit = inverse_gains == 0
    if limit.any():
        if not limit.all():  # one pass per kind of row, each writing its own rows
            powers, sweep = _tx_powers(tx_powers), np.empty((limit.size, len(kernels), 2, 2))
            for kind in (~limit, limit):
                sweep[kind] = _mc_sweep(scenario, chan, powers[kind], target, cfg, workers,
                                        kernels)
            return sweep
        chan = dataclasses.replace(chan, attenuation=0.0)
    inverse_gains = inverse_gains[:, None, None]
    below = target.threshold_minus_one  # Rb - Rw < Rbar exactly where t < 4^Rbar - 1
    certain = _certain_outage(scenario, chan, inverse_gains[:, 0, 0], below)
    slabs = _slabs(cfg)
    width_max = max(n * size for _, n, size in slabs)
    rows = len(inverse_gains)
    step = max(1, 4 * _SLAB_TRIALS // width_max)  # rows per block: four rows of a full slab,
    if rows * width_max <= 5 * _SLAB_TRIALS:  # or the whole grid where it fits in five
        step = max(1, rows)
    # blocks (rows, tested): `tested` spans, from the block's first row, every row whose
    # outage is not certain
    blocks = []
    for lo in range(0, rows, step):
        uncertain = np.flatnonzero(~certain[lo:lo + step])
        blocks.append((slice(lo, lo + step), slice(uncertain[0], uncertain[-1] + 1)
                       if uncertain.size else slice(0, 0)))
    rows_max = max(1, min(step, rows))
    front = max(4, rows_max) * width_max  # the positions, then a block of ratios over them
    floats = front + 2 * len(kernels) * width_max  # then each kernel's p and q
    local = threading.local()  # this call's workspace of each worker thread

    def workspace(n_chunks: int, size: int):
        """(positions, terms, ratios, mask) for a slab of n_chunks chunks: views of one buffer.

        One buffer per worker thread and call: max(4, rows) widths of
        floats plus 2 per kernel, then a byte mask (9 widths at 5 rows and
        2 kernels, 1.7 MiB at a full slab).  The positions, chunk by chunk,
        come first, and a block of ratios takes the same floats, which are
        free once every kernel's (p, q) is formed; then p and q of each
        kernel as (chunks, size) rows.  No block or slab allocates an array
        of trials, which at the default chunk (128 KiB, glibc's mmap
        threshold) were page-faulted afresh every block.  The buffer starts
        on an _ALIGN-byte boundary (np.empty promises 16), so at chunk
        sizes that are multiples of 8 every row of it does: numpy's SIMD
        loops run about twice as fast on such rows as on rows 16 bytes off.
        """
        if not hasattr(local, "buffer"):
            nbytes = 8 * floats + rows_max * width_max
            raw = np.empty(nbytes + _ALIGN, np.uint8)
            start = -raw.ctypes.data % _ALIGN
            local.buffer = raw[start:start + nbytes]
        values, width = local.buffer[:8 * floats].view(float), n_chunks * size
        terms = values[front:front + 2 * len(kernels) * width]
        return (values[:4 * width].reshape(n_chunks, 4, size),
                terms.reshape(len(kernels), 2, n_chunks, size),
                values[:front], local.buffer[8 * floats:].view(bool))

    def slab_sums(task):
        """(chunks, powers, kernels, 3): each chunk's outage count, sum and sum of squares."""
        (_, n_chunks, size), rng = task
        positions, terms, ratios, mask = workspace(n_chunks, size)
        _draw_positions(rng, scenario.side_length, n_chunks * size, positions)
        x1, x2, y1, y2 = positions.swapaxes(0, 1)
        # Bob's noise power takes the next kernel's p row, free until it runs; the last's, x2
        for j, geometry in enumerate(kernels):
            noise_b = terms[j + 1, 0] if j + 1 < len(kernels) else x2
            geometry(scenario, chan, x1, x2, y1, y2, (*terms[j], noise_b))
        # an outage count never exceeds the chunk's size: a byte sum in 16 bits is exact below 2^16
        count_type = np.uint16 if size < 2 ** 16 else np.intp
        sums = np.empty((n_chunks, rows, len(kernels), 3))
        for j, (p, q) in enumerate(terms):
            for block, span in blocks:
                r = inverse_gains[block]
                # a C-contiguous (rows, chunks, size) block: each chunk is reduced on its own
                ts = _secrecy_ratio(r, p, q, ratios[:r.size * p.size].reshape(len(r), *p.shape))
                counts = sums[:, block, j, 0]
                counts[...] = size  # where outage is certain; the tested span overwrites it
                if span.start < span.stop:
                    part = ts[span]
                    outage = np.less(part, below, out=mask[:part.size].reshape(part.shape))
                    np.add.reduce(outage, axis=-1, dtype=count_type, out=counts[:, span].T)
                np.add.reduce(np.log1p(ts, out=ts), axis=-1, out=sums[:, block, j, 1].T)
                np.add.reduce(np.square(ts, out=ts), axis=-1, out=sums[:, block, j, 2].T)
        return sums

    # made in the calling thread as each slab is handed out: chunk k's positions start at
    # double 4*chunk_size*k
    tasks = ((slab, np.random.Generator(
        np.random.PCG64(cfg.seed).advance(4 * cfg.chunk_size * slab[0]))) for slab in slabs)
    total = np.zeros((rows, len(kernels), 3))
    for sums in _in_order(slab_sums, tasks, workers):
        for chunk in sums:  # in chunk order, as each slab arrives
            total += chunk
    count, s, s2 = np.moveaxis(total, -1, 0)
    s, s2 = s * _HALF_LOG2E, s2 * (_HALF_LOG2E * _HALF_LOG2E)
    n = cfg.trials
    p = count / n
    var = np.maximum((s2 - s * s / n) / (n - 1), 0.0)
    return np.stack([np.stack([p, np.sqrt(p * (1.0 - p) / n)], -1),
                     np.stack([s / n, np.sqrt(var / n)], -1)], -2)


def _estimate(scenario: Scenario, chan: ChannelParams, tx_power: float, target: SecrecyTarget,
              cfg: McConfig, workers: int, kernel, metric: int) -> McEstimate:
    """`kernel`'s sop (metric 0) or esc (metric 1) estimate at tx_power."""
    mean, std_error = _mc_sweep(scenario, chan, [tx_power], target, cfg, workers,
                                (kernel,))[0, 0, metric].tolist()
    return McEstimate(mean=mean, std_error=std_error, trials=cfg.trials)


def mc_sop_pa(scenario: Scenario, chan: ChannelParams, tx_power: float, target: SecrecyTarget,
              cfg: McConfig, workers: int = 1) -> McEstimate:
    """Fraction of placements whose exact secrecy rate falls below the target."""
    return _estimate(scenario, chan, tx_power, target, cfg, workers, _pa_geometry, 0)


def mc_esc_pa(scenario: Scenario, chan: ChannelParams, tx_power: float,
              cfg: McConfig, workers: int = 1) -> McEstimate:
    """Sample mean of the exact secrecy rate over random placements."""
    return _estimate(scenario, chan, tx_power, SecrecyTarget(), cfg, workers, _pa_geometry, 1)


def mc_sop_fa(scenario: Scenario, chan: ChannelParams, tx_power: float, target: SecrecyTarget,
              cfg: McConfig, workers: int = 1) -> McEstimate:
    """Outage of the fixed-antenna baseline on the same position stream."""
    return _estimate(scenario, chan, tx_power, target, cfg, workers, _fa_geometry, 0)


def mc_esc_fa(scenario: Scenario, chan: ChannelParams, tx_power: float,
              cfg: McConfig, workers: int = 1) -> McEstimate:
    """Sample mean of the fixed-antenna baseline's secrecy rate on the same position stream."""
    return _estimate(scenario, chan, tx_power, SecrecyTarget(), cfg, workers, _fa_geometry, 1)
