"""Monte Carlo estimator tests.

The chunked seeding protocol (one stream drawn in chunk order, ordered
reduction) is replicated by hand in one test so any change to the draw
layout or the reduction arithmetic is caught exactly, not statistically.
"""

import dataclasses
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import pinchsec as ps
from conftest import chan_at, esc_at, simd_class, sop_at
from pinchsec import montecarlo
from pinchsec.diststats import _draw_positions


def small_cfg(**kw):
    base = dict(trials=2000, seed=4242, chunk_size=512)
    base.update(kw)
    return ps.McConfig(**base)


class TestConfig:
    def test_defaults(self):
        cfg = ps.McConfig()
        assert (cfg.trials, cfg.seed, cfg.chunk_size) == (50000, 12345, 4096)

    def test_validation(self):
        with pytest.raises(ValueError):
            ps.McConfig(trials=99)
        with pytest.raises(ValueError):
            ps.McConfig(chunk_size=0)
        with pytest.raises(ValueError):
            ps.McConfig(seed=-1)
        with pytest.raises(ValueError):
            ps.McConfig(seed=2 ** 64)
        # a count or a seed is an integer, named when it is not
        for name, value in (("trials", 150.5), ("trials", math.nan), ("trials", math.inf),
                            ("trials", 1000.0), ("seed", 7.0), ("chunk_size", 512.5)):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                ps.McConfig(**{name: value})
        cfg = ps.McConfig(trials=np.int64(1000), seed=np.uint64(2 ** 64 - 1),
                          chunk_size=np.int32(512))
        assert [(type(v), v) for v in (cfg.trials, cfg.seed, cfg.chunk_size)] == [
            (int, 1000), (int, 2 ** 64 - 1), (int, 512)]


class TestReproducibility:
    def test_identical_reruns(self, scenario, target):
        chan = chan_at(1e8)
        cfg = small_cfg()
        a = ps.mc_sop_pa(scenario, chan, target, cfg)
        b = ps.mc_sop_pa(scenario, chan, target, cfg)
        assert (a.mean, a.std_error, a.trials) == (b.mean, b.std_error, b.trials)
        c = ps.mc_esc_pa(scenario, chan, cfg)
        d = ps.mc_esc_pa(scenario, chan, cfg)
        assert (c.mean, c.std_error) == (d.mean, d.std_error)

    def test_worker_count_invariance(self, scenario, target):
        chan = chan_at(1e8)
        cfg = small_cfg(trials=5000)
        for fn in (lambda w: ps.mc_sop_pa(scenario, chan, target, cfg, workers=w),
                   lambda w: ps.mc_esc_pa(scenario, chan, cfg, workers=w),
                   lambda w: ps.mc_sop_fa(scenario, chan, target, cfg, workers=w),
                   lambda w: ps.mc_esc_fa(scenario, chan, cfg, workers=w)):
            one, three = fn(1), fn(3)
            assert (one.mean, one.std_error) == (three.mean, three.std_error)

    def test_engine_matches_single_channel_views(self, scenario, target):
        # one pass over a grid that straddles rho* (43.4 dB) gives, at every
        # point, exactly what the four single-channel estimators give
        powers = [10 ** (db / 10.0) for db in (35.0, 43.0, 44.0, 50.0)]
        cfg = small_cfg(trials=3000)
        views = (lambda c, w: ps.mc_sop_pa(scenario, c, target, cfg, workers=w),
                 lambda c, w: ps.mc_esc_pa(scenario, c, cfg, workers=w),
                 lambda c, w: ps.mc_sop_fa(scenario, c, target, cfg, workers=w),
                 lambda c, w: ps.mc_esc_fa(scenario, c, cfg, workers=w))
        for workers in (1, 3):
            grid = montecarlo._mc_sweep(scenario, chan_at(1.0), powers, target, cfg, workers)
            assert grid.shape == (len(powers), 2, 2, 2)
            for power, estimates in zip(powers, grid.reshape(len(powers), 4, 2).tolist()):
                assert estimates == [[est.mean, est.std_error]
                                     for est in (view(chan_at(power), 1) for view in views)]

    def test_views_evaluate_only_their_kernel(self, scenario, target, monkeypatch):
        # a view forms its own kernel's geometry once per slab (2000 trials
        # at chunk 512: three full chunks, then the ragged one), and one
        # block of rates from it; the other kernel is never formed
        calls = {"_pa_geometry": 0, "_fa_geometry": 0, "_secrecy_ratio": 0}

        def counted(name):
            fn = getattr(montecarlo, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(montecarlo, name, counted(name))
        cfg = small_cfg()
        slabs = len(montecarlo._slabs(cfg))
        assert slabs == 2
        ps.mc_sop_pa(scenario, chan_at(1e4), target, cfg)
        assert calls == {"_pa_geometry": slabs, "_fa_geometry": 0, "_secrecy_ratio": slabs}
        ps.mc_esc_fa(scenario, chan_at(1e4), cfg)
        assert calls == {"_pa_geometry": slabs, "_fa_geometry": slabs,
                         "_secrecy_ratio": 2 * slabs}

    @pytest.mark.parametrize("seed", [0, 12345, 2 ** 63, 2 ** 64 - 1])
    def test_slab_positions_are_slices_of_one_stream(self, scenario, target, seed, monkeypatch):
        # each slab fills its (chunks, 4, size) positions in one draw from
        # PCG64(seed) advanced to its first chunk; laid end to end, the fills
        # are one long draw of the stream, the protocol test_manual_replication
        # rebuilds.  At chunk 7: two full slabs of _SLAB_TRIALS // 7 chunks
        # and one of 144, then a ragged 3-trial chunk.  A generator advanced
        # past 10^5 one-trial chunks continues the stream that drew them
        fills = []

        def recorded(rng, side_length, n, out):
            fills.append((n, _draw_positions(rng, side_length, n, out).copy()))
            return out

        monkeypatch.setattr(montecarlo, "_draw_positions", recorded)
        per_slab = montecarlo._SLAB_TRIALS // 7
        cfg = ps.McConfig(trials=7 * (2 * per_slab + 144) + 3, seed=seed, chunk_size=7)
        slabs = montecarlo._slabs(cfg)
        assert [n for _, n, _ in slabs] == [per_slab, per_slab, 144, 1] and slabs[-1][2] == 3
        montecarlo._mc_sweep(scenario, chan_at(1.0), [1e4], target, cfg, 1,
                             (montecarlo._pa_geometry,))
        assert [(n, fill.shape) for n, fill in fills] == [(k * size, (k, 4, size))
                                                         for _, k, size in slabs]
        stream = np.random.Generator(np.random.PCG64(seed))
        whole = _draw_positions(stream, scenario.side_length, cfg.trials)
        assert np.concatenate([fill.ravel() for _, fill in fills]).tobytes() == whole.tobytes()
        stream = np.random.Generator(np.random.PCG64(seed))
        stream.random(4 * 10 ** 5)
        far = np.random.Generator(np.random.PCG64(seed).advance(4 * 10 ** 5))
        assert far.random(8).tobytes() == stream.random(8).tobytes()

    def test_seed_changes_result(self, scenario, target):
        chan = chan_at(1e8)
        a = ps.mc_sop_pa(scenario, chan, target, small_cfg(seed=1))
        b = ps.mc_sop_pa(scenario, chan, target, small_cfg(seed=2))
        assert a.mean != b.mean

    def test_manual_replication(self, scenario, target):
        # rebuild the exact estimate from the documented protocol: the chunks
        # draw (x1, x2, y1, y2) in turn from one PCG64(4242) stream; a trial's
        # Rb - Rw is log1p(t)/(2 ln 2) with t = p/(r + q), in outage
        # where t < 4^Rbar - 1; the sums are scaled once at the end
        chan = chan_at(1e8)
        cfg = ps.McConfig(trials=300, seed=4242, chunk_size=128)
        r = 1.0 / (chan.eta * chan.tx_power)
        total, s, s2 = 0, 0.0, 0.0
        rng = np.random.Generator(np.random.PCG64(4242))
        for k in range(3):
            size = min(128, 300 - 128 * k)
            half = scenario.side_length / 2.0
            x1 = rng.uniform(-half, half, size)
            x2 = rng.uniform(-half, half, size)
            y1 = rng.uniform(-half, half, size)
            y2 = rng.uniform(-half, half, size)
            loss = np.exp(-2.0 * chan.attenuation * (x1 + half))
            nb = y1 ** 2 + 9.0
            nw = (x1 - x2) ** 2 + y2 ** 2 + 9.0
            q = loss / nw
            t = (nw - nb) * q / nb / (r + q)
            total += int(np.sum(t < math.expm1(target.rate * math.log(4.0))))
            logs = np.log1p(t)
            s += float(np.sum(logs))
            s2 += float(np.sum(logs * logs))
        scale = 0.5 / math.log(2.0)
        s, s2 = s * scale, s2 * (scale * scale)
        p = total / 300
        sop = ps.mc_sop_pa(scenario, chan, target, cfg)
        assert sop.mean == p
        assert sop.std_error == math.sqrt(p * (1.0 - p) / 300)
        esc = ps.mc_esc_pa(scenario, chan, cfg)
        assert esc.mean == s / 300
        var = max((s2 - s * s / 300) / 299, 0.0)
        assert esc.std_error == math.sqrt(var / 300)


def _oracle_pa(scenario, chan, x1, x2, y1, y2):
    # the PA's t = p/(r + q), q = loss/Nw, p = (Nw - Nb)*q/Nb, for one channel, in the noise
    # powers' own units
    d2 = scenario.waveguide_height ** 2
    loss = np.exp(-2.0 * chan.attenuation * (x1 + scenario.side_length / 2.0))
    nb = (y1 ** 2 + d2) * chan.noise_bob
    nw = ((x1 - x2) ** 2 + y2 ** 2 + d2) * chan.noise_willie
    q = loss / nw
    return (nw - nb) * q / nb / (1.0 / (chan.eta * chan.tx_power) + q)


def _oracle_fa(scenario, chan, x1, x2, y1, y2):
    d2 = scenario.waveguide_height ** 2
    nb = (x1 ** 2 + y1 ** 2 + d2) * chan.noise_bob
    nw = (x2 ** 2 + y2 ** 2 + d2) * chan.noise_willie
    q = 1.0 / nw
    return (nw - nb) * q / nb / (1.0 / (chan.eta * chan.tx_power) + q)


def _oracle_sweep(scenario, chans, target, cfg):
    """The engine's estimates, one channel and one kernel at a time.

    The chunks draw their positions in turn from one
    Generator(PCG64(seed)).  Every channel forms each kernel's t on them and
    reduces the outage count, log1p(t) and its square with 1-D sums; the
    sums are added up in chunk order and scaled by 1/(2 ln 2) once.  The
    engine measures powers in a power of two; scaling by one changes no
    bit, so this oracle does without it.
    """
    below = math.expm1(target.rate * math.log(4.0))
    totals = {}
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    for first in range(0, cfg.trials, cfg.chunk_size):
        positions = _draw_positions(rng, scenario.side_length,
                                    min(cfg.chunk_size, cfg.trials - first))
        for i, chan in enumerate(chans):
            for j, kernel in enumerate((_oracle_pa, _oracle_fa)):
                t = kernel(scenario, chan, *positions)
                logs = np.log1p(t)
                c, s, s2 = totals.get((i, j), (0, 0.0, 0.0))
                totals[i, j] = (c + int(np.sum(t < below)), s + float(np.sum(logs)),
                                s2 + float(np.sum(logs * logs)))
    n = cfg.trials
    scale = 0.5 / math.log(2.0)
    grid = []
    for i in range(len(chans)):
        row = []
        for j in range(2):
            count, s, s2 = totals[i, j]
            s, s2 = s * scale, s2 * (scale * scale)
            p = count / n
            var = max((s2 - s * s / n) / (n - 1), 0.0)
            row.append([[p, math.sqrt(p * (1.0 - p) / n)], [s / n, math.sqrt(var / n)]])
        grid.append(row)
    return grid


# Dyadic positions (multiples of 1/64) and noise variances make Nb and Nw
# exact, so the comparison below measures the rate kernel's arithmetic
# alone.  Rows are (x1, x2, y1, y2).  The last two positions put Nb within
# 0.2% of Nw for the PA, and the first of them for the FA too: there Rb - Rw
# is ~1e-3 bits while each rate is ~9 bits at 120 dB, and a difference of
# two rates loses about three digits.
KERNEL_POSITIONS = (
    (9.359375, -2.84375, -11.65625, 5.859375, 8.96875, 6.75, 0.0, -10.0),
    (4.15625, -12.03125, -12.4375, 11.734375, 9.21875, 5.640625, 0.0, -10.0),
    (-8.609375, -6.34375, -9.546875, 7.015625, 6.578125, -8.140625, 5.203125, 5.203125),
    (-11.828125, 7.953125, -9.109375, -10.78125, -9.515625, -8.921875, 0.0, 0.0),
)
# Rb - Rw in bits/s/Hz at those positions, alpha = 0.05, sigma_b^2 = 0.5,
# sigma_w^2 = 2, fc = 10 GHz: per SNR (dB), the PA row and the FA row, each
# the float nearest the 40-digit mpmath value of
# (1/2)log2((1 + S/Nb)/(1 + S/Nw)), or of (1/2)log2(Nw/Nb) at rho = inf.
KERNEL_REFERENCE = {
    -10.0: ((9.789704672596075e-10, 5.849806462512743e-09, 5.498237795409275e-09,
             2.044117260363016e-09, 1.5946943889120136e-09, 1.2579784171795935e-09,
             -1.3135474067982805e-11, -3.570591991195493e-11),
            (3.574387885427856e-09, 1.337637582777247e-08, 2.646898773922636e-09,
             8.091124010272558e-09, 5.074761529946231e-09, 5.090663554242417e-09,
             -4.584730837282801e-11, 4.151027431651505e-09)),
    20.0: ((9.789696259067114e-07, 5.84977872499577e-06, 5.498201346783646e-06,
            2.0441137869376734e-06, 1.5946920961595042e-06, 1.2579767406167552e-06,
            -1.3135355313046796e-08, -3.570504243872924e-08),
           (3.5743729237248266e-06, 1.3376234406779552e-05, 2.64689087204167e-06,
            8.091069930009435e-06, 5.0747358791082204e-06, 5.09063359122433e-06,
            -4.584586167417442e-08, 4.151004673637424e-06)),
    50.0: ((0.0009781291459139189, 0.005822203814442631, 0.005462019063747027,
            0.0020406476191813035, 0.0015924032846171034, 0.001256302728696639,
            -1.3017665459152652e-05, -3.484863695451356e-05),
           (0.003559480864090653, 0.013236665448762194, 0.0026390154746305005,
            0.00803743216193884, 0.005049234767761297, 0.005060866813042384,
            -4.4443461034799165e-05, 0.004128382131371737)),
    80.0: ((0.5516477015870132, 1.2672779413929611, 0.7907622644143135,
            0.840581875135207, 0.7050158255524911, 0.5663684093535867,
            -0.0013070241469776208, -0.0013947514373725662),
           (0.7495911422429642, 1.5867850720648062, 0.7174946022895298,
            1.337531126730757, 0.9567878783040136, 0.8157450949002314,
            -0.0014069078647369801, 0.6875131010952691)),
    120.0: ((1.540698279769995, 1.8347354880415256, 0.9434242973503453,
             1.7279007047140749, 1.4649393933367945, 1.1274445001277051,
             -0.0014514321620288807, -0.0014514422999947468),
            (0.9805247191095681, 1.960124624615263, 1.0318227517151342,
             1.7531187487960287, 1.2377593269976843, 0.9974907710310769,
             -0.0014514436050936854, 0.8399572442495682)),
    math.inf: ((1.5410482591067602, 1.834831584215496, 0.9434429287935858,
                1.7281314656669713, 1.465127100397794, 1.1275678820465587,
                -0.0014514482001199305, -0.0014514482001199305),
               (0.980556023184676, 1.960175996568528, 1.0318703205965292,
                1.7531795297760897, 1.2377976917845708, 0.9975136369424777,
                -0.0014514482001199305, 0.8399762505780207)),
}


class TestBatchedEngine:
    # each case is stated for a 16384-trial slab; its trials and chunk size
    # are scaled by _SLAB_TRIALS/16384, which keeps its slabs and blocks
    @pytest.mark.parametrize("trials, chunk_size, rows_per_block", [
        (2700, 1000, 32),    # a slab of two chunks, then a short last chunk alone
        (34567, 1000, 4),    # slabs of 16, 16 and 2 chunks, then a ragged chunk; a last 1-row block
        (16384, 4096, 4),    # exactly one slab
        (16385, 4096, 4),    # one slab, then a one-trial chunk
        (20000, 16384, 4),   # chunks of one slab each, then a short last chunk
        (50000, 40000, 1),   # chunks larger than a slab: one chunk per slab, one row per block
        (150, 1, 436),       # 150 one-trial chunks in one slab; all rows in one block
        (150, 4096, 436),    # one chunk shorter than chunk_size
    ])
    def test_bit_identical_to_per_channel_oracle(self, scenario, trials, chunk_size,
                                                 rows_per_block):
        # 21 rows, alpha > 0 and unequal noise; the grid straddles the PA
        # and FA outage edges so every count and sum is nontrivial.  The
        # engine runs each slab of chunks in views of its thread's
        # workspace and reduces each chunk from a (rows, chunks, size) view,
        # so slabs and blocks of every shape must give the oracle's bits
        trials, chunk_size = (n * montecarlo._SLAB_TRIALS // 16384 for n in (trials, chunk_size))
        target = ps.SecrecyTarget(rate=0.05)
        chans = [ps.ChannelParams(attenuation=0.05, tx_power=10 ** (db / 10.0),
                                  noise_bob=2.0, noise_willie=0.5)
                 for db in np.linspace(20.0, 90.0, 21)]
        cfg = ps.McConfig(trials=trials, seed=2024, chunk_size=chunk_size)
        widths = [n * size for _, n, size in montecarlo._slabs(cfg)]
        assert sum(widths) == trials
        assert 4 * montecarlo._SLAB_TRIALS // max(widths) == rows_per_block
        want = _oracle_sweep(scenario, chans, target, cfg)
        assert len({est[0] for row in want for kernel in row for est in kernel}) > 30
        for workers in (1, 2, 3):
            # the engine's reduction on arrays, bit for bit, against Python's floats
            assert montecarlo._mc_sweep(scenario, chans[0], [chan.tx_power for chan in chans],
                                        target, cfg, workers).tolist() == want

    @pytest.mark.parametrize("rows, blocks", [(5, [5]), (6, [4, 2])], ids=["5-1", "6-2"])
    def test_short_grid_runs_as_one_block(self, scenario, monkeypatch, rows, blocks):
        # mc-deep's shape: five powers over full slabs of default chunks fit
        # in one block of ratios per kernel (at most 5*_SLAB_TRIALS), where four
        # rows per block would run them as 4 + 1; a sixth power splits them
        # 4 + 2.  Two full slabs, then a ragged 100-trial chunk
        calls = []
        secrecy_ratio = montecarlo._secrecy_ratio

        def counted(*args):
            calls.append(len(args[0]))
            return secrecy_ratio(*args)

        monkeypatch.setattr(montecarlo, "_secrecy_ratio", counted)
        chans = [ps.ChannelParams(attenuation=0.05, tx_power=10 ** (db / 10.0),
                                  noise_bob=2.0, noise_willie=0.5)
                 for db in np.linspace(40.0, 65.0, rows)]
        slab = montecarlo._SLAB_TRIALS
        cfg = ps.McConfig(trials=2 * slab + 100, seed=77, chunk_size=4096)
        assert [n * size for _, n, size in montecarlo._slabs(cfg)] == [slab, slab, 100]
        target = ps.SecrecyTarget(rate=0.05)
        got = montecarlo._mc_sweep(scenario, chans[0], [chan.tx_power for chan in chans],
                                   target, cfg)
        assert calls == blocks * (3 * 2)  # the rows of each block, per slab and kernel
        assert got.tolist() == _oracle_sweep(scenario, chans, target, cfg)

    @pytest.mark.parametrize("trials", [65535, 70000])
    def test_outage_count_exact_past_narrow_widths(self, scenario, target, trials):
        # one chunk of all the trials: below rho* (43.4 dB) every trial is in
        # outage, so the count is the chunk's size, at 16 bits' largest value
        # and past it; a count kept in 8 or 16 bits would wrap.  At 45 dB the
        # count is ~96% of the chunk, held to the oracle's Python ints
        cfg = ps.McConfig(trials=trials, seed=8, chunk_size=trials)
        chans = [chan_at(10 ** (db / 10.0)) for db in (40.0, 45.0)]
        want = _oracle_sweep(scenario, chans, target, cfg)
        assert 0.95 < want[1][0][0][0] < 1.0
        for workers in (1, 2):
            got = montecarlo._mc_sweep(scenario, chans[0], [chan.tx_power for chan in chans],
                                       target, cfg, workers)
            assert got[0, :, 0].tolist() == [[1.0, 0.0], [1.0, 0.0]]
            assert got.tolist() == want

    @pytest.mark.parametrize("noise_bob, noise_willie", [(2.0, 0.5), (0.5, 2.0)])
    def test_certain_outage_edge(self, scenario, noise_bob, noise_willie):
        # every trial has t < eta*P/(d^2 sigma_b^2): a power whose gain,
        # widened by the margin, lies below 4^Rbar - 1 counts the chunk's
        # size without comparing t.  Gains at (4^Rbar - 1)(1 -/+ 1e-9) and
        # 1e-14 either side of the margin, then one row well clear of the
        # edge; the oracle tests every trial.  Four full chunks, then a
        # ragged 904-trial chunk, which counts its own size
        target = ps.SecrecyTarget(rate=0.05)
        chan = ps.ChannelParams(attenuation=0.05, noise_bob=noise_bob, noise_willie=noise_willie)
        thr = target.threshold_minus_one
        edge = thr * scenario.waveguide_height ** 2 * noise_bob / chan.eta
        margin = 1.0 + montecarlo._CERTAIN_MARGIN
        factors = [1.0 - 1e-9, 1.0 + 1e-9, (1.0 - 1e-14) / margin, (1.0 + 1e-14) / margin, 1e3]
        powers = [edge * f for f in factors]
        inverse_gains = montecarlo._inverse_gains(scenario, chan, powers)
        assert montecarlo._certain_outage(scenario, chan, inverse_gains, thr).tolist() == [
            True, False, True, False, False]
        cfg = ps.McConfig(trials=5000, seed=606, chunk_size=1024)
        want = _oracle_sweep(scenario, [dataclasses.replace(chan, tx_power=p) for p in powers],
                             target, cfg)
        for workers in (1, 2):
            got = montecarlo._mc_sweep(scenario, chan, powers, target, cfg, workers)
            assert got.tolist() == want
            assert np.all(got[[0, 2], :, 0] == [1.0, 0.0])
        # at Rbar = 0 outage is t < 0, never certain: not at a vanishing power either
        zero = ps.SecrecyTarget(rate=0.0)
        tiny = [1e-300, edge]
        assert not montecarlo._certain_outage(
            scenario, chan, montecarlo._inverse_gains(scenario, chan, tiny), 0.0).any()
        got = montecarlo._mc_sweep(scenario, chan, tiny, zero, cfg)
        assert got.tolist() == _oracle_sweep(
            scenario, [dataclasses.replace(chan, tx_power=p) for p in tiny], zero, cfg)
        assert np.all(got[:, :, 0, 0] < 1.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_workspace_rows_are_64_byte_aligned(self, scenario, target, monkeypatch, workers):
        # np.empty promises 16 bytes; numpy's SIMD loops run about twice as
        # fast on rows that start on a 64-byte boundary.  At chunk 4096 each
        # thread's workspace puts on one every fill, every row of a
        # geometry's three outputs (Bob's noise power lies in the next
        # geometry's p row, or in x2), and every row of p, q and a block of
        # ratios, the ragged 848-trial chunk's too.  Each block of ratios
        # lies over its thread's positions, from their first float
        fills, rows, blocks = [], [], []
        draw_positions, secrecy_ratio = montecarlo._draw_positions, montecarlo._secrecy_ratio

        def drawn(rng, side_length, n, out):
            fills.append(out.ctypes.data)
            return draw_positions(rng, side_length, n, out)

        def aligned(*arrays):
            rows.extend(row.ctypes.data % 64 for terms in arrays
                        for row in terms.reshape(-1, terms.shape[-1]))

        def ratio(r, p, q, out=None):
            # each chunk's row of p, q and of each power's ratios
            aligned(p, q, out)
            blocks.append(out.ctypes.data)
            return secrecy_ratio(r, p, q, out)

        def formed(geometry):
            def wrapper(scenario, chan, x1, x2, y1, y2, out):
                aligned(*out)
                return geometry(scenario, chan, x1, x2, y1, y2, out)
            return wrapper

        monkeypatch.setattr(montecarlo, "_draw_positions", drawn)
        monkeypatch.setattr(montecarlo, "_secrecy_ratio", ratio)
        powers = [10 ** (db / 10.0) for db in range(-10, 55, 5)]
        slab = montecarlo._SLAB_TRIALS
        cfg = ps.McConfig(trials=2 * slab + 848, seed=3, chunk_size=4096)
        slabs = montecarlo._slabs(cfg)
        assert [n * size for _, n, size in slabs] == [slab, slab, 848]
        kernels = (formed(montecarlo._pa_geometry), formed(montecarlo._fa_geometry))
        montecarlo._mc_sweep(scenario, chan_at(1.0), powers, target, cfg, workers, kernels)
        # per slab, two geometries of three rows a chunk; per kernel, four blocks
        # of p and q rows and the grid's 13 rows of ratios, chunk by chunk
        assert [start % 64 for start in fills] == [0] * len(slabs)
        assert rows == [0] * sum(n * (2 * 3 + 2 * (4 * 2 + 13)) for _, n, _ in slabs)
        assert set(blocks) == set(fills) and len(blocks) == 2 * 4 * len(slabs)

    def test_public_kernels_match_mpmath(self, scenario):
        # one log1p of one ratio keeps the digits where two ~10-bit rates
        # would cancel, and gives the exact limit at rho = inf
        positions = np.array(KERNEL_POSITIONS)
        for snr_db, rows in KERNEL_REFERENCE.items():
            power = 10 ** (snr_db / 10.0) if math.isfinite(snr_db) else math.inf
            chan = ps.ChannelParams(attenuation=0.05, tx_power=power, noise_bob=0.5,
                                    noise_willie=2.0)
            for kernel, want in zip((ps.pa_secrecy_rate, ps.fa_secrecy_rate), rows):
                got = kernel(scenario, chan, *positions).tolist()
                assert got == pytest.approx(want, rel=5e-14), (snr_db, kernel)

    @pytest.mark.parametrize("power", [0.0, -1.0, math.nan])
    def test_rejects_what_tx_power_rejects(self, scenario, target, power):
        with pytest.raises(ValueError, match="tx_power"):
            ps.ChannelParams(tx_power=power)
        with pytest.raises(ValueError, match="tx_power"):
            montecarlo._mc_sweep(scenario, chan_at(1.0), [1e4, power], target, small_cfg())

    def test_empty_grid(self, scenario, target):
        assert montecarlo._mc_sweep(scenario, chan_at(1.0), [], target,
                                    small_cfg()).shape == (0, 2, 2, 2)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads Linux's minor page-fault count")
    def test_steady_state_sweep_takes_few_page_faults(self):
        # paper-sweep's shape: 13 rows in blocks of 4 at chunk 4096, so one
        # block's temporaries would be 128 KiB each, glibc's mmap threshold;
        # allocated per block, they took ~3000 minor faults per sweep.  A
        # fresh interpreter, since this process's heap history (other
        # tests' large frees raise glibc's threshold) would hide them
        script = "\n".join([
            "import resource",
            "import pinchsec as ps",
            "from pinchsec import montecarlo",
            "powers = [10 ** (db / 10.0) for db in range(-10, 55, 5)]",
            "cfg = ps.McConfig(trials=50000, seed=12345, chunk_size=4096)",
            "args = (ps.Scenario(), ps.ChannelParams(), powers, ps.SecrecyTarget(), cfg, 1)",
            "montecarlo._mc_sweep(*args)",
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            "montecarlo._mc_sweep(*args)",
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
        ])
        src_dir = Path(montecarlo.__file__).resolve().parent.parent
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env={"PATH": "", "PYTHONPATH": str(src_dir),
                                                "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 0, proc.stderr
        faults = int(proc.stdout)
        assert faults < 500, faults

    def test_block_memory_stays_bounded(self, scenario, target):
        # rates run in blocks of 4 rows at chunk 4096 (~0.1 MB per array);
        # all 400 rows at once would take ~13 MB per array
        powers = [10 ** (0.2 * k) for k in range(400)]
        cfg = ps.McConfig(trials=4096, seed=5, chunk_size=4096)
        montecarlo._mc_sweep(scenario, chan_at(1.0), powers[:2], target, cfg)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            montecarlo._mc_sweep(scenario, chan_at(1.0), powers, target, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2e6, peak

    def test_pool_memory_stays_bounded(self, scenario, target):
        # mc-deep's shape on two threads: each holds one workspace of a
        # full slab of six chunks (a 5-row block of ratios over the
        # positions' 4 rows, then p and q of two kernels, ~1.7 MiB, then a
        # 5-row byte mask, ~0.1 MiB); each slab's per-chunk sums are folded
        # as it completes, and at most four slabs, each with its generator,
        # are handed out ahead of the one folded
        powers = [10 ** (db / 10.0) for db in (40.0, 45.0, 50.0, 55.0, 60.0)]
        cfg = ps.McConfig(trials=1000000, seed=5, chunk_size=4096)
        montecarlo._mc_sweep(scenario, chan_at(1.0), powers[:1], target, small_cfg(), 2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            montecarlo._mc_sweep(scenario, chan_at(1.0), powers, target, cfg, 2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20, peak


    def test_memory_stays_flat_in_the_chunk_count(self, scenario, target):
        # 20 powers at chunk 64: a slab is _SLAB_TRIALS/64 chunks, whose
        # per-chunk sums (960 B) would grow the peak by ~360 KiB a slab if
        # the call kept them.  The loop folds each slab as it completes and
        # holds the last slab's sums while the next is made, so at one worker
        # the peak is that of two slabs at any count.  Two workers are handed
        # at most four slabs ahead of the one folded, each with one generator
        # made as it is handed out: at most five slabs' sums are held at any
        # count, and at least two of them already at four slabs, so the
        # peak grows by less than three slabs' sums; the least of two tries
        # is taken
        powers = [10 ** (k / 10.0) for k in range(20)]
        slab_sums = montecarlo._SLAB_TRIALS // 64 * len(powers) * 2 * 3 * 8

        def peak(slabs, workers):
            cfg = ps.McConfig(trials=slabs * montecarlo._SLAB_TRIALS, seed=5, chunk_size=64)
            assert len(montecarlo._slabs(cfg)) == slabs
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                montecarlo._mc_sweep(scenario, chan_at(1.0), powers, target, cfg, workers)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        for workers, few, many, bound in ((1, 2, 8, 2 ** 17), (2, 4, 32, 3 * slab_sums)):
            peak(1, workers)
            growth = min(peak(many, workers) - peak(few, workers) for _ in range(2))
            assert growth < bound, (workers, growth)


class TestDegenerateGeometry:
    def test_colocated_users_always_outage(self, target):
        # a vanishing floor collapses Bob and Willie onto the same point
        tiny = ps.Scenario(side_length=1e-9, waveguide_height=3.0)
        est = ps.mc_sop_pa(tiny, chan_at(1e8), target, small_cfg(trials=1000))
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_vanishing_power(self, scenario, target):
        chan = chan_at(1e-10)
        cfg = small_cfg(trials=1000)
        assert ps.mc_sop_pa(scenario, chan, target, cfg).mean == 1.0
        assert abs(ps.mc_esc_pa(scenario, chan, cfg).mean) < 1e-9

    def test_small_room_pa_approaches_fa(self, target):
        # as the room shrinks both systems converge to the same point link.
        # note the estimates do not merge in std-error units: the PA-FA gap
        # and the std error both scale as D^2, leaving a scale-invariant
        # z-score (~63 at 2e4 trials), so agreement is asserted absolutely
        chan = chan_at(1e8, alpha=0.0)
        cfg = ps.McConfig(trials=20000, seed=31, chunk_size=4096)
        for side, tol in ((0.01, 1e-5), (0.001, 1e-7)):
            tiny = ps.Scenario(side_length=side, waveguide_height=3.0)
            assert ps.mc_sop_pa(tiny, chan, target, cfg).mean == 1.0
            assert ps.mc_sop_fa(tiny, chan, target, cfg).mean == 1.0
            esc_pa = ps.mc_esc_pa(tiny, chan, cfg)
            esc_fa = ps.mc_esc_fa(tiny, chan, cfg)
            assert abs(esc_pa.mean) < tol and abs(esc_fa.mean) < tol
            assert abs(esc_pa.mean - esc_fa.mean) < tol


class TestInfinitePower:
    def test_high_snr_limit(self, scenario, target, rule_1000):
        # at rho = inf, r = 0 gives t = (Nw - Nb)/Nb, the exact high-SNR
        # limit: no inf - inf, so no warning and no NaN estimate
        chan = chan_at(math.inf)
        cfg = ps.McConfig(trials=200000, seed=12345)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = montecarlo._mc_sweep(scenario, chan, [math.inf], target, cfg)
            views = [[est.mean, est.std_error] for est in (
                ps.mc_sop_pa(scenario, chan, target, cfg), ps.mc_esc_pa(scenario, chan, cfg),
                ps.mc_sop_fa(scenario, chan, target, cfg), ps.mc_esc_fa(scenario, chan, cfg))]
            # 4^Rbar overflows from Rbar = 512: the threshold is +inf, outage certain
            certain = [montecarlo._mc_sweep(scenario, chan, [1e8, math.inf],
                                            ps.SecrecyTarget(rate=rate), small_cfg())
                       for rate in (512.0, 600.0)]
        assert np.all(np.isfinite(grid))
        assert grid.reshape(4, 2).tolist() == views
        (sop, esc), (_, fa_esc) = grid[0].tolist()
        sop_asym = ps.sop_asymptotic(scenario, chan, target, rule_1000)
        esc_asym = ps.esc_asymptotic(scenario, chan, rule_1000)
        assert sop_asym.lower - 3.0 * sop[1] <= sop[0] <= sop_asym.upper + 3.0 * sop[1]
        assert esc_asym.lower - 3.0 * esc[1] <= esc[0] <= esc_asym.upper + 3.0 * esc[1]
        # Bob's and Willie's FA distances are exchangeable: the mean rate is 0
        assert abs(fa_esc[0]) <= 3.0 * fa_esc[1]
        for sweep in certain:
            assert np.all(sweep[:, :, 0] == [1.0, 0.0])

    def test_underflowed_loss_takes_the_loss_free_limit(self, scenario, target):
        # at alpha = 20 the PA's loss exp(-2 alpha (x1 + D/2)) underflows to 0
        # beyond x1 + D/2 ~ 18.6 m, where A/C would read 0/0.  At rho = inf
        # the limit t = (Nw - Nb)/Nb holds at any loss, and it is taken from
        # the loss-free geometry: bit for bit what alpha = 0 (loss 1) gives
        cfg = ps.McConfig(trials=2000)
        far = (12.0, -5.0, 1.0, 2.0)  # Bob 24.5 m along the guide
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lossy, lossless = (montecarlo._mc_sweep(scenario, ps.ChannelParams(attenuation=alpha),
                                                    [1e8, math.inf], target, cfg)
                               for alpha in (20.0, 0.0))
            rates = [montecarlo.pa_secrecy_rate(
                scenario, ps.ChannelParams(attenuation=alpha, tx_power=math.inf), *far)
                for alpha in (20.0, 0.0)]
        assert np.all(np.isfinite(lossy[1]))
        assert lossy[1].tobytes() == lossless[1].tobytes()
        assert math.isfinite(rates[0]) and rates[0] == rates[1]
        # the finite power keeps its loss and its bits: (sop, esc) x (mean, SE), PA then FA;
        # numpy's log1p rounds one of them per its class
        fa_esc = {"avx512": -0.007358654298580459, "no_avx512": -0.007358654298580452}
        assert lossy[0].tolist() == [
            [[0.9945, 0.0016537457482938467], [0.002876354999888791, 0.0013430568251933063]],
            [[0.5065, 0.01117939510885987], [fa_esc[simd_class()], 0.015371955835295]]]

    @pytest.mark.parametrize("alpha", [0.05, 20.0])
    def test_mixed_grid_rows_equal_each_row_alone(self, scenario, alpha):
        # finite powers, then rho = inf, then a finite power: one pass per
        # kind of row, each writing back into its own rows, gives every row
        # the bits of its power alone, at one worker and at two.  Two full
        # slabs of default chunks, then a ragged 1000-trial chunk
        target = ps.SecrecyTarget(rate=0.05)
        chan = ps.ChannelParams(attenuation=alpha, noise_bob=2.0, noise_willie=0.5)
        powers = [1e4, 1e8, math.inf, 1e6]
        cfg = ps.McConfig(trials=2 * montecarlo._SLAB_TRIALS + 1000, seed=31, chunk_size=4096)
        assert len(montecarlo._slabs(cfg)) == 3
        alone = [montecarlo._mc_sweep(scenario, chan, [power], target, cfg)[0].tolist()
                 for power in powers]
        assert len({str(row) for row in alone}) == len(powers)
        for workers in (1, 2):
            grid = montecarlo._mc_sweep(scenario, chan, powers, target, cfg, workers)
            assert grid.tolist() == alone, workers


class TestStatisticalBehavior:
    def test_agrees_with_exact_point_when_bounds_collapse(self, scenario, target, rule_1000):
        cfg = ps.McConfig(trials=50000, seed=12345)
        chan = chan_at(10 ** 4.5, alpha=0.0)
        point = sop_at(scenario, chan, target, rule_1000)
        assert point.lower == point.upper
        est = ps.mc_sop_pa(scenario, chan, target, cfg)
        assert abs(est.mean - point.lower) <= 3.0 * est.std_error
        chan2 = chan_at(1e2, alpha=0.0)
        point2 = esc_at(scenario, chan2, rule_1000)
        est2 = ps.mc_esc_pa(scenario, chan2, cfg)
        assert abs(est2.mean - point2.lower) <= 3.0 * est2.std_error

    def test_std_error_scales_with_trials(self, scenario, target):
        # quadrupling the trial count halves the standard error; one
        # doubling shrinks it by 1/sqrt(2)
        chan = chan_at(1e8)
        sizes = (20000, 40000, 80000)
        sop = [ps.mc_sop_pa(scenario, chan, target,
                            ps.McConfig(trials=n, seed=99)).std_error for n in sizes]
        esc = [ps.mc_esc_pa(scenario, chan,
                            ps.McConfig(trials=n, seed=99)).std_error for n in sizes]
        for se in (sop, esc):
            assert se[1] / se[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=0.2)
            assert se[2] / se[0] == pytest.approx(0.5, rel=0.2)

    def test_outage_se_bernoulli(self, scenario, target):
        est = ps.mc_sop_pa(scenario, chan_at(1e8), target, small_cfg())
        want = math.sqrt(est.mean * (1.0 - est.mean) / est.trials)
        assert est.std_error == want


class TestBaselineComparison:
    def test_fixed_antenna_never_better(self, scenario, target):
        # same position stream for both systems (paired comparison)
        cfg = ps.McConfig(trials=50000, seed=12345)
        for snr_db in (15.0, 30.0, 45.0):
            chan = chan_at(10 ** (snr_db / 10.0))
            assert (ps.mc_sop_fa(scenario, chan, target, cfg).mean
                    >= ps.mc_sop_pa(scenario, chan, target, cfg).mean)
            assert (ps.mc_esc_fa(scenario, chan, cfg).mean
                    <= ps.mc_esc_pa(scenario, chan, cfg).mean)

    def test_mc_inside_analytic_bracket(self, scenario, target, rule_1000):
        cfg = ps.McConfig(trials=50000, seed=12345)
        for snr_db in (30.0, 45.0):
            chan = chan_at(10 ** (snr_db / 10.0))
            pair = sop_at(scenario, chan, target, rule_1000)
            est = ps.mc_sop_pa(scenario, chan, target, cfg)
            assert pair.lower - 3.0 * est.std_error <= est.mean <= pair.upper + 3.0 * est.std_error
            epair = esc_at(scenario, chan, rule_1000)
            eest = ps.mc_esc_pa(scenario, chan, cfg)
            assert epair.lower - 3.0 * eest.std_error <= eest.mean <= epair.upper + 3.0 * eest.std_error
