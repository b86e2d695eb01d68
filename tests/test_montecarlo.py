"""Monte Carlo estimator tests.

The chunked seeding protocol (child stream per chunk, ordered reduction)
is replicated by hand in one test so any change to the draw layout or
the reduction arithmetic is caught exactly, not statistically.
"""

import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pinchsec as ps
from conftest import chan_at, esc_at, sop_at
from pinchsec import montecarlo


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

    def test_chunk_count(self):
        assert ps.McConfig(trials=1000, chunk_size=256).n_chunks == 4
        assert ps.McConfig(trials=1024, chunk_size=256).n_chunks == 4
        assert ps.McConfig(trials=1025, chunk_size=256).n_chunks == 5


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
        # a view forms its own kernel's geometry once per chunk, and one
        # block of rates from it; the other kernel is never formed
        calls = {"_pa_geometry": 0, "_fa_geometry": 0, "_secrecy_rates": 0}

        def counted(name):
            fn = getattr(montecarlo, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(montecarlo, name, counted(name))
        cfg = small_cfg()
        ps.mc_sop_pa(scenario, chan_at(1e4), target, cfg)
        assert calls == {"_pa_geometry": cfg.n_chunks, "_fa_geometry": 0,
                         "_secrecy_rates": cfg.n_chunks}
        ps.mc_esc_fa(scenario, chan_at(1e4), cfg)
        assert calls == {"_pa_geometry": cfg.n_chunks, "_fa_geometry": cfg.n_chunks,
                         "_secrecy_rates": 2 * cfg.n_chunks}

    def test_seed_changes_result(self, scenario, target):
        chan = chan_at(1e8)
        a = ps.mc_sop_pa(scenario, chan, target, small_cfg(seed=1))
        b = ps.mc_sop_pa(scenario, chan, target, small_cfg(seed=2))
        assert a.mean != b.mean

    def test_manual_replication(self, scenario, target):
        # rebuild the exact estimate from the documented protocol:
        # chunk k draws (x1, x2, y1, y2) from seed (4242, spawn_key=(k,))
        chan = chan_at(1e8)
        cfg = ps.McConfig(trials=300, seed=4242, chunk_size=128)
        total, s, s2 = 0, 0.0, 0.0
        for k in range(3):
            size = min(128, 300 - 128 * k)
            rng = np.random.default_rng(np.random.SeedSequence(entropy=4242, spawn_key=(k,)))
            half = scenario.side_length / 2.0
            x1 = rng.uniform(-half, half, size)
            x2 = rng.uniform(-half, half, size)
            y1 = rng.uniform(-half, half, size)
            y2 = rng.uniform(-half, half, size)
            guided = x1 + half
            rs = (ps.los_rate(y1 ** 2 + 9.0, chan, 1.0, guided)
                  - ps.los_rate((x1 - x2) ** 2 + y2 ** 2 + 9.0, chan, 1.0, guided))
            total += int(np.sum(rs < target.rate))
            s += float(np.sum(rs))
            s2 += float(np.sum(rs * rs))
        p = total / 300
        sop = ps.mc_sop_pa(scenario, chan, target, cfg)
        assert sop.mean == p
        assert sop.std_error == math.sqrt(p * (1.0 - p) / 300)
        esc = ps.mc_esc_pa(scenario, chan, cfg)
        assert esc.mean == s / 300
        var = max((s2 - s * s / 300) / 299, 0.0)
        assert esc.std_error == math.sqrt(var / 300)


def _oracle_pa(scenario, chan, x1, x2, y1, y2):
    # the per-channel PA kernel: two link rates, each with its own guided loss
    d2 = scenario.waveguide_height ** 2
    guided = x1 + scenario.side_length / 2.0
    return (ps.los_rate(y1 ** 2 + d2, chan, chan.noise_bob, guided)
            - ps.los_rate((x1 - x2) ** 2 + y2 ** 2 + d2, chan, chan.noise_willie, guided))


def _oracle_fa(scenario, chan, x1, x2, y1, y2):
    d2 = scenario.waveguide_height ** 2
    return (ps.los_rate(x1 ** 2 + y1 ** 2 + d2, chan, chan.noise_bob)
            - ps.los_rate(x2 ** 2 + y2 ** 2 + d2, chan, chan.noise_willie))


def _oracle_sweep(scenario, chans, target, cfg):
    """The engine's estimates, one channel and one kernel at a time.

    Every channel evaluates each kernel on the chunk's positions with its
    own los_rate calls and reduces it with 1-D sums; the sums are added up
    in chunk order.
    """
    totals = {}
    for k in range(cfg.n_chunks):
        positions = montecarlo._chunk_positions(scenario, cfg, k)
        for i, chan in enumerate(chans):
            for j, kernel in enumerate((_oracle_pa, _oracle_fa)):
                rs = kernel(scenario, chan, *positions)
                c, s, s2 = totals.get((i, j), (0, 0.0, 0.0))
                totals[i, j] = (c + int(np.sum(rs < target.rate)), s + float(np.sum(rs)),
                                s2 + float(np.sum(rs * rs)))
    n = cfg.trials
    grid = []
    for i in range(len(chans)):
        row = []
        for j in range(2):
            count, s, s2 = totals[i, j]
            p = count / n
            var = max((s2 - s * s / n) / (n - 1), 0.0)
            row.append([[p, math.sqrt(p * (1.0 - p) / n)], [s / n, math.sqrt(var / n)]])
        grid.append(row)
    return grid


class TestBatchedEngine:
    @pytest.mark.parametrize("trials, chunk_size, rows_per_block", [
        (2700, 1000, 16),    # two full blocks and a short one; a short last chunk
        (20000, 16384, 1),   # one row per block
        (150, 4096, 109),    # one chunk shorter than chunk_size; all rows in one block
    ])
    def test_bit_identical_to_per_channel_oracle(self, scenario, trials, chunk_size,
                                                 rows_per_block):
        # 21 rows, alpha > 0 and unequal noise; the grid straddles the PA
        # and FA outage edges so every count and sum is nontrivial.  The
        # engine runs each block in views of its thread's workspace, so
        # blocks of every shape must reuse it with the bits of the oracle
        target = ps.SecrecyTarget(rate=0.05)
        chans = [ps.ChannelParams(attenuation=0.05, tx_power=10 ** (db / 10.0),
                                  noise_bob=2.0, noise_willie=0.5)
                 for db in np.linspace(20.0, 90.0, 21)]
        cfg = ps.McConfig(trials=trials, seed=2024, chunk_size=chunk_size)
        assert montecarlo._BLOCK_ELEMENTS // min(chunk_size, trials) == rows_per_block
        want = _oracle_sweep(scenario, chans, target, cfg)
        assert len({est[0] for row in want for kernel in row for est in kernel}) > 30
        for workers in (1, 2):
            # the engine's reduction on arrays, bit for bit, against Python's floats
            assert montecarlo._mc_sweep(scenario, chans[0], [chan.tx_power for chan in chans],
                                        target, cfg, workers).tolist() == want

    def test_public_kernels_match_los_rate(self, scenario):
        chan = ps.ChannelParams(attenuation=0.05, tx_power=1e7, noise_bob=2.0, noise_willie=0.5)
        positions = montecarlo._chunk_positions(scenario, small_cfg(), 0)
        for kernel, oracle in ((ps.pa_secrecy_rate, _oracle_pa), (ps.fa_secrecy_rate, _oracle_fa)):
            assert np.array_equal(kernel(scenario, chan, *positions),
                                  oracle(scenario, chan, *positions))

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
