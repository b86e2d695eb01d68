"""The benchmark's workloads: flat `pinchsec` configs, one per name.

Every model parameter is spelled out instead of left to the program's
defaults, so a later change of a default moves no workload and the
reference generator can read the model straight from these dicts.  The
Monte Carlo seed (`mc_seed`) is not part of a workload; the benchmark
derives it from its `--seed` argument.
"""

from __future__ import annotations

import random

_MODEL = {
    "side_length_D": 25.0,
    "waveguide_height_d": 3.0,
    "carrier_freq_hz": 10e9,
    "attenuation_alpha": 0.01,
    "noise_bob_var": 1.0,
    "noise_willie_var": 1.0,
    "target_rate_bits": 0.01,
    "quadrature_n": 1000,
    "mc_chunk_size": 4096,
}

# Why each workload exists, and which layer it loads, is recorded in
# BENCHMARK.json; `tail_percentile` is fixed per workload (not chosen from
# the sample count of a run) so that parent and child report the same
# percentile.  It is the highest percentile that leaves at least ten samples
# beyond it at the sample count a run of the default length gets (about 130
# and 30 sweeps); mc-deep gets about 15, so it keeps p50, with fewer beyond.
WORKLOADS = {
    # The paper's default sweep: MC is ~85% of run_sweep, bounds ~14%.
    "paper-sweep": {
        "config": dict(_MODEL,
                       snr_db_grid=[float(s) for s in range(-10, 55, 5)],
                       mc_trials=50000,
                       workers=1),
        "tail_percentile": 90,
    },
    # The dense bracket curve up to the asymptotic regime: bounds+quad ~79%,
    # MC (at the 100-trial minimum) ~18%.
    "dense-bounds": {
        "config": dict(_MODEL,
                       snr_db_grid=[-10.0 + 0.25 * k for k in range(361)],
                       mc_trials=100,
                       workers=1),
        "tail_percentile": 66,
    },
    # Deep MC where SOP leaves 1, on the grid-level thread pool: MC ~98%.
    "mc-deep": {
        "config": dict(_MODEL,
                       snr_db_grid=[40.0, 45.0, 50.0, 55.0, 60.0],
                       mc_trials=1000000,
                       workers=2),
        "tail_percentile": 50,
    },
}

# The smoke check's shrunken workloads: a few grid points, few trials.
TINY = {
    "paper-sweep": {"snr_db_grid": [-10.0, 45.0, 50.0], "mc_trials": 2000},
    "dense-bounds": {"snr_db_grid": [-10.0 + 0.25 * k for k in range(240, 249)]},
    "mc-deep": {"snr_db_grid": [45.0, 50.0], "mc_trials": 20000},
}


def mc_seed_for(seed: int) -> int:
    """The program's MC seed for a benchmark seed: same seed, same inputs."""
    return random.Random(seed).getrandbits(63)


def config_for(name: str, seed: int, tiny: bool = False) -> dict:
    """The flat config dict a run of workload `name` feeds to pinchsec."""
    cfg = dict(WORKLOADS[name]["config"])
    if tiny:
        cfg.update(TINY[name])
    cfg["mc_seed"] = mc_seed_for(seed)
    return cfg
