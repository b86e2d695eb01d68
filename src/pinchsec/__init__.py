"""Secrecy analysis of a pinching-antenna downlink versus a fixed antenna.

A pinched radiator slides along a waveguide to sit nearest the intended
user, paying an in-waveguide attenuation for the guided travel.  This
package provides the exact position-conditioned rate model, closed-form
distance distributions, analytical upper/lower bounds with high-SNR
asymptotes for the secrecy outage probability and the ergodic secrecy
capacity, and seeded Monte Carlo estimators.  The config, sweep, CSV and
self-check helpers behind the command line live in `pinchsec.cli`; the
term sums and quadrature internals in `pinchsec.bounds` and `pinchsec.quad`.
"""

from .bounds import (
    BoundPair,
    diversity_estimate,
    esc_asymptotic,
    esc_bounds,
    slope_estimate,
    sop_asymptotic,
    sop_bounds,
)
from .diststats import ZbDistribution, ZwDistribution, cdf_pdf_fd_gap, ks_statistic
from .model import ChannelParams, Scenario, SecrecyTarget
from .montecarlo import (
    McConfig,
    McEstimate,
    fa_secrecy_rate,
    mc_esc_fa,
    mc_esc_pa,
    mc_sop_fa,
    mc_sop_pa,
    pa_secrecy_rate,
)
from .quad import make_rule

__version__ = "0.1.0"

__all__ = [
    "BoundPair",
    "ChannelParams",
    "McConfig",
    "McEstimate",
    "Scenario",
    "SecrecyTarget",
    "ZbDistribution",
    "ZwDistribution",
    "cdf_pdf_fd_gap",
    "diversity_estimate",
    "esc_asymptotic",
    "esc_bounds",
    "fa_secrecy_rate",
    "ks_statistic",
    "make_rule",
    "mc_esc_fa",
    "mc_esc_pa",
    "mc_sop_fa",
    "mc_sop_pa",
    "pa_secrecy_rate",
    "slope_estimate",
    "sop_asymptotic",
    "sop_bounds",
]
