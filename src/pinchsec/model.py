"""Deployment geometry and instantaneous rate equations.

A transmitter feeds a dielectric waveguide that runs along the x axis at
height d above the floor of a square room of side length D (centered at
the origin).  A single pinched radiator is placed on the waveguide at the
point closest to the legitimate receiver (Bob), so the signal travels a
guided length L = x_bob + D/2 before radiating, losing exp(-2*alpha*L) in
power.  An eavesdropper (Willie) overhears the same radiator.  The fixed
antenna (FA) baseline radiates from [0, 0, d] with no guided travel.

All rates are spectral efficiencies in bits/s/Hz under a deterministic
line-of-sight law: rate = (1/2) * log2(1 + eta * P / (dist^2 * sigma^2)),
formed as log1p(snr) / (2 ln 2), which keeps the digits of an SNR << 1.
The secrecy rates of both placements, built on los_rate, are
montecarlo.pa_secrecy_rate and montecarlo.fa_secrecy_rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class Scenario:
    """Room geometry. The waveguide spans x in [-D/2, D/2] at height d."""

    side_length: float = 25.0
    waveguide_height: float = 3.0

    def __post_init__(self):
        if not (self.side_length > 0):
            raise ValueError("side_length must be > 0")
        if not (self.waveguide_height > 0):
            raise ValueError("waveguide_height must be > 0")


@dataclass(frozen=True)
class ChannelParams:
    """Carrier, attenuation, power and noise parameters.

    eta is the free-space path factor c^2 / (16 pi^2 fc^2); alpha is the
    in-waveguide amplitude attenuation constant in nepers per meter.
    """

    carrier_freq: float = 10e9
    attenuation: float = 0.01
    tx_power: float = 1.0
    noise_bob: float = 1.0
    noise_willie: float = 1.0

    def __post_init__(self):
        if not (self.carrier_freq > 0):
            raise ValueError("carrier_freq must be > 0")
        if self.attenuation < 0:
            raise ValueError("attenuation must be >= 0")
        if not (self.tx_power > 0):
            raise ValueError("tx_power must be > 0")
        if not (self.noise_bob > 0 and self.noise_willie > 0):
            raise ValueError("noise variances must be > 0")

    @property
    def eta(self) -> float:
        return SPEED_OF_LIGHT ** 2 / (16.0 * math.pi ** 2 * self.carrier_freq ** 2)

    @property
    def rho(self) -> float:
        """Transmit SNR P/sigma^2. Defined only for a common noise level."""
        if self.noise_bob != self.noise_willie:
            raise ValueError("rho undefined: noise_bob != noise_willie")
        return self.tx_power / self.noise_bob


@dataclass(frozen=True)
class SecrecyTarget:
    """Target secrecy rate Rbar in bits/s/Hz."""

    rate: float = 0.01

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("target rate must be >= 0")

    @property
    def threshold(self) -> float:
        """4^Rbar, the SNR-ratio threshold implied by the outage event."""
        return 4.0 ** self.rate


def los_rate(dist_sq, chan: ChannelParams, noise_var: float, guided_len=0.0):
    """Line-of-sight rate (1/2)log2(1 + eta*P*exp(-2*alpha*L)/(dist^2*sigma^2)).

    Vectorized over dist_sq and guided_len.  dist_sq must be positive.
    """
    dist_sq = np.asarray(dist_sq, dtype=float)
    if np.any(dist_sq <= 0.0):
        raise ValueError("dist_sq must be positive")
    loss = np.exp(-2.0 * chan.attenuation * np.asarray(guided_len, dtype=float))
    snr = chan.eta * chan.tx_power * loss / (dist_sq * noise_var)
    return np.log1p(snr) * (0.5 / math.log(2.0))
