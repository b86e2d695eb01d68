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
formed as log1p(snr) * _HALF_LOG2E, which keeps the digits of an SNR << 1.
The secrecy rates Rb - Rw of the Monte Carlo and of both placements, and
the ESC bracket's r(A) - r(B) and rate offsets, are not differences of two
such rates: each is one log1p of the one ratio of _secrecy_ratio, which
neither cancels at high SNR nor costs a second log1p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0
_HALF_LOG2E = 0.5 / math.log(2.0)  # (1/2)log2(1 + x) = log1p(x) * _HALF_LOG2E


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
    """Carrier, attenuation and noise parameters; the transmit power is each function's argument.

    eta is the free-space path factor c^2 / (16 pi^2 fc^2); alpha is the
    in-waveguide amplitude attenuation constant in nepers per meter.
    """

    carrier_freq: float = 10e9
    attenuation: float = 0.01
    noise_bob: float = 1.0
    noise_willie: float = 1.0

    def __post_init__(self):
        if not (self.carrier_freq > 0):
            raise ValueError("carrier_freq must be > 0")
        if not (self.attenuation >= 0):
            raise ValueError("attenuation must be >= 0")
        if not (self.noise_bob > 0 and self.noise_willie > 0):
            raise ValueError("noise variances must be > 0")

    @property
    def eta(self) -> float:
        return SPEED_OF_LIGHT ** 2 / (16.0 * math.pi ** 2 * self.carrier_freq ** 2)


@dataclass(frozen=True)
class SecrecyTarget:
    """Target secrecy rate Rbar in bits/s/Hz."""

    rate: float = 0.01

    def __post_init__(self):
        if not (self.rate >= 0):
            raise ValueError("target rate must be >= 0")

    @property
    def threshold(self) -> float:
        """4^Rbar, the SNR-ratio threshold implied by the outage event.

        +inf where 4^Rbar overflows (Rbar >= 512): outage is then certain.
        """
        try:
            return 4.0 ** self.rate
        except OverflowError:
            return math.inf

    @property
    def threshold_minus_one(self) -> float:
        """4^Rbar - 1 by expm1, which keeps a small Rbar's digits; +inf where `threshold` is."""
        return math.expm1(self.rate * math.log(4.0)) if self.threshold < math.inf else math.inf


def _tx_powers(tx_powers) -> np.ndarray:
    """A 1-D grid of transmit powers as a float array; the one check that a power is > 0."""
    powers = np.asarray(tx_powers, dtype=float)
    if powers.ndim != 1:
        raise ValueError(f"tx_powers must be a 1-D sequence, not of shape {powers.shape}")
    if not np.all(powers > 0):  # NaN fails it too; +inf is valid
        raise ValueError("tx_power must be > 0")
    return powers


def _secrecy_ratio(r, p, q, out=None):
    """t = p/(r + q), a difference of two rates as one log1p(t); r is a number or a column.

    Rb - Rw = (1/2)log2((1 + S/Nb)/(1 + S/Nw)) = log1p(t)/(2 ln 2) with
    S = eta*P*loss, noise powers Nb = zb*sigma_b^2 and Nw = zw*sigma_w^2, and
    t = S*(Nw - Nb)/(Nb*(Nw + S)): p = (Nw - Nb)*loss/(Nb*Nw) and q = loss/Nw
    from the geometry, r = 1/(eta*P) from the power, one add and one divide
    per trial and power.  An outage is t < 4^Rbar - 1, which log1p does not
    round.  r = +inf gives t = 0; r = 0 (rho = inf) the high-SNR limit
    (Nw - Nb)/Nb.  Given `out`, an array of t's shape, it allocates nothing.
    """
    return np.divide(p, np.add(r, q, out=out), out=out)


def los_rate(dist_sq, chan: ChannelParams, tx_power: float, noise_var: float, guided_len=0.0):
    """Line-of-sight rate (1/2)log2(1 + eta*P*exp(-2*alpha*L)/(dist^2*sigma^2)) at P = tx_power.

    Vectorized over dist_sq and guided_len.  dist_sq must be positive.
    """
    power, = _tx_powers([tx_power])
    dist_sq = np.asarray(dist_sq, dtype=float)
    if np.any(dist_sq <= 0.0):
        raise ValueError("dist_sq must be positive")
    loss = np.exp(-2.0 * chan.attenuation * np.asarray(guided_len, dtype=float))
    return np.log1p(chan.eta * power * loss / (dist_sq * noise_var)) * _HALF_LOG2E
