"""Generate the committed reference values the benchmark checks sweeps against.

    python3 bench/make_reference.py [workload ...]

writes bench/reference/<workload>.json for each named workload (all by
default).  It does not import pinchsec: it re-derives everything from the
model stated in the README, so a defect shared with the program cannot
hide.

* The 8 bound and asymptote columns come from `scipy.integrate.quad`.
  Expectations over Zw = (x1-x2)^2 + y2^2 + d^2 are written as integrals
  over the uniform positions themselves, s = |x1 - x2| (density
  2(D-s)/D^2 on [0, D]) and y = |y2| (density 2/D on [0, D/2]), so the
  piecewise Zw density is never used; F_Zb(t) = (2/D) sqrt(t - d^2) on
  the Zb support.  The kinks of the SOP integrand, where the outage
  threshold reaches an end of the Zb support, are passed to quad as
  `points` on both the inner and the outer integral.
* The MC columns come from an independent vectorized simulation of the
  exact model with many more trials than the workload uses, stored as
  means, per-trial standard deviations and trial counts, so that the
  benchmark can test a run statistically.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.integrate import quad

from workloads import WORKLOADS

SPEED_OF_LIGHT = 299792458.0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# MC trials per workload: enough that the reference's own standard error
# is small next to that of a run.
MC_TRIALS = {"paper-sweep": 2_000_000, "dense-bounds": 200_000, "mc-deep": 8_000_000}
MC_SEED = 20261017
MC_CHUNK = 100_000

# Tighter than this, quad reports roundoff on some dense-bounds points;
# at these settings a run with 10x tighter tolerances agrees to 5e-14.
_INNER = {"epsabs": 1e-14, "epsrel": 1e-12, "limit": 400}
_OUTER = {"epsabs": 1e-12, "epsrel": 1e-11, "limit": 400}


class Model:
    def __init__(self, cfg: dict):
        if cfg["noise_bob_var"] != cfg["noise_willie_var"]:
            raise ValueError("bounds need equal noise variances")
        self.D = float(cfg["side_length_D"])
        self.d2 = float(cfg["waveguide_height_d"]) ** 2
        self.alpha = float(cfg["attenuation_alpha"])
        self.noise = float(cfg["noise_bob_var"])
        self.eta = SPEED_OF_LIGHT ** 2 / (16.0 * math.pi ** 2 * float(cfg["carrier_freq_hz"]) ** 2)
        self.fr = 4.0 ** float(cfg["target_rate_bits"])
        self.span = math.exp(-2.0 * self.alpha * self.D)
        self.zb_hi = self.d2 + self.D ** 2 / 4.0

    def rho(self, snr_db: float) -> float:
        return 10.0 ** (snr_db / 10.0) / self.noise

    def cdf_zb(self, t: float) -> float:
        u = min(max(t - self.d2, 0.0), self.D ** 2 / 4.0)
        return (2.0 / self.D) * math.sqrt(u)

    def expect_zb(self, h) -> float:
        """E[h(Zb)] with Zb = y^2 + d^2, y uniform on [0, D/2]."""
        val, _ = quad(lambda y: h(y * y + self.d2), 0.0, self.D / 2.0, **_OUTER)
        return (2.0 / self.D) * val

    def expect_zw(self, g, kinks=()) -> float:
        """E[g(Zw)] as a double integral over s = |x1-x2| and y = |y2|.

        `kinks` are the z values where g has a kink; they become break
        points of the inner (y) and outer (s) integrals.
        """
        D, d2 = self.D, self.d2
        half = D / 2.0

        def inner(s):
            base = s * s + d2
            pts = [math.sqrt(z - base) for z in kinks if base < z < base + half * half]
            val, _ = quad(lambda y: g(base + y * y), 0.0, half,
                          points=pts or None, **_INNER)
            return val * (2.0 / D) * 2.0 * (D - s) / D ** 2

        outer_pts = []
        for z in kinks:
            for edge in (0.0, half * half):
                v = z - d2 - edge
                if 0.0 < v < D * D:
                    outer_pts.append(math.sqrt(v))
        val, _ = quad(inner, 0.0, D, points=sorted(set(outer_pts)) or None, **_OUTER)
        return val

    # -- SOP ---------------------------------------------------------------

    def _no_outage(self, threshold, z_of_t):
        """E_Zw[F_Zb(threshold(Zw))]; z_of_t inverts the threshold."""
        kinks = [z for z in (z_of_t(self.d2), z_of_t(self.zb_hi)) if z is not None]
        return self.expect_zw(lambda z: self.cdf_zb(threshold(z)), kinks)

    def sop(self, rho: float, bob: float, willie: float) -> float:
        er, fr = self.eta * rho, self.fr

        def threshold(z):
            denom = (fr - 1.0) + fr * er * willie / z
            return er * bob / denom if denom > 0 else math.inf

        def z_of_t(t):
            denom = er * bob / t - (fr - 1.0)
            return fr * er * willie / denom if denom > 0 else None

        return _clamp(1.0 - self._no_outage(threshold, z_of_t))

    def sop_asym(self, bob: float, willie: float) -> float:
        factor = bob / (self.fr * willie)
        return _clamp(1.0 - self._no_outage(lambda z: z * factor, lambda t: t / factor))

    # -- ESC ---------------------------------------------------------------

    def esc(self, rho: float, bob: float, willie: float) -> float:
        er = self.eta * rho
        cb = self.expect_zb(lambda z: math.log2(1.0 + er * bob / z))
        cw = self.expect_zw(lambda z: math.log2(1.0 + er * willie / z))
        return 0.5 * (cb - cw)

    def esc_asym(self) -> tuple[float, float]:
        gap = self.expect_zw(math.log2) - self.expect_zb(math.log2)
        log_span = math.log2(self.span)
        return 0.5 * (gap + log_span), 0.5 * (gap - log_span)


def _clamp(p: float) -> float:
    return min(1.0, max(0.0, p))


def bound_reference(cfg: dict) -> list[dict]:
    m = Model(cfg)
    s = m.span
    # SOP: upper bound uses (bob, willie) factors (span, 1), lower (1, span);
    # ESC the other way round.
    sop_asym = {"sop_asym_lb": m.sop_asym(1.0, s), "sop_asym_ub": m.sop_asym(s, 1.0)}
    esc_lb_asym, esc_ub_asym = m.esc_asym()
    rows = []
    for snr in cfg["snr_db_grid"]:
        rho = m.rho(snr)
        rows.append({"snr_db": float(snr),
                     "sop_lb": m.sop(rho, 1.0, s), "sop_ub": m.sop(rho, s, 1.0),
                     **sop_asym,
                     "esc_lb": m.esc(rho, s, 1.0), "esc_ub": m.esc(rho, 1.0, s),
                     "esc_asym_lb": esc_lb_asym, "esc_asym_ub": esc_ub_asym})
    return rows


def mc_reference(cfg: dict, trials: int) -> list[dict]:
    """Exact-model MC: PA with guided loss, FA from [0, 0, d], shared positions."""
    m = Model(cfg)
    rhos = np.array([m.rho(s) for s in cfg["snr_db_grid"]])[:, None]
    rate_target = float(cfg["target_rate_bits"])
    rng = np.random.default_rng(MC_SEED)
    acc = np.zeros((4, rhos.size))  # pa outage count, pa sum, fa outage count, fa sum
    acc2 = np.zeros((2, rhos.size))  # pa, fa sums of squares
    half = m.D / 2.0
    done = 0
    while done < trials:
        n = min(MC_CHUNK, trials - done)
        x1, x2, y1, y2 = (rng.uniform(-half, half, n) for _ in range(4))
        loss = np.exp(-2.0 * m.alpha * (x1 + half))
        pa_b = m.eta * loss / (y1 ** 2 + m.d2)
        pa_w = m.eta * loss / ((x1 - x2) ** 2 + y2 ** 2 + m.d2)
        fa_b = m.eta / (x1 ** 2 + y1 ** 2 + m.d2)
        fa_w = m.eta / (x2 ** 2 + y2 ** 2 + m.d2)
        for col, (gb, gw) in enumerate(((pa_b, pa_w), (fa_b, fa_w))):
            sec = 0.5 * (np.log2(1.0 + rhos * gb) - np.log2(1.0 + rhos * gw))
            acc[2 * col] += np.sum(sec < rate_target, axis=1)
            acc[2 * col + 1] += np.sum(sec, axis=1)
            acc2[col] += np.sum(sec * sec, axis=1)
        done += n
    rows = []
    for i, snr in enumerate(cfg["snr_db_grid"]):
        row = {"snr_db": float(snr)}
        for col, tag in enumerate(("pa", "fa")):
            mean = acc[2 * col + 1, i] / trials
            var = max((acc2[col, i] - trials * mean * mean) / (trials - 1), 0.0)
            row[f"{tag}_sop_p"] = acc[2 * col, i] / trials
            row[f"{tag}_esc_mean"] = mean
            row[f"{tag}_esc_sd"] = math.sqrt(var)
        rows.append(row)
    return rows


def main(names) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        cfg = WORKLOADS[name]["config"]
        t0 = time.perf_counter()
        bounds = bound_reference(cfg)
        t1 = time.perf_counter()
        mc = mc_reference(cfg, MC_TRIALS[name])
        t2 = time.perf_counter()
        points = [dict(b, **{k: v for k, v in c.items() if k != "snr_db"})
                  for b, c in zip(bounds, mc)]
        doc = {"workload": name,
               "scipy": scipy.__version__,
               "numpy": np.__version__,
               "mc_trials": MC_TRIALS[name],
               "mc_seed": MC_SEED,
               "points": points}
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="ascii")
        print(f"{name}: bounds {t1 - t0:.1f} s, mc {t2 - t1:.1f} s -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
