"""Output checks for one sweep, against the committed reference.

A sweep passes when, at every grid point:

* every column is finite;
* the SOP columns lie in [0, 1];
* lb <= ub for the SOP, ESC and both asymptote pairs;
* each bound and asymptote lies within BOUND_GATE of the independent
  reference (a gross-error gate; the fine error is the reported metric
  `bound_max_abs_err`);
* each MC column lies within K_SE combined standard errors of the
  reference simulation.  Standard errors come from the reference's
  per-trial spread, so a reordered float sum or another `mc_seed` still
  passes.  Proportions use the Agresti-Coull estimate (x+2)/(n+4), so a
  reference of exactly 0 or 1 still yields a nonzero, meaningful width.

Criteria 4b (ESC upper bound tighter) and 6a (PA SOP strictly below FA)
are not checked: both fail because of the exact model itself.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

BOUND_COLUMNS = ("sop_lb", "sop_ub", "sop_asym_lb", "sop_asym_ub",
                 "esc_lb", "esc_ub", "esc_asym_lb", "esc_asym_ub")
SOP_COLUMNS = ("sop_lb", "sop_ub", "sop_asym_lb", "sop_asym_ub", "sop_mc", "fa_sop_mc")
PAIRS = (("sop_lb", "sop_ub"), ("sop_asym_lb", "sop_asym_ub"),
         ("esc_lb", "esc_ub"), ("esc_asym_lb", "esc_asym_ub"))
# record column -> (reference key, kind)
MC_COLUMNS = {"sop_mc": ("pa_sop", "p"), "esc_mc": ("pa_esc", "mean"),
              "fa_sop_mc": ("fa_sop", "p"), "fa_esc_mc": ("fa_esc", "mean")}
ALL_COLUMNS = ("snr_db",) + BOUND_COLUMNS + tuple(MC_COLUMNS) + ("sop_mc_se", "esc_mc_se")

K_SE = 6.0
BOUND_GATE = 1e-4


def load_reference(workload: str) -> dict:
    """Reference rows of a workload keyed by snr_db, plus the MC trial count."""
    doc = json.loads((REFERENCE_DIR / f"{workload}.json").read_text(encoding="ascii"))
    return {"mc_trials": doc["mc_trials"],
            "points": {p["snr_db"]: p for p in doc["points"]}}


def _mc_tolerance(ref_point: dict, key: str, kind: str, n_run: int, n_ref: int) -> float:
    if kind == "p":
        p = (ref_point[f"{key}_p"] * n_ref + 2.0) / (n_ref + 4.0)
        sd = math.sqrt(p * (1.0 - p))
    else:
        sd = ref_point[f"{key}_sd"]
    return K_SE * sd * math.sqrt(1.0 / n_run + 1.0 / n_ref) + 1e-15


def _ref_value(ref_point: dict, key: str, kind: str) -> float:
    return ref_point[f"{key}_p"] if kind == "p" else ref_point[f"{key}_mean"]


def check_records(records, grid, reference: dict, trials: int) -> list[str]:
    """Problems found in one sweep's records; empty when the sweep is correct."""
    if len(records) != len(grid):
        return [f"{len(records)} records for {len(grid)} grid points"]
    problems = []
    n_ref = reference["mc_trials"]
    for rec, snr in zip(records, grid):
        try:
            row = {c: float(getattr(rec, c)) for c in ALL_COLUMNS}
        except (AttributeError, TypeError, ValueError) as exc:
            return [f"unreadable record at snr_db {snr}: {exc}"]
        if row["snr_db"] != snr:
            problems.append(f"snr_db {row['snr_db']} where the grid has {snr}")
            continue
        where = f"snr_db {snr}"
        bad = [c for c, v in row.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"{where}: non-finite {', '.join(bad)}")
            continue
        for c in SOP_COLUMNS:
            if not 0.0 <= row[c] <= 1.0:
                problems.append(f"{where}: {c} = {row[c]!r} outside [0, 1]")
        for lo, hi in PAIRS:
            if not row[lo] <= row[hi]:
                problems.append(f"{where}: {lo} = {row[lo]!r} > {hi} = {row[hi]!r}")
        for c in ("sop_mc_se", "esc_mc_se"):
            if row[c] < 0.0:
                problems.append(f"{where}: {c} = {row[c]!r} < 0")
        ref = reference["points"].get(snr)
        if ref is None:
            problems.append(f"{where}: no reference point")
            continue
        for c in BOUND_COLUMNS:
            if abs(row[c] - ref[c]) > BOUND_GATE:
                problems.append(f"{where}: {c} = {row[c]!r}, reference {ref[c]!r}")
        for c, (key, kind) in MC_COLUMNS.items():
            want = _ref_value(ref, key, kind)
            tol = _mc_tolerance(ref, key, kind, trials, n_ref)
            if abs(row[c] - want) > tol:
                problems.append(f"{where}: {c} = {row[c]!r}, reference {want!r} "
                                f"+/- {tol:.3g} ({K_SE:g} combined SE)")
    return problems


def bound_max_abs_err(records, reference: dict) -> float:
    """Largest |value - reference| over the 8 bound and asymptote columns."""
    return max(abs(float(getattr(rec, c)) - reference["points"][float(rec.snr_db)][c])
               for rec in records for c in BOUND_COLUMNS)
