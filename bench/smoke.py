"""Smoke check of the benchmark itself, at a tiny size.

    python3 bench/smoke.py

Run from a checkout's root.  It

* runs every workload shrunk (`--tiny`) with tracing off and on, and
  asserts that every metric BENCHMARK.json names is printed, by name and
  with its unit, in the text lines and in the final JSON line;
* shows that the output checks count a corrupted sweep as failed:
  swapped lb/ub, a bound far from the reference, and an MC value off a
  reference with zero standard error;
* shows that a patch point missing from the program is reported, does
  not crash, and leaves the sweep's output unchanged;
* shows that, in a directory holding only BENCHMARK.json and bench/, the
  benchmark exits nonzero without printing a result.

Exits nonzero on the first failed assertion.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import dataclasses
import json
import shutil
import subprocess

import run
from checks import check_records, load_reference
from tracer import PATCH_POINTS, Tracer
from workloads import WORKLOADS, config_for

ROOT = run.ROOT


def _bench(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_printed_metrics(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = _bench(["--workload", workload, "--seed", "1", "--seconds", "0.5",
                           "--trace", str(trace), "--tiny"])
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, done.stderr
            assert list(result["metrics"]) == [m["name"] for m in listed]
            for m in listed:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (m, got)
                assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                           for line in lines[:-1]), f"{m['name']} not printed"
            assert any(line.split()[:1] == ["failed_ops"] for line in lines[:-1])
            print(f"ok   {workload} trace {trace}: {len(listed)} metrics printed")


def check_corruption_is_counted(cli) -> None:
    config = config_for("paper-sweep", seed=1, tiny=True)
    grid, trials = config["snr_db_grid"], config["mc_trials"]
    reference = load_reference("paper-sweep")
    records = cli.run_sweep(cli.config_from_dict(config))
    assert check_records(records, grid, reference, trials) == []

    def corrupt(i, **changes):
        bad = list(records)
        bad[i] = dataclasses.replace(bad[i], **changes)
        return bad

    i = next(i for i, r in enumerate(records) if r.sop_lb < r.sop_ub)
    low = next(i for i, r in enumerate(records) if reference["points"][r.snr_db]["pa_sop_p"] == 1.0)
    cases = {
        "swapped sop lb/ub": corrupt(i, sop_lb=records[i].sop_ub, sop_ub=records[i].sop_lb),
        "swapped esc lb/ub": corrupt(i, esc_lb=records[i].esc_ub, esc_ub=records[i].esc_lb),
        "esc bound off the reference": corrupt(i, esc_ub=records[i].esc_ub + 1e-3),
        "sop_mc off a zero-SE reference": corrupt(low, sop_mc=1.0 - 10.0 / trials),
        "non-finite fa_esc_mc": corrupt(i, fa_esc_mc=float("nan")),
    }
    tally = run.Tally()
    for what, bad in cases.items():
        problems = check_records(bad, grid, reference, trials)
        assert problems, f"{what} passed the checks"
        tally.add(what, problems)
        print(f"ok   {what}: {problems[0]}")
    assert (tally.attempted, tally.failed) == (len(cases), len(cases))


def check_missing_patch_point(cli) -> None:
    cfg = cli.config_from_dict(config_for("paper-sweep", seed=1, tiny=True))
    untraced = cli.run_sweep(cfg)
    tracer = Tracer(PATCH_POINTS + (("gone.f", "pinchsec.cli", "no_such_function", None),))
    tracer.install()
    try:
        traced = tracer.call("cli.run_sweep", cli.run_sweep, cfg)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["pinchsec.cli.no_such_function"], tracer.missing
    assert traced == untraced
    assert not hasattr(cli.mc_sop_pa, "__wrapped__"), "a patch was not restored"
    print("ok   missing patch point reported; traced sweep output unchanged; patches restored")


def check_fails_without_program() -> None:
    bare = run.RUN_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench")
    done = _bench(["--workload", "paper-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0 and '"metrics"' not in done.stdout, done.stdout
    print(f"ok   without src/: exit {done.returncode}, {done.stderr.strip()}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = run._import_cli()
    check_corruption_is_counted(cli)
    check_missing_patch_point(cli)
    check_fails_without_program()
    check_printed_metrics(spec)
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
