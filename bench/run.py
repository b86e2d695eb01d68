"""pinchsec benchmark: closed-loop sweeps of one workload, checked and timed.

    python3 bench/run.py --workload paper-sweep --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 32 --trace 0

Run it from a checkout's root; it imports pinchsec from `src/` of that
checkout and writes only under `.bench_run/` there.  One client runs
sweeps back to back: each starts after the previous one has finished.

With `--trace 0` it measures the end-to-end metrics listed in
BENCHMARK.json, with tracing off.  The `--seconds` window interleaves
in-process sweeps, CLI processes and set-up processes by time share:

* `sweep_s_p50`, `sweep_s_tail`: in-process `run_sweep` wall time (median,
  and the workload's fixed tail percentile);
* `cli_wall_s`, `peak_rss_mb`: wall time and max RSS of fresh
  `pinchsec sweep --config ... --out ...` processes (medians);
* `setup_s`: wall time of fresh interpreters that import pinchsec, load
  the config and build the quadrature rule (median);
* `bound_max_abs_err`: largest |bound - independent reference|.

`failed_ops` (failed or incorrect operations over those attempted) is
printed as well and is the `failed`/`attempted` pair of the result line.

With `--trace 1` it alternates untraced sweeps with traced iterations
(the outside-in tracer of tracer.py installed) and reports the per-layer
metrics of BENCHMARK.json, each the median over traced iterations of its
per-iteration value; the spans of the first traced iteration are written
to `spans.jsonl`.

Every sweep is checked (checks.py); a failed check is counted, not fatal.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; a fuller run record
(`record.json`) is written under `.bench_run/`.
"""

from __future__ import annotations

import os
import sys

# Before numpy is imported, here and in every child process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
sys.dont_write_bytecode = True

import argparse
import json
import platform
import signal
import statistics
import subprocess
import threading
from pathlib import Path
from time import perf_counter

from checks import bound_max_abs_err, check_records, load_reference
from tracer import PATCH_POINTS, Tracer, summarize
from workloads import WORKLOADS, config_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

# Shares of a run's time: in-process sweeps, CLI processes, set-up processes.
SWEEP_SHARE, CLI_SHARE, SETUP_SHARE = 0.65, 0.25, 0.10
CHILD_TIMEOUT_S = 60.0
MAX_PROBLEMS_SHOWN = 10

_CLI_CODE = "import sys; from pinchsec.cli import main; sys.exit(main())"
_SETUP_CODE = """\
import sys
import pinchsec
import pinchsec.quad
from pinchsec.cli import load_config
cfg = load_config(sys.argv[1])
make_rule = getattr(pinchsec.quad, "make_rule", None)
if make_rule is not None:
    make_rule(cfg.quadrature_n)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _import_cli():
    if not (SRC / "pinchsec" / "__init__.py").is_file():
        raise BenchError(f"no pinchsec source under {SRC}")
    sys.path.insert(0, str(SRC))
    import pinchsec.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "pinchsec":
        raise BenchError(f"imported pinchsec from {cli.__file__}, not from {SRC}")
    return cli


def _child_env() -> dict:
    # the thread-count variables set above are inherited
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")


def _spawn(args, stderr_path: Path) -> tuple[float, int, int]:
    """Run `python <args>`; wall seconds, max RSS in KiB, exit code of the child."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr_path),
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], _child_env(),
                         file_actions=actions)
    killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    killer.start()
    reaped = False
    try:
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        killer.cancel()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status)


def _child_problems(code: int, stderr_path: Path) -> list[str]:
    return [f"exit {code}: {stderr_path.read_text(errors='replace')[-300:]}"] if code else []


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS_SHOWN:
                self.problems.append(f"{what}: {problems[0]}"
                                     + (f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""))


class Run:
    def __init__(self, cli, workload: str, seed: int, tiny: bool, out_dir: Path):
        self.cli = cli
        self.workload = workload
        self.config = config_for(workload, seed, tiny)
        self.grid = self.config["snr_db_grid"]
        self.reference = load_reference(workload)
        self.tally = Tally()
        self.out_dir = out_dir
        self.config_path = out_dir / "config.json"
        self.config_path.write_text(json.dumps(self.config), encoding="ascii")
        self.cfg = cli.config_from_dict(self.config)

    def check(self, what: str, records) -> None:
        self.tally.add(what, check_records(records, self.grid, self.reference,
                                           self.config["mc_trials"]))

    def sweep(self, what: str):
        """One checked in-process sweep; its wall time and records (None on error)."""
        start = perf_counter()
        try:
            records = self.cli.run_sweep(self.cfg)
        except Exception as exc:  # counted as a failed sweep; the loop goes on
            self.tally.add(what, [f"{type(exc).__name__}: {exc}"])
            return perf_counter() - start, None
        elapsed = perf_counter() - start
        self.check(what, records)
        return elapsed, records

    def setup(self, what: str) -> float:
        """Wall time of one fresh interpreter that sets up a sweep."""
        err = self.out_dir / "setup.stderr"
        wall, _, code = _spawn(["-c", _SETUP_CODE, str(self.config_path)], err)
        self.tally.add(what, _child_problems(code, err))
        return wall

    def cli_sweep(self, what: str, expected_csv: bytes) -> tuple[float, float]:
        """Wall time and max RSS (MB) of one checked CLI sweep process."""
        out = self.out_dir / "cli.csv"
        err = self.out_dir / "cli.stderr"
        out.unlink(missing_ok=True)
        wall, rss_kb, code = _spawn(["-c", _CLI_CODE, "sweep", "--config",
                                     str(self.config_path), "--out", str(out)], err)
        if code:
            self.tally.add(what, _child_problems(code, err))
        elif out.read_bytes() != expected_csv:
            self.tally.add(what, ["CSV differs from the in-process sweep's write_csv"])
        else:
            self.check(what, self.cli.read_csv(str(out)))
        return wall, rss_kb / 1024.0


def interleave(seconds: float, ops: dict) -> None:
    """Run ops round-robin until `seconds` have passed, by time share.

    ops maps a name to (share, minimum count, op); op takes its call index.
    Each step runs the op furthest below its share of the time spent, so
    a burst of load from other tenants of a shared host hits every metric
    alike instead of the whole of one phase.
    """
    spent = dict.fromkeys(ops, 0.0)
    count = dict.fromkeys(ops, 0)
    deadline = perf_counter() + seconds
    while True:
        short = [k for k, (_, least, _) in ops.items() if count[k] < least]
        if not short and perf_counter() >= deadline:
            return
        name = min(short or ops, key=lambda k: spent[k] / ops[k][0])
        start = perf_counter()
        ops[name][2](count[name])
        spent[name] += perf_counter() - start
        count[name] += 1


def _quartiles(values) -> dict:
    if len(values) < 2:
        return {"n": len(values), "q1": values[0], "median": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def _percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end values and their sample statistics."""
    warm_s, records = run.sweep("warm-up sweep")
    if records is None:
        raise BenchError(f"the warm-up sweep failed: {run.tally.problems[-1]}")
    expected = run.out_dir / "expected.csv"
    run.cli.write_csv(records, str(expected))
    expected_csv = expected.read_bytes()
    times, setup, cli_walls, rss = [], [], [], []

    def cli_sweep(i):
        wall, mb = run.cli_sweep(f"cli sweep {i}", expected_csv)
        cli_walls.append(wall)
        rss.append(mb)

    interleave(seconds, {
        "sweep": (SWEEP_SHARE, 3, lambda i: times.append(run.sweep(f"sweep {i}")[0])),
        "cli": (CLI_SHARE, 3, cli_sweep),
        "setup": (SETUP_SHARE, 3, lambda i: setup.append(run.setup(f"setup {i}"))),
    })
    p = WORKLOADS[run.workload]["tail_percentile"]
    tail = _percentile(times, p)
    values = {
        "sweep_s_p50": statistics.median(times),
        "sweep_s_tail": tail,
        "cli_wall_s": statistics.median(cli_walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
        "bound_max_abs_err": bound_max_abs_err(records, run.reference),
    }
    stats = {
        "sweep_s_p50": _quartiles(times),
        "sweep_s_tail": {"percentile": p, "n": len(times),
                         "beyond": sum(t > tail for t in times)},
        "cli_wall_s": _quartiles(cli_walls),
        "setup_s": _quartiles(setup),
        "peak_rss_mb": _quartiles(rss),
        "bound_max_abs_err": {"n": 1},
        "warm_up_sweep_s": warm_s,
    }
    return values, stats


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _layer_values(summary: dict, trials: int) -> dict:
    def get(name, key="busy_s"):
        return summary.get(name, {}).get(key) or 0

    mc = [n for n, *_ in PATCH_POINTS if n.startswith("montecarlo.mc_")]
    bounds = [n for n, *_ in PATCH_POINTS if n.startswith("bounds.")]
    mc_busy = sum(get(n) for n in mc)
    trials_done = sum(get(n, "work") for n in mc)
    drawn = get("montecarlo.draw_positions", "work")
    asym_calls = get("bounds.sop_asymptotic", "calls") + get("bounds.esc_asymptotic", "calls")
    wall = get("cli.run_sweep")
    v = {}
    for n in mc + bounds:
        v[f"{n}.calls"] = get(n, "calls")
        v[f"{n}.busy_s"] = get(n)
    v.update({
        "montecarlo.trials_evaluated": trials_done,
        "montecarlo.trials_per_s": _ratio(trials_done, mc_busy),
        "montecarlo.self_s": mc_busy - get("model.los_rate"),
        "montecarlo.positions_drawn": drawn,
        "montecarlo.draw_positions.busy_s": get("montecarlo.draw_positions"),
        "montecarlo.position_useful_ratio": _ratio(trials, drawn),
        "montecarlo.concurrency": _ratio(mc_busy, wall),
        "model.los_rate.calls": get("model.los_rate", "calls"),
        "model.los_rate.busy_s": get("model.los_rate"),
        "model.los_rate.elements": get("model.los_rate", "work"),
        "bounds.self_s": sum(get(n) for n in bounds) - get("quad.integrate"),
        # the asymptotes do not depend on rho: one call of each per sweep is needed
        "bounds.asym_useful_ratio": _ratio(2, asym_calls),
        "quad.integrate.calls": get("quad.integrate", "calls"),
        "quad.integrate.busy_s": get("quad.integrate"),
        "quad.integrate.nodes": get("quad.integrate", "work"),
        "quad.make_rule.busy_s": get("quad.make_rule"),
        "diststats.cdf.calls": get("diststats.cdf", "calls"),
        "diststats.cdf.busy_s": get("diststats.cdf"),
        "diststats.pdf.calls": get("diststats.pdf", "calls"),
        "diststats.pdf.busy_s": get("diststats.pdf"),
        "cli.config.busy_s": get("cli.config"),
        "cli.run_sweep.busy_s": wall,
        "cli.run_sweep.self_s": get("cli.run_sweep", "self_s"),
        "cli.write_csv.busy_s": get("cli.write_csv"),
        "cli.write_csv.bytes": get("cli.write_csv", "work"),
    })
    return v


def per_layer(run: Run, seconds: float) -> tuple[dict, dict, list, list]:
    """Per-layer values, their statistics, the first traced iteration's spans
    and the patch points found missing.

    Untraced sweeps and traced iterations alternate; a traced iteration
    runs config_from_dict, run_sweep and write_csv, as the CLI does.  The
    tracer is installed only around traced iterations.
    """
    run.sweep("warm-up sweep")
    tracer = Tracer()
    csv_path = run.out_dir / "traced.csv"
    untraced, rows, first_spans = [], [], []

    def traced(i):
        nonlocal first_spans
        tracer.install()
        try:
            cfg = tracer.call("cli.config", run.cli.config_from_dict, run.config)
            records = tracer.call("cli.run_sweep", run.cli.run_sweep, cfg)
            tracer.call("cli.write_csv", run.cli.write_csv, records, str(csv_path),
                        work=lambda: csv_path.stat().st_size)
        except Exception as exc:  # counted as a failed sweep; the loop goes on
            run.tally.add(f"traced sweep {i}", [f"{type(exc).__name__}: {exc}"])
            return
        finally:
            tracer.uninstall()
            spans = tracer.take()
        first_spans = first_spans or spans
        rows.append(_layer_values(summarize(spans), run.config["mc_trials"]))
        run.check(f"traced sweep {i}", records)

    interleave(seconds, {
        "untraced": (0.5, 2, lambda i: untraced.append(run.sweep(f"sweep {i}")[0])),
        "traced": (0.5, 2, traced),
    })
    if not rows:
        raise BenchError(f"no traced sweep succeeded: {run.tally.problems[-1]}")
    values, stats = {}, {}
    for name in rows[0]:
        series = [r[name] for r in rows]
        values[name] = statistics.median(series)
        stats[name] = _quartiles(series)
    values["trace.overhead_s"] = values["cli.run_sweep.busy_s"] - statistics.median(untraced)
    stats["trace.overhead_s"] = {"untraced_sweep_s": _quartiles(untraced)}
    return values, stats, first_spans, tracer.missing


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _environment(cli) -> dict:
    import numpy
    return {"commit": _git_commit(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "numpy": numpy.__version__, "python": platform.python_version(),
            "platform": platform.platform(), "pinchsec": str(Path(cli.__file__).parent)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken workload, for the smoke check")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = _import_cli()
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        run_workload(cli, spec, workload, args)
    return 0


def run_workload(cli, spec: dict, workload: str, args) -> None:
    """Measure one workload; print its metrics, last the JSON result line."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    tag = f"{workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    out_dir = RUN_DIR / tag
    out_dir.mkdir(parents=True, exist_ok=True)
    run = Run(cli, workload, args.seed, args.tiny, out_dir)

    missing = []
    if args.trace:
        values, stats, spans, missing = per_layer(run, args.seconds)
        with open(out_dir / "spans.jsonl", "w", encoding="ascii") as fh:
            for sid, parent, name, tid, start, end, work in spans:
                fh.write(json.dumps({"iteration": 0, "id": sid, "parent": parent, "name": name,
                                     "thread": tid, "start": start, "end": end,
                                     "work": work}) + "\n")
    else:
        values, stats = end_to_end(run, args.seconds)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    tally = run.tally
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "config": run.config,
              "environment": _environment(cli), "metrics": metrics, "samples": stats,
              "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems, "missing_patch_points": missing}
    (out_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")

    print(f"workload {workload}, seed {args.seed} (mc_seed {run.config['mc_seed']}), "
          f"trace {args.trace}")
    for name, m in metrics.items():
        detail = stats.get(name, {})
        extra = (f"p{detail['percentile']}, n={detail['n']}, {detail['beyond']} beyond"
                 if "percentile" in detail else f"n={detail['n']}" if "n" in detail else "")
        print(f"  {name} {m['value']!r} {m['unit']}" + (f" ({extra})" if extra else ""))
    print(f"  failed_ops {tally.failed}/{tally.attempted} ops")
    for name in missing:
        print(f"  trace: patch point {name} is missing")
    for problem in tally.problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(f"  record {out_dir.relative_to(ROOT) / 'record.json'}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
