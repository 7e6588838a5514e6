#!/usr/bin/env python3
"""Per-command benchmark of the floworder CLI on two tandem workloads.

    python3 bench/run.py --workload tandem-large --seed 1 --seconds 35 --trace 0

Run from the root of a floworder checkout; the package is imported from
its `src/`. Every operation is one call of `floworder.cli.main` with the
argv a shell user would pass, in this one process, with `--jobs 1`. A run
times how long a fresh interpreter takes to import `floworder.cli`, then
runs whole rounds of the workload's operations until `--seconds` have
passed, then checks round 0's reports against independent computations
(checks.py); every later round must repeat round 0's exit codes and
report bytes.

With `--trace 0` it prints the end-to-end metrics, each the median over
rounds. With `--trace 1` every other round runs traced, and it prints the
per-layer metrics of the traced rounds and the tracing overhead, and
writes the spans to `.bench_runs/<workload>-trace.jsonl`. The last line
of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import checks
import oracle
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")

# (metric, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("check_s", "s", "lower"),
    ("verify_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("transient_s", "s", "lower"),
    ("sweep_s", "s", "lower"),
    ("couple_events_per_s", "events/s", "higher"),
    ("simulate_events_per_s", "events/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
TIMED = ("check", "verify", "solve", "transient", "sweep")
RATED = {"couple": "couple_rep", "simulate": "sim_rep"}  # command -> event log prefix

# The host's CPU speed drifts by up to 2x within a minute, and a run's
# later rounds are slower than its first ones. Each round's wall times are
# therefore scaled to a reference speed: multiplied by CAL_REF over the
# median time of a fixed calibration loop sampled through the round.
# CAL_REF is about the loop's median time on the machine the README
# figures come from, so scaled and raw times agree there on average.
CAL_REF = 0.026
CAL_EVERY = 0.5  # seconds of invocations between calibration samples


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of the kind floworder spends its time in:
    tuple-keyed dict builds and lookups, float sums and repr formatting."""
    start = time.perf_counter()
    table = {(i, j): float(i * j) for i in range(150) for j in range(150)}
    acc = 0.0
    for _ in range(3):
        for (i, j), v in table.items():
            if i >= j:
                acc += v
    [f"{i},{j},{v!r}" for (i, j), v in table.items()]
    return time.perf_counter() - start


class Invocation(NamedTuple):
    seconds: float  # wall time
    scaled: float  # wall time at the reference speed
    rc: int | str  # exit code, or the text of an exception
    output: str


def import_floworder():
    if not os.path.isfile(os.path.join(SRC, "floworder", "cli.py")):
        raise SystemExit(f"bench: no floworder sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    from floworder import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: floworder was imported from {cli.__file__}, not {SRC}")
    return cli


def time_imports(samples: int) -> list[float]:
    """Wall times of fresh interpreters importing floworder.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-c", "import floworder.cli"]
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def invoke(cli, argv: list[str]):
    """One CLI invocation: (seconds, exit code or exception text, captured output)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(argv)
    except (Exception, SystemExit) as e:  # a crash is a failed operation, not a failed benchmark
        rc = f"{type(e).__name__}: {e}"
    return time.perf_counter() - start, rc, buf.getvalue()


def run_round(cli, ops, rdir: str, tracer=None) -> tuple[list[Invocation], float]:
    """Every operation once, reports under rdir/opNNN; also the round's median calibration time."""
    samples = [calibrate()]
    since = time.perf_counter()
    raw = []
    for i, op in enumerate(ops):
        if time.perf_counter() - since >= CAL_EVERY:
            samples.append(calibrate())
            since = time.perf_counter()
        argv = op.argv + ["--out", os.path.join(rdir, f"op{i:03d}")]
        if tracer is None:
            result = invoke(cli, argv)
        else:
            result = tracer.span(f"cli.{op.command}", invoke, cli, argv)
        raw.append(result)
    samples.append(calibrate())
    cal = statistics.median(samples)
    return [Invocation(seconds, seconds * CAL_REF / cal, rc, output) for seconds, rc, output in raw], cal


def same_reports(a: str, b: str) -> bool:
    names = sorted(os.listdir(a)) if os.path.isdir(a) else []
    if names != (sorted(os.listdir(b)) if os.path.isdir(b) else []):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def command_metrics(ops, results: list[Invocation], events: dict, field: str) -> dict:
    """End-to-end metrics of one round from its invocations' `field` times."""
    busy = {}
    for op, inv in zip(ops, results):
        busy[op.command] = busy.get(op.command, 0.0) + getattr(inv, field)
    m = {f"{cmd}_s": busy[cmd] for cmd in TIMED}
    for cmd in RATED:
        m[f"{cmd}_events_per_s"] = sum(n for i, n in events.items() if ops[i].command == cmd) / busy[cmd]
    return m


def run(args) -> dict:
    cli = import_floworder()
    ops = workloads.build(args.workload, args.seed, args.tiny)
    base = os.path.join(RUNS, args.workload)
    r0 = os.path.join(base, "r000")
    shutil.rmtree(base, ignore_errors=True)
    # Half the set-up samples before the rounds and half after, so that
    # they see the same drift of the machine as the rounds do.
    imports = 1 if args.tiny else 4
    time_imports(1)  # writes the bytecode cache
    setup = time_imports(imports)

    tracer = tracing.Tracer() if args.trace else None
    rounds = []  # (traced, wall seconds, invocations, layer self times and counts)
    calibrations = []  # median calibration loop time per round
    problems = {}  # op index -> problems
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds or (tracer and len(rounds) < 2):
        r = len(rounds)
        rdir = os.path.join(base, f"r{r:03d}")
        traced = tracer is not None and r % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        results, cal = run_round(cli, ops, rdir, tracer if traced else None)
        wall = time.perf_counter() - t0
        layers = None
        if traced:
            tracer.restore()
            layers = tracer.take()
        rounds.append((traced, wall, results, layers))
        calibrations.append(cal)
        if r > 0:  # compare with round 0, then drop the copy so disk use stays flat
            for i, (inv, first) in enumerate(zip(results, rounds[0][2])):
                if inv.rc != first.rc:
                    problems.setdefault(i, []).append(f"round {r} exit {inv.rc}, round 0 exit {first.rc}")
                elif not same_reports(os.path.join(rdir, f"op{i:03d}"), os.path.join(r0, f"op{i:03d}")):
                    problems.setdefault(i, []).append(f"round {r} reports differ from round 0")
            shutil.rmtree(rdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += time_imports(imports)

    # An invocation fails when it raises or exits with a code its command
    # never returns on success; the others are checked against the oracle.
    bad_exit = set()
    for i, (op, inv) in enumerate(zip(ops, rounds[0][2])):
        if inv.rc not in checks.EXIT_CODES[op.command]:
            bad_exit.add(i)
        else:
            found = checks.CHECKS[op.command](op, os.path.join(r0, f"op{i:03d}"), inv.rc)
            problems.setdefault(i, []).extend(found)
    problems = {i: p for i, p in problems.items() if p}
    short = [
        (op, os.path.join(r0, f"op{i:03d}"))
        for i, op in enumerate(ops)
        if op.command == "simulate" and i not in bad_exit and float(op.opt("horizon", "10")) < checks.LONG_HORIZON
    ]
    pooled = checks.pooled_simulate_problems(short) if short else []
    events = {
        i: sum(len(oracle.read_csv(p)) for p in oracle.rep_files(os.path.join(r0, f"op{i:03d}"), RATED[op.command]))
        for i, op in enumerate(ops)
        if op.command in RATED and i not in bad_exit
    }

    n_rounds = len(rounds)
    failed_ops = bad_exit | set(problems)
    print(f"workload {args.workload} seed {args.seed}: {n_rounds} rounds of {len(ops)} invocations")
    for i in sorted(failed_ops):
        inv = rounds[0][2][i]
        lines = inv.output.strip().splitlines()
        detail = "; ".join(problems.get(i, [])) or (lines[-1] if lines else "")
        print(f"  failed: floworder {' '.join(ops[i].argv)} -> exit {inv.rc}: {detail}")
    for message in pooled:
        print(f"  check failed: {message}")
    print(f"  checks: {len(ops) - len(bad_exit)} invocations against independent computations, "
          f"{n_rounds - 1} reruns byte for byte")

    plain = [r for r in rounds if not r[0]]
    unscaled = {}
    if args.trace:
        traced_rounds = [r for r in rounds if r[0]]
        per_round = [tracing.layer_metrics(*r[3]) for r in traced_rounds]
        metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(r[1] for r in traced_rounds) / statistics.median(r[1] for r in plain) - 1.0
        )
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        path = os.path.join(RUNS, f"{args.workload}-trace.jsonl")
        meta = {"workload": args.workload, "seed": args.seed, "rounds": n_rounds}
        tracer.write(path, meta, [(r, rounds[r][3]) for r in range(n_rounds) if rounds[r][0]])
        print(f"  spans of {len(traced_rounds)} traced rounds -> {os.path.relpath(path, ROOT)}")
    else:
        per_round = [command_metrics(ops, r[2], events, "scaled") for r in plain]
        raw = [command_metrics(ops, r[2], events, "seconds") for r in plain]
        metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        unscaled = {name: statistics.median(m[name] for m in raw) for name in raw[0]}
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = peak_rss_mb
        units = {name: unit for name, unit, _ in END_TO_END}
        print(f"  calibration loop {statistics.median(calibrations) * 1e3:.2f} ms (median of rounds), "
              f"reference {CAL_REF * 1e3:.2f} ms")
    for name in units:
        note = f"   (unscaled {unscaled[name]:.6g})" if name in unscaled else ""
        print(f"  {name:34s} {metrics[name]:14.6g} {units[name]}{note}")

    attempted = n_rounds * len(ops)
    failed = n_rounds * len(failed_ops)
    print(f"  attempted {attempted}, failed {failed}")
    return {
        "correct": not problems and not pooled,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small instances, for the smoke test")
    args = ap.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
