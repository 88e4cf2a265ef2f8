#!/usr/bin/env python3
"""Benchmark of the focalcal CLI on seeded workloads.

    python3 bench/run.py --workload report --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; focalcal is imported from ``src/``.
One process makes the workload's CLI calls one after another through
``focalcal.cli.run`` (a closed loop with one caller), in rounds with fresh
inputs, until ``--seconds`` have passed. Every output is then checked
against the independent computations in ``checks.py``. The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed`` (CLI
calls), and the metrics named in BENCHMARK.json, the end-to-end ones with
``--trace 0`` and the per-layer ones with ``--trace 1``.

Set-up time is measured in fresh interpreters started one at a time before
the workload. Inputs, outputs and spans go to ``bench/work/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
SETUP_PROBES = 3
# the probe prints perf_counter() once focalcal.cli is imported; on Linux it
# reads CLOCK_MONOTONIC, which every process shares, so the parent can
# subtract its own reading taken before the interpreter was started
PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import focalcal.cli; "
         "print(time.perf_counter())")


def setup_probe(importtime: bool):
    """(seconds from starting an interpreter to focalcal.cli imported, -X importtime log)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", PROBE, str(SRC)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0, proc.stderr


def import_times(log: str):
    """(scipy, focalcal) import seconds from an -X importtime log.

    scipy: the cumulative time of each scipy module imported from outside
    scipy. focalcal: the self time of focalcal's own modules.
    """
    scipy_us = focalcal_us = 0
    stack = []
    # the log lists each module after the ones it imports, indented by depth
    for line in reversed(log.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        del stack[depth:]
        top = name.split(".")[0]
        if top == "scipy" and not any(s.split(".")[0] == "scipy" for s in stack):
            scipy_us += int(cum_us)
        if top == "focalcal":
            focalcal_us += int(self_us)
        stack.append(name)
    return scipy_us / 1e6, focalcal_us / 1e6


def run_calls(cli, calls):
    """Make the calls in order; (wall seconds, calls that failed)."""
    failed = 0
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for argv in calls:
            try:
                failed += cli.run(argv) != 0
            except (Exception, SystemExit):
                traceback.print_exc()
                failed += 1
    return time.perf_counter() - t0, failed


def digest(paths):
    return [hashlib.sha256(Path(p).read_bytes()).hexdigest() if Path(p).exists() else None
            for p in paths]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "focalcal" / "cli.py").is_file():
        print(f"error: no focalcal sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)

    probes = [setup_probe(trace) for _ in range(SETUP_PROBES)]
    sys.path.insert(0, str(SRC))
    import focalcal.cli as cli

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if trace else None
    rounds, times, traced_times, per_round = [], [], [], []
    failed = attempted = 0
    mismatched = []
    deadline = time.perf_counter() + args.seconds
    while not times or time.perf_counter() < deadline:
        index = len(rounds)
        rnd = workloads.make_round(args.workload, args.seed, index, work / f"r{index:03d}")
        seconds, bad = run_calls(cli, rnd.calls)
        attempted += len(rnd.calls)
        failed += bad
        rounds.append((rnd, bad))
        times.append(seconds)
        if trace:
            # the same inputs again, traced: payloads must not change
            before = digest(rnd.payloads)
            first, written = len(tracer.spans), tracer.bytes_written
            tracer.install()
            try:
                seconds, bad = run_calls(cli, rnd.calls)
            finally:
                tracer.uninstall()
            attempted += len(rnd.calls)
            failed += bad
            traced_times.append(seconds)
            per_round.append(layer_metrics(tracer.spans, first, len(tracer.spans),
                                           tracer.bytes_written - written))
            if digest(rnd.payloads) != before:
                mismatched.append(index)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = [f"round {i}: traced payloads differ from untraced ones" for i in mismatched]
    for index, (rnd, bad) in enumerate(rounds):
        if not bad:
            errors += [f"round {index}: {e}" for e in rnd.check()]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    if trace:
        tracer.write(work / "spans.jsonl")
        scipy_s, focalcal_s = zip(*(import_times(log) for _, log in probes))
        values = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        values["setup.import_scipy_s"] = statistics.median(scipy_s)
        values["setup.import_focalcal_s"] = statistics.median(focalcal_s)
        values["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(times)
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(s for s, _ in probes),
                  "run_s": statistics.median(times),
                  "peak_rss_mb": peak_rss_mb}
        wanted = spec["end_to_end"]
    print(f"{args.workload} seed {args.seed}: {len(times)} rounds of "
          + " ".join(f"{t:.3f}" for t in times) + " s", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
