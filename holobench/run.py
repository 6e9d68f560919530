#!/usr/bin/env python3
"""holobc benchmark: set up one workload, time passes over it, check every
result against references made apart from the program, print one JSON line.

    python3 holobench/run.py --workload pair-1d --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; holobc is imported from ./src.  With
--trace 0 the metrics are the end-to-end ones (setup_s, pass_s,
peak_rss_mib); with --trace 1 the run traces its set-up, times untraced
passes, then traced passes, and reports the per-layer metrics.  See
holobench/README.md.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def run_passes(workload, laps, seconds: float):
    """Whole passes until ``seconds`` have gone by (at least one), each
    operation timed on its own and cut into segments by ``laps``.  Returns
    the segment times of every operation by key (one list per pass), the
    pass wall times, the per-operation failures and the last results."""
    op_times, pass_times, failures = {}, [], []
    laps.install()
    start = time.perf_counter()
    while True:
        results = {}
        t_pass = time.perf_counter()
        for key, call in workload.operations():
            results[key], segments = laps.time(call)
            op_times.setdefault(key, []).append(segments)
        pass_times.append(time.perf_counter() - t_pass)
        failures.extend(workload.check(results))
        if time.perf_counter() - start >= seconds:
            laps.uninstall()
            return op_times, pass_times, failures, results


def pass_seconds(op_times) -> float:
    """One pass at the machine's quiet speed: the sum over every segment of
    every operation of its shortest time in the run.  Each pass repeats the
    same work, and the slow spells of a shared host, which come and go
    within seconds, only ever lengthen a segment; so the shortest time of
    each short segment is the steadiest measure of the program's own cost.
    Every pass of an operation must be cut into as many segments."""
    return sum(min(seg) for passes in op_times.values()
               for seg in zip(*passes, strict=True))


def tally(workload, failures):
    """(attempted, failed, unexpected failure messages)."""
    failed = sum(1 for _, f in failures if f)
    unexpected = [msg for op, f in failures for check, msg in f
                  if (op, check) not in workload.KNOWN_FAULTS]
    return len(failures), failed, unexpected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import holobc
    except ImportError as err:
        print(f"holobench: cannot import holobc from {ROOT / 'src'}: {err}",
              file=sys.stderr)
        return 2
    if Path(holobc.__file__).resolve().parent != ROOT / "src" / "holobc":
        print(f"holobench: holobc came from {holobc.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from laps import Laps
    from spans import Tracer, row_mismatches
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install("setup")
    workload.setup()
    setup_s = time.perf_counter() - _T0
    if tracer:
        tracer.uninstall()

    laps = Laps()
    op_times, times, failures, results = run_passes(workload, laps, args.seconds)
    if tracer:
        tracer.install("pass")
        traced_ops, traced, traced_failures, results = run_passes(workload, laps,
                                                                  args.seconds)
        tracer.uninstall()
        failures += traced_failures

    attempted, failed, unexpected = tally(workload, failures)
    missed = workload.selfcheck(results)
    if tracer:
        mismatches = row_mismatches(tracer.spans)
        engine = next((s for s in tracer.spans
                       if s[0] == "quadrature.adaptive_integrate"), None)
        if mismatches:
            unexpected.append(f"{mismatches} engine calls: integrand rows != 15^d x cells")
        if engine is not None:
            bumped = [engine[:5] + [{**engine[5], "cells": engine[5]["cells"] + 1}]]
            if not row_mismatches(bumped):
                missed.append("changed cell count")
    for msg in unexpected:
        print(f"holobench: FAILED {msg}", file=sys.stderr)
    for msg in missed:
        print(f"holobench: self-check: a {msg} was not rejected", file=sys.stderr)
    print(f"holobench: {len(times)} passes, {attempted} operations, {failed} failed, "
          f"self-check {'ok' if not missed else 'MISSED ' + ', '.join(missed)}",
          file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if tracer else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if tracer:
        untraced_s, traced_s = pass_seconds(op_times), pass_seconds(traced_ops)
        metrics = tracer.layer_metrics(len(traced), {
            "trace.untraced_pass_s": untraced_s,
            "trace.pass_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s}, units)
    else:
        metrics = {"setup_s": setup_s,
                   "pass_s": pass_seconds(op_times),
                   "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if set(units) != set(metrics):
        print(f"holobench: metrics {sorted(set(metrics) ^ set(units))} are not "
              "both measured and declared in BENCHMARK.json", file=sys.stderr)
        return 2
    result = {"correct": not unexpected and not missed, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({**result, "pass_times": times,
                    "op_times": {str(k): v for k, v in op_times.items()}},
                   indent=1) + "\n", encoding="utf-8")
    if tracer:
        tracer.write(RESULTS / f"{stem}.spans.jsonl.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
