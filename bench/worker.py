"""Subprocess side of the benchmark; ``run.py`` starts it with pinned threads.

    worker.py setup   --workload W --seed S --size full --dir D
    worker.py measure --workload W --seed S --size full --dir D --seconds T --trace 0|1

``setup`` generates the workload's instance pool into ``D/inputs`` and prints
the seconds spent in ``generate``.  ``measure`` runs whole cycles over the
pool until another cycle would pass ``T`` seconds, checks every repetition,
and prints one JSON document.  With ``--trace 1`` it first solves instance 0
untraced, then runs the cycles with the tracing wrappers installed, compares
the two results of instance 0, and writes the spans to ``D/spans.tsv.gz``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
import warnings
from contextlib import nullcontext
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def outcome(record: dict) -> dict:
    """A repetition's results without its timings."""
    return {k: v for k, v in record.items() if k not in ("cycle", "seconds", "cpu_seconds")}


def _solve_once(wl, size, args, api, tracer, i):
    """Prepare, solve (timed) and check instance ``i``; returns its record."""
    import tracing

    inputs = wl.prepare(size, args.seed, args.dir / "inputs", i)
    with tracing.install(tracer) if tracer is not None else nullcontext():
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        solved = wl.solve(api, inputs)
        seconds = time.perf_counter() - t0
        cpu_seconds = time.process_time() - cpu0
    record, l2_values, failed = wl.check(size, inputs, solved)
    return ({"instance": i, "seconds": seconds, "cpu_seconds": cpu_seconds, **record},
            l2_values, failed)


def measure(args) -> dict:
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    size = wl.sizes[args.size]
    tracer = tracing.Tracer() if args.trace else None
    api = workloads.Api(tracer)
    notes = []
    correct = True

    if tracer is not None:
        untraced, _, _ = _solve_once(wl, size, args, workloads.Api(), None, 0)

    records, l2_values = [], []
    attempted = failed = 0
    cycle_means = []
    start = time.perf_counter()
    while True:
        cycle = len(cycle_means)
        busy = 0.0
        for i in range(size.pool):
            attempted += wl.calls_per_rep
            try:
                record, l2, bad = _solve_once(wl, size, args, api, tracer, i)
            except Exception:  # noqa: BLE001 - a failed repetition is counted, not fatal
                traceback.print_exc()
                record = {"instance": i, "error": traceback.format_exc(limit=1)}
                l2, bad = [], wl.calls_per_rep
            failed += bad
            busy += record.get("seconds", 0.0)
            records.append({"cycle": cycle, **record})
            if cycle == 0:
                l2_values += l2
        cycle_means.append(busy / size.pool)
        # stop when one more cycle, as long as the mean cycle so far, would pass --seconds
        elapsed = time.perf_counter() - start
        if elapsed * (cycle + 2) / (cycle + 1) > args.seconds:
            break
    reps = len(records)

    l2_mean = statistics.fmean(l2_values) if l2_values else float("nan")
    if size.band is not None and not size.band[0] <= l2_mean <= size.band[1]:
        correct = False
        notes.append(f"mean l2 {l2_mean!r} outside the accuracy band {size.band}")

    if tracer is None:
        metrics = {
            "wall_s": statistics.median(cycle_means),
            "l2_mean": l2_mean,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        traced_first = next(r for r in records if r["instance"] == 0)
        if outcome(traced_first) != outcome(untraced):
            correct = False
            notes.append("traced and untraced results of instance 0 differ")
        uncertified = sum(not p["certified"] for p in tracer.paths)
        if uncertified:
            correct = False
            notes.append(f"{uncertified} of {len(tracer.paths)} paths lack a "
                         f"stationarity certificate on their final stage")
        metrics = tracing.layer_metrics(tracer, reps)
        metrics["process.cpu_s"] = sum(r.get("cpu_seconds", 0.0) for r in records) / reps
        metrics["trace.overhead_frac"] = traced_first["seconds"] / untraced["seconds"] - 1.0
        tracing.write_spans(tracer, args.dir / "spans.tsv.gz")

    return {"records": records, "attempted": attempted, "failed": failed,
            "correct": correct and failed == 0, "notes": notes,
            "metrics": metrics, "cycles": len(cycle_means), "versions": _versions()}


def setup(args) -> dict:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    workdir = args.dir / "inputs"
    workdir.mkdir(parents=True, exist_ok=True)
    size = wl.sizes[args.size]
    return {"generate_s": wl.write_inputs(size, args.seed, workdir) / size.pool}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import smooth_threshold

    if Path(smooth_threshold.__file__).resolve().parent != SRC / "smooth_threshold":
        sys.stderr.write(f"imported smooth_threshold from {smooth_threshold.__file__}, "
                         f"not from {SRC}\n")
        return 2
    warnings.simplefilter("ignore")
    out = setup(args) if args.role == "setup" else measure(args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
