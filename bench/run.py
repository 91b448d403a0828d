"""Benchmark of the smooth_threshold package: one workload, one seed, one run.

    python3 bench/run.py --workload cv_d64 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` there
and nowhere else.  The run times ``SETUPS`` set-up processes (interpreter
start, import, input generation and writing) and reports their median as
``setup_s``.  One measuring process then cycles through the workload's
instance pool for about ``--seconds`` and checks every result.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones, from a run with timing
wrappers installed.  BLAS, OpenMP and package threads are pinned to 1.

Standard output holds one JSON line per repetition (``record``), one with
the provenance and a summary, and last the result object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The same content and,
when traced, the spans are kept under ``.bench_runs/``.  ``--workload all``
runs the three workloads in turn and ends with one result object whose
metric names carry the workload as a prefix.  The exit status is
0 for a correct run, 1 for a wrong result and 2 when the run could not be
made; only the first two print a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smooth_threshold"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("cv_d64", "fit_d2500", "lepski_d256")
SETUPS = 3
# whole-run budget, below the 180 s a run may take
BUDGET_S = 170.0
THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "SMOOTH_THRESHOLD_THREADS")}
SPEC = ROOT / "BENCHMARK.json"
MODULE_LINES = "code.src_lines."


class RunError(Exception):
    """The run could not be made; no result is printed."""


def source_lines() -> dict:
    lines = {}
    for path in sorted(PACKAGE.glob("*.py")):
        with open(path, "rb") as handle:
            lines[path.stem] = sum(1 for _ in handle)
    return lines


def provenance(args) -> dict:
    commit = None
    if shutil.which("git") and (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    lines = source_lines()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "commit": commit,
            "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "thread_env": THREAD_ENV,
            "src_lines": {"total": sum(lines.values()), **lines}}


def _worker(role: str, args, run_dir: Path, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(WORKER), role, "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--dir", str(run_dir), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError(f"time budget of {BUDGET_S:.0f} s spent before the {role} step")
    try:
        done = subprocess.run(cmd, env={**os.environ, **THREAD_ENV}, cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"{role} step passed the {BUDGET_S:.0f} s budget") from None
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        raise RunError(f"{role} step exited with status {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + BUDGET_S
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    run_dir = ROOT / ".bench_runs" / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup_s, generate_s = [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        out = _worker("setup", args, run_dir, deadline)
        setup_s.append(time.perf_counter() - t0)
        generate_s.append(out["generate_s"])
    try:
        res = _worker("measure", args, run_dir, deadline,
                      "--seconds", repr(args.seconds), "--trace", str(args.trace))
    finally:
        shutil.rmtree(run_dir / "inputs", ignore_errors=True)

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = dict(res["metrics"])
    if args.trace:
        metrics["simulate.generate_s"] = statistics.median(generate_s)
        lines = source_lines()
        metrics["code.src_lines"] = sum(lines.values())
        for m in listed:
            if m["name"].startswith(MODULE_LINES):
                metrics[m["name"]] = lines.get(m["name"][len(MODULE_LINES):], 0)
    else:
        metrics["setup_s"] = statistics.median(setup_s)
    units = {m["name"]: m["unit"] for m in listed}
    if set(metrics) != set(units):
        raise RunError(f"measured metrics {sorted(metrics)} differ from those "
                       f"{SPEC.name} lists: {sorted(units)}")

    result = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in sorted(metrics)}}
    detail = {"provenance": {**provenance(args), "versions": res["versions"]},
              "summary": {"failed_frac": res["failed"] / res["attempted"],
                          "cycles": res["cycles"], "setup_runs_s": setup_s,
                          "notes": res["notes"]},
              "records": res["records"]}
    with open(run_dir / "result.json", "w", encoding="utf-8") as out:
        json.dump({**detail, "result": result}, out, indent=1)
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every instance, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"bench: no package source at {PACKAGE}; run from a checkout\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            detail, results[name] = run(argparse.Namespace(**{**vars(args), "workload": name}))
        except RunError as exc:
            sys.stderr.write(f"bench: {name}: {exc}\n")
            return 2
        for record in detail["records"]:
            print(json.dumps({"record": record}))
        print(json.dumps({"provenance": detail["provenance"], "summary": detail["summary"]}))
    if len(names) == 1:
        result = results[names[0]]
    else:
        # one object for every workload, its metric names prefixed by the workload's
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{metric}": value for name, r in results.items()
                              for metric, value in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
