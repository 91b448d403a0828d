"""Timing spans at the boundaries through which one package layer calls the next.

A traced run installs wrappers on module attributes (``install``) and on a
copy of each kernel (``traced_kernel``).  Every wrapped call opens a span
recording its name, start, end and the span that was open when it began.
Spans stay in flat arrays while the run lasts; ``write_spans`` saves them at
the end and ``layer_metrics`` derives totals, counts and self times, where a
span's self time is its duration minus the durations of its direct children.

The wrappers only time and count: each returns the wrapped call's result
untouched, so a traced run computes bit-identical results.
"""

from __future__ import annotations

import gzip
import time
from array import array
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from smooth_threshold import optimizer, tuning
from smooth_threshold.risk import SmoothedRiskSpec

MARGINS = "risk.margins"
GRADIENT = "risk.gradient"
OBJECTIVE = "risk.objective"
PATH = "optimizer.path"
KERNEL_EVALUATE = "kernels.evaluate"
KERNEL_TAIL = "kernels.tail"
LOAD_CSV = "cli.load_csv"
TUNING_GRID = "tuning.grid"
TUNING_CV = "tuning.cv"
TUNING_LEPSKI = "tuning.lepski"


def path_summary(path) -> dict:
    """Counters and the stationarity certificate of one ``SolutionPath``.

    The certificate holds when the final stage converged with its exit
    optimality gap at or below the resolved final tolerance ``eps_tgt``.
    """
    solved = [rec for rec in path.stages if rec.status != "initial"]
    last = path.stages[-1]
    return {
        "records": len(path.stages),
        "stages": len(solved),
        "iterations": sum(rec.iterations for rec in solved),
        "nonconverged": sum(rec.status != "converged" for rec in solved),
        "certified": last.status == "converged"
        and last.exit_omega <= path.config_echo.eps_tgt,
    }


class Tracer:
    """In-memory span recorder with the counters the spans cannot carry."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.z_bytes = 0
        self.paths: list[dict] = []

    def _open(self, name: str) -> int:
        key = self._ids.get(name)
        if key is None:
            key = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self._start)
        self._name.append(key)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, result)`` counts on return."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, out)
            return out

        return traced

    def count_z(self, args, _out) -> None:
        # one computed pass over the covariate matrix of the spec in args[0]
        self.z_bytes += args[0].data.z.nbytes

    def record_path(self, _args, path) -> None:
        self.paths.append(path_summary(path))

    def key(self, name: str) -> int:
        """Id of span name ``name``; -1 when no such span was recorded."""
        return self._ids.get(name, -1)

    def arrays(self):
        """Name ids, parent indices, starts and ends as numpy arrays."""
        return (np.frombuffer(self._name, dtype=np.int32),
                np.frombuffer(self._parent, dtype=np.int64),
                np.frombuffer(self._start, dtype=np.float64),
                np.frombuffer(self._end, dtype=np.float64))


@contextmanager
def install(tracer: Tracer):
    """Wrap the inter-layer attributes for the duration of the block."""
    targets = (
        (optimizer, "empirical_gradient", GRADIENT, tracer.count_z),
        (optimizer, "objective", OBJECTIVE, None),
        (tuning, "empirical_risk", OBJECTIVE, None),
        (tuning, "path_following", PATH, tracer.record_path),
        (SmoothedRiskSpec, "margins", MARGINS, tracer.count_z),
    )
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    try:
        for (owner, attr, name, after), (_, _, original) in zip(targets, saved):
            setattr(owner, attr, tracer.wrap(name, original, after))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def traced_kernel(tracer: Tracer, kernel):
    """Copy of ``kernel`` whose ``evaluate`` and ``tail`` are timed."""
    tail = None if kernel.tail is None else tracer.wrap(KERNEL_TAIL, kernel.tail)
    return replace(kernel, evaluate=tracer.wrap(KERNEL_EVALUATE, kernel.evaluate),
                   tail=tail)


def write_spans(tracer: Tracer, path) -> None:
    """Gzipped TSV: index, parent index (-1 at the root), name, start, end."""
    names, parents, starts, ends = tracer.arrays()
    with gzip.open(path, "wt", encoding="utf-8") as out:
        out.write("index\tparent\tname\tstart_s\tend_s\n")
        for i in range(len(starts)):
            out.write(f"{i}\t{parents[i]}\t{tracer.names[names[i]]}\t"
                      f"{starts[i]!r}\t{ends[i]!r}\n")


def layer_metrics(tracer: Tracer, reps: int) -> dict:
    """Per-layer totals from the spans and path counters, per repetition."""
    names, parents, starts, ends = tracer.arrays()
    dur = ends - starts
    has_parent = parents >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_time = dur - child
    parent_name = np.full(names.shape, -1, dtype=np.int32)
    parent_name[has_parent] = names[parents[has_parent]]

    def mask(name):
        return names == tracer.key(name)

    def calls(name):
        return int(np.count_nonzero(mask(name)))

    def seconds(name, values=dur):
        return float(values[mask(name)].sum())

    tuning_spans = (TUNING_GRID, TUNING_CV, TUNING_LEPSKI)
    under_tuning = np.isin(parent_name, [tracer.key(n) for n in tuning_spans]) & has_parent

    # Every StageRecord stands for one objective evaluation that is not a
    # step candidate: the zero solution of stage 0, or the warm start of a
    # solved stage.  The optimizer's other evaluations are candidates.
    under_path = (parent_name == tracer.key(PATH)) & has_parent
    optimizer_objectives = int(np.count_nonzero(mask(OBJECTIVE) & under_path))
    candidates = optimizer_objectives - sum(p["records"] for p in tracer.paths)
    iterations = sum(p["iterations"] for p in tracer.paths)
    z_seconds = seconds(MARGINS) + seconds(GRADIENT, self_time)

    totals = {
        "risk.margin_calls": calls(MARGINS),
        "risk.margin_s": seconds(MARGINS),
        "risk.gradient_calls": calls(GRADIENT),
        "risk.gradient_s": seconds(GRADIENT),
        "risk.objective_calls": calls(OBJECTIVE),
        "risk.objective_s": seconds(OBJECTIVE),
        "risk.z_bytes": tracer.z_bytes,
        "risk.z_passes": calls(MARGINS) + calls(GRADIENT),
        "tuning.cv_s": seconds(TUNING_CV),
        "tuning.lepski_s": seconds(TUNING_LEPSKI),
        "tuning.grid_s": seconds(TUNING_GRID),
        "tuning.self_s": sum(seconds(n, self_time) for n in tuning_spans),
        "tuning.paths": int(np.count_nonzero(mask(PATH) & under_tuning)),
        "optimizer.path_s": seconds(PATH),
        "optimizer.self_s": seconds(PATH, self_time),
        "optimizer.paths": calls(PATH),
        "optimizer.stages": sum(p["stages"] for p in tracer.paths),
        "optimizer.iterations": iterations,
        "optimizer.nonconverged_stages": sum(p["nonconverged"] for p in tracer.paths),
        "kernels.evaluate_calls": calls(KERNEL_EVALUATE),
        "kernels.evaluate_s": seconds(KERNEL_EVALUATE),
        "kernels.tail_calls": calls(KERNEL_TAIL),
        "kernels.tail_s": seconds(KERNEL_TAIL),
        "cli.load_csv_s": seconds(LOAD_CSV),
    }
    out = {name: value / reps for name, value in totals.items()}
    out["risk.computed_gbps"] = tracer.z_bytes / z_seconds / 1e9 if z_seconds > 0 else 0.0
    out["optimizer.accept_ratio"] = iterations / candidates if candidates > 0 else 0.0
    return out
