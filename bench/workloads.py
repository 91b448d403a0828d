"""The three benchmark workloads: inputs, one timed repetition, its checks.

Each workload is a closed loop with one caller: a run cycles through a pool
of ``pool`` problem instances, and the next repetition starts when the
previous one returns.  Instance ``i`` of seed ``seed`` draws its data with
``derive_seed(seed, i, 0)`` and, under cross-validation, assigns folds with
``derive_seed(seed, i, 1)``, the derived seeds of ``run_benchmark``.

* ``cv_d64``: the acceptance benchmark's protocol.  Per repetition:
  ``load_csv``, ``default_lambda_grid``, 5-fold ``cross_validate_lambda``
  over 20 penalties, and the final ``path_following`` at ``lambda_1se``.
  Tuning does most of the work (100 paths); a training fold is 1600 x 64.
* ``fit_d2500``: one ``path_following`` at 0.1 * lambda0 with no tuning, on
  a 40 MB covariate matrix; the risk layer does almost all the work.
* ``lepski_d256``: ``lepski_sparsity`` with the order-2 gaussian kernel
  (8 paths along the bandwidth schedule) and ``lepski_bandwidth`` with the
  gaussian kernel (12 bandwidths); tuning along delta instead of lambda.

``solve`` is the timed repetition.  ``prepare`` (loading an instance) and
``check`` (scoring it) run outside the timed section and call the package
directly, never through a tracer.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from smooth_threshold import (
    Dataset,
    PathConfig,
    SimSpec,
    SmoothedRiskSpec,
    SurrogateLoss,
    cross_validate_lambda,
    default_lambda_grid,
    derive_seed,
    empirical_gradient,
    estimation_error,
    generate,
    get_kernel,
    lepski_bandwidth,
    lepski_sparsity,
    load_csv,
    path_following,
    suboptimality,
)

import tracing

GAUSSIAN = "gaussian"
ORDER_2 = "gaussian-order-2"
DELTA = 1.0
FOLDS = 5
FIT_LAMBDA_SHARE = 0.1
# acceptance-test constants of the two adaptive selectors
SPARSITY_ARGS = dict(beta=2.0, c_delta=0.32, c_lambda=0.06, c_bar=1.0)
BANDWIDTH_ARGS = dict(c_sel=2.0, c_lambda=0.25)


@dataclass(frozen=True)
class Size:
    """Problem size, instances per pool, and the accuracy band on mean l2."""

    n: int
    d: int
    s: int
    pool: int
    band: tuple | None = None


class Api:
    """The package entry points a repetition calls, timed when traced."""

    def __init__(self, tracer: tracing.Tracer | None = None):
        self.kernels = {name: get_kernel(name) for name in (GAUSSIAN, ORDER_2)}
        self.load_csv = load_csv
        self.default_lambda_grid = default_lambda_grid
        self.cross_validate_lambda = cross_validate_lambda
        self.lepski_sparsity = lepski_sparsity
        self.lepski_bandwidth = lepski_bandwidth
        self.path_following = path_following
        if tracer is None:
            return
        self.kernels = {name: tracing.traced_kernel(tracer, kernel)
                        for name, kernel in self.kernels.items()}
        self.load_csv = tracer.wrap(tracing.LOAD_CSV, load_csv)
        self.default_lambda_grid = tracer.wrap(tracing.TUNING_GRID, default_lambda_grid)
        self.cross_validate_lambda = tracer.wrap(tracing.TUNING_CV, cross_validate_lambda)
        self.lepski_sparsity = tracer.wrap(tracing.TUNING_LEPSKI, lepski_sparsity)
        self.lepski_bandwidth = tracer.wrap(tracing.TUNING_LEPSKI, lepski_bandwidth)
        self.path_following = tracer.wrap(tracing.PATH, path_following, tracer.record_path)


def sim_spec(size: Size, seed: int, instance: int) -> SimSpec:
    return SimSpec(model="conditional_mean", n=size.n, d=size.d, s=size.s,
                   mu=2.0, noise_sd=0.1, seed=derive_seed(seed, instance, 0))


def default_eps(lam: float) -> float:
    """Final-stage tolerance a default ``PathConfig`` resolves to at ``lam``."""
    return 0.1 * PathConfig(lambda_tgt=lam).nu * lam


def certified(data: Dataset, kernel_name: str, delta: float, theta, lam: float) -> bool:
    """Stationarity certificate recomputed from outside the solver."""
    spec = SmoothedRiskSpec(data=data, loss=SurrogateLoss(get_kernel(kernel_name), delta))
    return suboptimality(spec, theta, lam) <= default_eps(lam)


def _generate(size: Size, seed: int, instance: int):
    t0 = time.perf_counter()
    data, _ = generate(sim_spec(size, seed, instance))
    return data, time.perf_counter() - t0


class CvD64:
    calls_per_rep = 1
    sizes = {"full": Size(2000, 64, 8, pool=3, band=(0.05, 0.12)),
             "tiny": Size(200, 8, 2, pool=2)}

    def write_inputs(self, size: Size, seed: int, workdir: Path) -> float:
        gen_s = 0.0
        for i in range(size.pool):
            data, dt = _generate(size, seed, i)
            gen_s += dt
            table = np.column_stack([data.y, data.x, data.z])
            with open(workdir / f"instance{i}.csv", "w", encoding="utf-8", newline="") as out:
                writer = csv.writer(out, lineterminator="\n")
                writer.writerow(["y", "x"] + [f"z{j + 1}" for j in range(size.d)])
                writer.writerows([repr(float(v)) for v in row] for row in table)
        return gen_s

    def prepare(self, size: Size, seed: int, workdir: Path, i: int) -> dict:
        return {"csv": workdir / f"instance{i}.csv", "cv_seed": derive_seed(seed, i, 1),
                "theta_star": sim_spec(size, seed, i).theta_star}

    def solve(self, api: Api, inp: dict):
        data, _, _ = api.load_csv(inp["csv"])
        kernel = api.kernels[GAUSSIAN]
        grid = api.default_lambda_grid(data, kernel, DELTA)
        cv = api.cross_validate_lambda(data, kernel, DELTA, FOLDS, grid, inp["cv_seed"])
        spec = SmoothedRiskSpec(data=data, loss=SurrogateLoss(kernel, DELTA))
        return cv, api.path_following(spec, PathConfig(lambda_tgt=cv.lambda_1se)), data

    def check(self, size: Size, inp: dict, outcome):
        cv, path, data = outcome
        theta = path.theta_final
        ok = (tracing.path_summary(path)["certified"]
              and certified(data, GAUSSIAN, DELTA, theta, cv.lambda_1se))
        record = {"lambda_1se": cv.lambda_1se, "lambda_min": cv.lambda_min,
                  "l2": estimation_error(theta, inp["theta_star"]),
                  "nnz": int(np.count_nonzero(theta)), "certified": ok}
        return record, [record["l2"]], int(not ok)


class _NpzInputs:
    """Instances stored as uncompressed ``.npz`` files of x, y and z."""

    def write_inputs(self, size: Size, seed: int, workdir: Path) -> float:
        gen_s = 0.0
        for i in range(size.pool):
            data, dt = _generate(size, seed, i)
            gen_s += dt
            np.savez(workdir / f"instance{i}.npz", x=data.x, y=data.y, z=data.z)
        return gen_s

    @staticmethod
    def load(workdir: Path, i: int) -> Dataset:
        with np.load(workdir / f"instance{i}.npz") as arrays:
            return Dataset(x=arrays["x"], y=arrays["y"], z=arrays["z"])


class FitD2500(_NpzInputs):
    calls_per_rep = 1
    sizes = {"full": Size(2000, 2500, 50, pool=3, band=(0.15, 0.35)),
             "tiny": Size(200, 40, 4, pool=2)}

    def prepare(self, size: Size, seed: int, workdir: Path, i: int) -> dict:
        data = self.load(workdir, i)
        spec = SmoothedRiskSpec(data=data, loss=SurrogateLoss(get_kernel(GAUSSIAN), DELTA))
        lambda0 = float(np.max(np.abs(empirical_gradient(spec, np.zeros(size.d)))))
        return {"data": data, "lam": FIT_LAMBDA_SHARE * lambda0,
                "theta_star": sim_spec(size, seed, i).theta_star}

    def solve(self, api: Api, inp: dict):
        loss = SurrogateLoss(api.kernels[GAUSSIAN], DELTA)
        spec = SmoothedRiskSpec(data=inp["data"], loss=loss)
        return api.path_following(spec, PathConfig(lambda_tgt=inp["lam"]))

    def check(self, size: Size, inp: dict, path):
        theta = path.theta_final
        ok = (tracing.path_summary(path)["certified"]
              and certified(inp["data"], GAUSSIAN, DELTA, theta, inp["lam"]))
        record = {"lambda": inp["lam"], "l2": estimation_error(theta, inp["theta_star"]),
                  "nnz": int(np.count_nonzero(theta)), "certified": ok}
        return record, [record["l2"]], int(not ok)


class LepskiD256(_NpzInputs):
    calls_per_rep = 2
    sizes = {"full": Size(2000, 256, 8, pool=10),
             "tiny": Size(200, 16, 2, pool=2)}

    def prepare(self, size: Size, seed: int, workdir: Path, i: int) -> dict:
        return {"data": self.load(workdir, i), "s": size.s,
                "theta_star": sim_spec(size, seed, i).theta_star}

    def solve(self, api: Api, inp: dict):
        data = inp["data"]
        sparsity = api.lepski_sparsity(data, api.kernels[ORDER_2], **SPARSITY_ARGS)
        bandwidth = api.lepski_bandwidth(data, api.kernels[GAUSSIAN], s=inp["s"],
                                         **BANDWIDTH_ARGS)
        return sparsity, bandwidth

    def check(self, size: Size, inp: dict, outcome):
        (s_hat, theta_s, fits_s), (delta_hat, theta_b, fits_b) = outcome
        data = inp["data"]

        def selector_ok(kernel_name, fits):
            return all(f.status == "ok" and certified(data, kernel_name, f.delta, f.theta, f.lam)
                       for f in fits)

        ok_s = selector_ok(ORDER_2, fits_s)
        ok_b = selector_ok(GAUSSIAN, fits_b)
        record = {"s_hat": s_hat, "delta_hat": delta_hat,
                  "l2_sparsity": estimation_error(theta_s, inp["theta_star"]),
                  "l2_bandwidth": estimation_error(theta_b, inp["theta_star"]),
                  "certified": ok_s and ok_b}
        l2_values = [record["l2_sparsity"], record["l2_bandwidth"]]
        return record, l2_values, int(not ok_s) + int(not ok_b)


WORKLOADS = {"cv_d64": CvD64(), "fit_d2500": FitD2500(), "lepski_d256": LepskiD256()}
