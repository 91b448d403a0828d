"""Results must not depend on the BLAS thread count or the usable CPUs.

The same script runs in three interpreters and must print the same bytes:
one restricted to one CPU (by affinity mask where the OS has one, else
through the package's own CPU count) with OpenBLAS pinned to one thread,
one with every CPU and OpenBLAS at two threads, and one that splits every
gradient pass over z it can into three blocks, an uneven split on two CPUs.
The script hashes the margins and the risk gradient on a 2000 x 2500 draw,
large enough for OpenBLAS to split a matrix-vector product across threads
and for the package to split its gradient passes, and the curve and
selection of a small cross-validation run.  A second script hashes the
margins and gradient of a 4003 x 1001 and an 8195 x 300 draw at a sparse
and at a dense theta, and the smoothing-bias probe on the first: a BLAS
product splits an odd row count unevenly between threads, which an even one
like 2000 can hide, and einsum sums a column of more than 8192 samples in
buffered pieces, so a block of one such column would change its bits.  A
third hashes the ball projection and the l2 estimation error of a
100,000-coordinate vector, whose l2 norm a BLAS dot product rounds
differently on two threads; it does not read z, so it runs at one and two
BLAS threads only.
"""

import os
import subprocess
import sys
from pathlib import Path

from smooth_threshold import risk

SRC = Path(__file__).resolve().parents[1] / "src"

PREAMBLE = """
import hashlib, os, sys
one_cpu = sys.argv[1] == "one" and hasattr(os, "sched_setaffinity")
if one_cpu:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from smooth_threshold import (SimSpec, SmoothedRiskSpec, SurrogateLoss,
                              cross_validate_lambda, default_lambda_grid,
                              empirical_gradient, generate, get_kernel, risk)
if sys.argv[1] == "one" and not one_cpu:
    risk._usable_cpus = lambda: 1
if sys.argv[1] == "three":
    risk._SPLIT_MIN, risk._usable_cpus = 1, lambda: 3

blocks = [1]
plan = risk._blocks
def counted(*args):
    cut = plan(*args)
    blocks.append(len(cut))
    return cut
risk._blocks = counted

def show(name, a):
    print(name, hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest())

kernel = get_kernel("gaussian")
"""

SCRIPT = PREAMBLE + """
data, theta = generate(SimSpec(model="conditional_mean", n=2000, d=2500,
                               s=50, seed=5))
spec = SmoothedRiskSpec(data, SurrogateLoss(kernel, 1.0))
show("margins", spec.margins(theta))
show("gradient", empirical_gradient(spec, theta))

small, _ = generate(SimSpec(model="conditional_mean", n=600, d=200, s=4,
                            seed=6))
grid = default_lambda_grid(small, kernel, 1.0, num=4, min_ratio=0.1)
cv = cross_validate_lambda(small, kernel, 1.0, 3, grid, 7)
show("cv_loss", cv.mean_cv_loss)
show("lambda_1se", np.array([cv.lambda_1se]))
"""

ODD_N_SCRIPT = PREAMBLE + """
from smooth_threshold.diagnostics import bias_probe

data, sparse = generate(SimSpec(model="conditional_mean", n=4003, d=1001,
                                s=50, seed=3))
spec = SmoothedRiskSpec(data, SurrogateLoss(kernel, 1.0))
dense = np.sin(np.arange(1.0, 1002.0)) / np.sqrt(1001.0)
for name, theta in (("sparse", sparse), ("dense", dense)):
    show("margins_" + name, spec.margins(theta))
    show("gradient_" + name, empirical_gradient(spec, theta))
probe = bias_probe(SimSpec(model="conditional_mean", n=4003, d=1001, s=50,
                           seed=3), kernel, [0.25, 0.5, 1.0])
show("bias_probe", probe.values["max_abs_bias"])

data, sparse = generate(SimSpec(model="conditional_mean", n=8195, d=300,
                                s=50, seed=4))
spec = SmoothedRiskSpec(data, SurrogateLoss(kernel, 1.0))
dense = np.cos(np.arange(1.0, 301.0)) / np.sqrt(300.0)
for name, theta in (("sparse", sparse), ("dense", dense)):
    show("long_margins_" + name, spec.margins(theta))
    show("long_gradient_" + name, empirical_gradient(spec, theta))
"""

NORM_SCRIPT = PREAMBLE + """
from smooth_threshold import estimation_error, project_ball

v = np.random.Generator(np.random.Philox(key=11)).standard_normal(100_000)
show("project_ball", project_ball(v, 1.0))
show("estimation_error", np.array([estimation_error(v, np.zeros_like(v))]))
"""


# (CPUs, OpenBLAS threads) of the runs compared: one CPU, every CPU, and
# every gradient pass split in three where it is at least 6 wide
RUNS = (("one", "1"), ("every", "2"), ("three", "2"))


def _run(cpus: str, blas_threads: str, script: str) -> tuple[list, int]:
    # the hashes printed, and the most blocks any pass was split into
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script + 'print("blocks", max(blocks))', cpus],
        env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    *hashes, blocks = done.stdout.splitlines()
    return hashes, int(blocks.split()[1])


def _same_bytes_at_any_split(script: str, lines: int):
    (one, one_blocks), (every, every_blocks), (three, three_blocks) = (
        _run(cpus, blas, script) for cpus, blas in RUNS)
    assert one == every == three
    assert len(one) == lines
    assert one_blocks == 1 and three_blocks == 3
    cpus = risk._usable_cpus()
    assert (every_blocks > 1) == (cpus > 1) and every_blocks <= cpus


def test_results_identical_for_one_and_two_blas_threads():
    _same_bytes_at_any_split(SCRIPT, 4)


def test_odd_n_margins_identical_for_one_and_two_blas_threads():
    _same_bytes_at_any_split(ODD_N_SCRIPT, 9)


def test_ball_projection_identical_for_one_and_two_blas_threads():
    one, _ = _run("every", "1", NORM_SCRIPT)
    two, _ = _run("every", "2", NORM_SCRIPT)
    assert one == two
    assert len(one) == 2
