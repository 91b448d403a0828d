"""Results must not depend on the BLAS thread count.

The same script runs in two interpreters, one with OpenBLAS pinned to one
thread and one with two, and must print the same bytes.  It hashes the
margins and the risk gradient on a 2000 x 2500 draw, large enough for
OpenBLAS to split a matrix-vector product across threads, and the curve
and selection of a small cross-validation run.  A second script hashes the
margins and gradient of a 4003 x 1001 draw at a sparse and at a dense
theta, and the smoothing-bias probe on the same draw: a BLAS product splits
an odd row count unevenly between threads, which an even one like 2000 can
hide.  A third hashes the ball projection and the l2 estimation error of a
100,000-coordinate vector, whose l2 norm a BLAS dot product rounds
differently on two threads.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PREAMBLE = """
import hashlib
import numpy as np
from smooth_threshold import (SimSpec, SmoothedRiskSpec, SurrogateLoss,
                              cross_validate_lambda, default_lambda_grid,
                              empirical_gradient, generate, get_kernel)

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
"""

NORM_SCRIPT = PREAMBLE + """
from smooth_threshold import estimation_error, project_ball

v = np.random.Generator(np.random.Philox(key=11)).standard_normal(100_000)
show("project_ball", project_ball(v, 1.0))
show("estimation_error", np.array([estimation_error(v, np.zeros_like(v))]))
"""


def _run(blas_threads: str, script: str = SCRIPT) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_results_identical_for_one_and_two_blas_threads():
    one, two = _run("1"), _run("2")
    assert one == two
    assert len(one.splitlines()) == 4


def test_odd_n_margins_identical_for_one_and_two_blas_threads():
    one, two = _run("1", ODD_N_SCRIPT), _run("2", ODD_N_SCRIPT)
    assert one == two
    assert len(one.splitlines()) == 5


def test_ball_projection_identical_for_one_and_two_blas_threads():
    one, two = _run("1", NORM_SCRIPT), _run("2", NORM_SCRIPT)
    assert one == two
    assert len(one.splitlines()) == 2
