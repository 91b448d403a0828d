"""Results must not depend on the BLAS thread count.

The same script runs in two interpreters, one with OpenBLAS pinned to one
thread and one with two, and must print the same bytes.  It hashes the
margins and the risk gradient on a 2000 x 2500 draw, large enough for
OpenBLAS to split a matrix-vector product across threads, and the curve
and selection of a small cross-validation run.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import hashlib
import numpy as np
from smooth_threshold import (SimSpec, SmoothedRiskSpec, SurrogateLoss,
                              cross_validate_lambda, default_lambda_grid,
                              empirical_gradient, generate, get_kernel)

def show(name, a):
    print(name, hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest())

kernel = get_kernel("gaussian")
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


def _run(blas_threads: str) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_results_identical_for_one_and_two_blas_threads():
    one, two = _run("1"), _run("2")
    assert one == two
    assert len(one.splitlines()) == 4
