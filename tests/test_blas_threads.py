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
BLAS threads only.  A fourth runs both Lepski selectors and the fit
documents of ``--tune lepski-s`` and ``lepski-beta``; there the three
interpreters fit the grid points in turn, on two forked processes where two
CPUs are usable, and on three processes that also split every gradient
pass into three blocks, so that from the second Lepski call on each fork
happens with the threads of the split pool alive.  A fifth writes the
documents of ``diagnose --probe bias`` at n = 20000, d = 400 and ``--probe
curvature`` at n = 5000, d = 300, whose products and norms of directions go
through BLAS.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from smooth_threshold import _parallel

SRC = Path(__file__).resolve().parents[1] / "src"

PREAMBLE = """
import hashlib, os, sys
one_cpu = sys.argv[1] == "one" and hasattr(os, "sched_setaffinity")
if one_cpu:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from smooth_threshold import (SimSpec, SmoothedRiskSpec, SurrogateLoss,
                              cross_validate_lambda, default_lambda_grid,
                              empirical_gradient, generate, get_kernel, _parallel)
if sys.argv[1] == "one" and not one_cpu:
    _parallel._usable_cpus = lambda: 1
if sys.argv[1] == "three":
    _parallel._SPLIT_MIN, _parallel._usable_cpus = 1, lambda: 3

blocks = [1]
plan = _parallel._blocks
def counted(*args):
    cut = plan(*args)
    blocks.append(len(cut))
    return cut
_parallel._blocks = counted

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
grid = default_lambda_grid(small, kernel, 1.0)
cv = cross_validate_lambda(small, kernel, 1.0, 3, grid, 7)
show("cv_loss", cv.mean_cv_loss)
show("lambda_1se", np.array([cv.lambda_1se]))
print(max(blocks))
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
print(max(blocks))
"""

NORM_SCRIPT = PREAMBLE + """
from smooth_threshold import estimation_error
from smooth_threshold.optimizer import _project_ball

v = np.random.Generator(np.random.Philox(key=11)).standard_normal(100_000)
show("project_ball", _project_ball(v, 1.0)[0])
show("estimation_error", np.array([estimation_error(v, np.zeros_like(v))]))
print(max(blocks))
"""


LEPSKI_SCRIPT = PREAMBLE + """
import json, shutil, tempfile, warnings
from smooth_threshold import (ConvergenceWarning, NumericError, PathConfig,
                              cli, lepski_bandwidth, lepski_sparsity,
                              make_higher_order_gaussian, tuning)

workers = []
choose = _parallel._workers
def counted_workers(count):
    k = choose(count)
    workers.append([count, k])
    return k
_parallel._workers = counted_workers

real = tuning.path_following
def failing(spec, cfg):
    if spec.loss.bandwidth in (0.5, 0.125):
        raise NumericError("synthetic failure")
    return real(spec, cfg)

def show_fits(name, selected, fits, caught):
    show(name, np.array([selected]))
    for i, fit in enumerate(fits):
        fields = repr((fit.grid_value, fit.delta, fit.lam, fit.status,
                       fit.detail)).encode()
        if fit.theta is not None:
            assert not fit.theta.flags.writeable
            fields += fit.theta.dtype.str.encode() + fit.theta.tobytes()
        print(name, i, hashlib.sha256(fields).hexdigest())
    texts = "\\n".join(f"{w.category.__name__}: {w.message}" for w in caught)
    print(name, "warnings", len(caught), hashlib.sha256(texts.encode()).hexdigest())

data, _ = generate(SimSpec(model="conditional_mean", n=600, d=40, s=4,
                           seed=8))
order2 = make_higher_order_gaussian(2)
# a budget of 8 iterations a stage: the last stages of sparsity levels 1, 4,
# 8 and 16 stop on it, so those fits are excluded and the selection made from
# the other two; every bandwidth fit converges, and two fail by hand
for name, cfg in (("plain", None), ("budget", PathConfig(lambda_tgt=1.0,
                                                         max_inner_iters=8))):
    tuning.path_following = real if cfg is None else failing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s_hat, _, fits = lepski_sparsity(data, order2, beta=2.0, c_delta=0.32,
                                         c_lambda=0.06, c_bar=1.0, path_cfg=cfg)
    show_fits(name + "_sparsity", s_hat, fits, caught)
    if cfg is not None:
        assert any(w.category is ConvergenceWarning for w in caught)
        assert [f.status for f in fits].count("failed") == 4
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        delta_hat, _, fits = lepski_bandwidth(data, kernel, s=4, c_sel=2.0,
                                              c_lambda=0.25, path_cfg=cfg)
    show_fits(name + "_bandwidth", delta_hat, fits, caught)
    if cfg is not None:
        assert sum(f.status == "failed" for f in fits) == 2
tuning.path_following = real

here = os.getcwd()
scratch = tempfile.mkdtemp()
os.chdir(scratch)   # documents echo the relative paths only
try:
    assert cli.main(["simulate", "--model", "conditional_mean", "--n", "300",
                     "--d", "16", "--s", "2", "--seed", "9",
                     "--out", "sim.csv"]) == 0
    for tune in (["lepski-s", "--beta", "1.0"], ["lepski-beta", "--s", "2"]):
        assert cli.main(["fit", "--input", "sim.csv", "--tune", *tune,
                         "--out", "fit.txt"]) == 0
        with open("fit.txt", "rb") as doc:
            print("document", tune[0], hashlib.sha256(doc.read()).hexdigest())
finally:
    os.chdir(here)
    shutil.rmtree(scratch)
print(json.dumps([workers, sorted(set(blocks[1:]))]))
"""

DIAGNOSE_SCRIPT = PREAMBLE + """
import shutil, tempfile
from smooth_threshold import cli

here = os.getcwd()
scratch = tempfile.mkdtemp()
os.chdir(scratch)   # documents echo the relative path only
try:
    for probe in (["bias", "--n", "20000", "--d", "400", "--s", "5"],
                  ["curvature", "--n", "5000", "--d", "300", "--s", "5",
                   "--delta", "1"]):
        assert cli.main(["diagnose", "--probe", *probe, "--out", "doc.txt"]) == 0
        with open("doc.txt", "rb") as doc:
            print("document", probe[0], hashlib.sha256(doc.read()).hexdigest())
finally:
    os.chdir(here)
    shutil.rmtree(scratch)
print(max(blocks))
"""


# (CPUs, OpenBLAS threads) of the runs compared: one CPU, every CPU, and
# every gradient pass split in three where it is at least 6 wide, or the
# Lepski grid fits spread over three processes
RUNS = (("one", "1"), ("every", "2"), ("three", "2"))


def _run(cpus: str, blas_threads: str, script: str) -> tuple[list, object]:
    # the hashes printed, and the tally the script prints last
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, cpus], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    *hashes, tally = done.stdout.splitlines()
    return hashes, json.loads(tally)


def _same_bytes_at_any_split(script: str, lines: int):
    (one, one_blocks), (every, every_blocks), (three, three_blocks) = (
        _run(cpus, blas, script) for cpus, blas in RUNS)
    assert one == every == three
    assert len(one) == lines
    assert one_blocks == 1 and three_blocks == 3
    cpus = _parallel._usable_cpus()
    assert (every_blocks > 1) == (cpus > 1) and every_blocks <= cpus


def test_results_identical_for_one_and_two_blas_threads():
    _same_bytes_at_any_split(SCRIPT, 4)


def test_odd_n_margins_identical_for_one_and_two_blas_threads():
    _same_bytes_at_any_split(ODD_N_SCRIPT, 9)


def test_diagnose_documents_identical_for_one_and_two_blas_threads():
    _same_bytes_at_any_split(DIAGNOSE_SCRIPT, 2)


def test_ball_projection_identical_for_one_and_two_blas_threads():
    one, _ = _run("every", "1", NORM_SCRIPT)
    two, _ = _run("every", "2", NORM_SCRIPT)
    assert one == two
    assert len(one) == 2


def test_lepski_identical_for_any_number_of_workers():
    # both selectors' choices, every field of every fit and the warnings in
    # grid order, with failed fits and stages out of budget, and the fit
    # documents of --tune lepski-s and lepski-beta
    (one, one_tally), (every, every_tally), (three, three_tally) = (
        _run(cpus, blas, LEPSKI_SCRIPT) for cpus, blas in RUNS)
    assert one == every == three
    # per run of a selector its choice, its fits and its warnings; 2 documents
    assert len(one) == 2 * ((1 + 6 + 1) + (1 + 11 + 1)) + 2
    forks = sys.platform.startswith("linux") and hasattr(os, "fork")
    cpus = _parallel._usable_cpus()
    # the (grid values, workers) of every Lepski call, and the block counts
    # of the split passes this process ran
    (one_k, one_blocks), (every_k, every_blocks), (three_k, three_blocks) = (
        one_tally, every_tally, three_tally)
    assert len(one_k) == len(every_k) == len(three_k) == 6
    assert all(k == 1 for _, k in one_k)
    assert all(k == (min(cpus, count) if forks else 1) for count, k in every_k)
    assert all(k == (3 if forks else 1) for _, k in three_k)
    # no pass of n=600 or n=300 splits unforced; forced, this process's
    # passes each split in three
    assert one_blocks == every_blocks == [] and three_blocks == [3]
