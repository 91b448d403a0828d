"""Lepski grid fits on forked worker processes leave nothing behind.

``tuning._fit_grid`` forks one worker per usable CPU, up to one per grid
value.  These tests force three workers (the ``forked_grid`` fixture) and
check that no child outlives a call, that the fork warning of newer Pythons
is not raised, that a worker that dies and an interrupt in the caller's own
share end the call cleanly, that a live gradient thread pool keeps the fits
in this process, and that a small fit in a fresh interpreter starts no
thread.  ``test_blas_threads.py`` checks
that the fits are the same bytes for any number of workers.
"""

import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from smooth_threshold import risk, tuning
from smooth_threshold.cli import main
from smooth_threshold.errors import NumericError
from smooth_threshold.kernels import get_kernel
from smooth_threshold.risk import Dataset
from smooth_threshold.tuning import lepski_bandwidth, lepski_sparsity

from conftest import rng_for, src_env

pytestmark = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and hasattr(os, "fork")),
    reason="the grid fits fork only on Linux")

GAUSS = get_kernel("gaussian")


def make_dataset(n=40, d=8, seed=6):
    rng = rng_for(seed)
    z = rng.standard_normal((n, d))
    x = rng.standard_normal(n)
    y = np.sign(x - z[:, 0] + 0.3 * rng.standard_normal(n))
    y[y == 0] = 1.0
    return Dataset(x=x, y=y, z=z)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The forks this process makes."""
    made = []
    real = os.fork

    def fork():
        made.append(True)
        return real()
    monkeypatch.setattr(os, "fork", fork)
    return made


def test_no_child_outlives_a_call(forked_grid, forks):
    data = make_dataset()
    lepski_bandwidth(data, GAUSS, s=2)   # 7 bandwidths
    assert len(forks) == 2
    assert_no_child()
    lepski_sparsity(data, GAUSS, beta=1.0)   # 3 levels
    assert len(forks) == 4
    assert_no_child()


def test_fork_warning_of_newer_pythons_stays_quiet(forked_grid, monkeypatch):
    # Python 3.12+ warns on a fork whenever the process has a second OS
    # thread, such as an OpenBLAS worker; Tier-1 turns warnings into errors
    real = os.fork

    def warning_fork():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use "
                      f"of fork() may lead to deadlocks in the child.",
                      DeprecationWarning, stacklevel=2)
        return real()
    monkeypatch.setattr(os, "fork", warning_fork)
    lepski_bandwidth(make_dataset(), GAUSS, s=2)
    assert_no_child()


def exit_in_worker(monkeypatch, bandwidth):
    # a worker, not this process, dies on its fit at ``bandwidth``
    parent, real = os.getpid(), tuning.path_following

    def dying(spec, cfg):
        if os.getpid() != parent and spec.loss.bandwidth == bandwidth:
            os._exit(3)
        return real(spec, cfg)
    monkeypatch.setattr(tuning, "path_following", dying)


def test_dead_worker_raises_naming_its_grid_values(forked_grid, monkeypatch):
    # of 7 bandwidths on three workers, worker 1 fits the 2nd and the 5th
    exit_in_worker(monkeypatch, 0.5)
    with pytest.raises(NumericError, match=r"^bandwidth 0\.5, 0\.0625: the "
                       r"worker fitting them ended with status 3$"):
        lepski_bandwidth(make_dataset(), GAUSS, s=2)
    assert_no_child()


def test_dead_worker_fails_the_cli_with_one_json_line(forked_grid, monkeypatch,
                                                      tmp_path, capsys):
    csv_path, out = str(tmp_path / "sim.csv"), str(tmp_path / "fit.txt")
    assert main(["simulate", "--model", "conditional_mean", "--n", "40",
                 "--d", "4", "--s", "2", "--seed", "9", "--out", csv_path]) == 0
    capsys.readouterr()
    exit_in_worker(monkeypatch, 0.5)
    code = main(["fit", "--input", csv_path, "--tune", "lepski-beta", "--s", "2",
                 "--out", out])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    [line] = captured.err.splitlines()
    assert json.loads(line) == {
        "error": "numeric",
        "message": "bandwidth 0.5, 0.0625: the worker fitting them ended with "
                   "status 3"}
    assert not os.path.exists(out)
    assert_no_child()


def test_interrupt_in_callers_share_kills_the_workers(forked_grid, monkeypatch):
    # the workers would sleep for a minute; the caller's own first fit is
    # interrupted, and the call must end at once with every worker reaped
    parent, real = os.getpid(), tuning.path_following

    def interrupted(spec, cfg):
        if os.getpid() != parent:
            time.sleep(60)
        elif spec.loss.bandwidth == 1.0:
            raise KeyboardInterrupt
        return real(spec, cfg)
    monkeypatch.setattr(tuning, "path_following", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        lepski_bandwidth(make_dataset(), GAUSS, s=2)
    assert time.monotonic() - start < 30
    assert_no_child()


def test_live_gradient_pool_keeps_the_fits_in_turn(forked_grid, forks):
    data = make_dataset()
    _, _, forked = lepski_bandwidth(data, GAUSS, s=2)
    assert len(forks) == 2
    # a 2000 x 1100 pass splits, which starts the pool's threads
    rng = rng_for(22)
    risk._row_sum(rng.normal(size=2000),
                  np.asfortranarray(rng.normal(size=(2000, 1100))))
    try:
        assert risk._pool is not None
        _, _, in_turn = lepski_bandwidth(data, GAUSS, s=2)
    finally:
        risk._pool.shutdown()
        risk._pool = None
    assert len(forks) == 2
    assert [f.theta.tobytes() for f in in_turn] == [f.theta.tobytes() for f in forked]


SMALL_LEPSKI = r"""
import json, os, threading
from smooth_threshold import (SimSpec, generate, get_kernel, lepski_bandwidth,
                              lepski_sparsity, make_higher_order_gaussian, risk)

threads = threading.active_count()
data, _ = generate(SimSpec(model="conditional_mean", n=2000, d=64, s=8,
                           seed=5))
lepski_sparsity(data, make_higher_order_gaussian(2), beta=2.0, c_delta=0.32,
                c_lambda=0.06, c_bar=1.0)
lepski_bandwidth(data, get_kernel("gaussian"), s=8, c_sel=2.0, c_lambda=0.25)
try:
    os.waitpid(-1, os.WNOHANG)
    children = True
except ChildProcessError:
    children = False
print(json.dumps([risk._pool is None, threads, threading.active_count(),
                  children]))
"""


def test_small_lepski_fit_starts_no_thread():
    done = subprocess.run([sys.executable, "-c", SMALL_LEPSKI], env=src_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    no_pool, before, after, children = json.loads(done.stdout.splitlines()[-1])
    assert no_pool and after == before and not children
