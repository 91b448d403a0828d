"""Large gradient passes over z split across the usable CPUs, bit for bit.

The gradient splits into blocks of columns once a pass reads two blocks of
``_parallel._SPLIT_MIN`` values; the margins run in one block.  These
tests check the block planner, the fallback where the OS cannot report an
affinity mask, callers that race to create the thread pool, that a forked
child runs split passes on a pool of its own, and that small fits start no
thread.  ``test_blas_threads.py`` compares whole runs at one CPU, every CPU
and three blocks.
"""

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from smooth_threshold import _parallel, risk

from conftest import rng_for, src_env


@settings(max_examples=300, deadline=None)
@given(length=st.integers(1, 10_000),
       values=st.integers(0, 64 * _parallel._SPLIT_MIN),
       cpus=st.integers(1, 64))
def test_blocks_tile_the_range_in_order(length, values, cpus):
    blocks = _parallel._blocks(length, values, cpus)
    assert blocks[0][0] == 0 and blocks[-1][1] == length
    assert all(b == a for (_, b), (a, _) in zip(blocks, blocks[1:]))
    assert all(b - a >= min(2, length) for a, b in blocks)
    assert len(blocks) <= cpus
    if values < _parallel._SPLIT_MIN:
        assert len(blocks) == 1


def test_cpu_count_stands_in_for_a_missing_affinity_mask(monkeypatch):
    # 2000 x 1600 is three blocks' worth of values in a gradient pass
    rng = rng_for(21)
    z = np.asfortranarray(rng.normal(size=(2000, 1600)))
    coeff = rng.normal(size=2000)
    assert len(_parallel._blocks(1600, z.size, 3)) == 3
    gradient = np.einsum("i,ij->j", coeff, z).tobytes()
    asked = []

    def cpu_count():
        asked.append(True)
        return 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", cpu_count)
    assert _parallel._usable_cpus() == 3
    assert risk._row_sum(coeff, z).tobytes() == gradient
    assert len(asked) == 2


def test_concurrent_callers_get_their_own_bytes_from_one_pool(monkeypatch):
    # more callers than CPUs race to create the pool and share its workers
    rng = rng_for(22)
    z = np.asfortranarray(rng.normal(size=(2000, 1100)))
    coeff = rng.normal(size=2000)
    expected = np.einsum("i,ij->j", coeff, z).tobytes()
    created, results = [], []

    class Counted(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(self)
            time.sleep(0.05)   # widen the window a missing lock leaves open
            super().__init__(*args, **kwargs)

    def call():
        for _ in range(10):
            results.append(risk._row_sum(coeff, z).tobytes())
    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(_parallel, "_pool", None)
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
    callers = [threading.Thread(target=call) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        for pool in created:
            pool.shutdown()
    assert not any(caller.is_alive() for caller in callers)
    assert len(results) == 60 and set(results) == {expected}
    assert len(created) == 1


FORK = r"""
import os, sys, time
import numpy as np
from smooth_threshold import _parallel, risk

_parallel._usable_cpus = lambda: 2   # split even on a one-CPU machine
z = np.asfortranarray(np.random.default_rng(3).normal(size=(2000, 1100)))
coeff = np.random.default_rng(4).normal(size=2000)
before = risk._row_sum(coeff, z).tobytes()
if _parallel._pool is None:
    sys.exit(4)   # the pass did not split
pid = os.fork()
if pid == 0:
    os._exit(0 if risk._row_sum(coeff, z).tobytes() == before else 1)
deadline = time.monotonic() + 30
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.05)
os.kill(pid, 9)
os.waitpid(pid, 0)
sys.exit(3)   # the child hung
"""


def test_forked_child_runs_split_passes_on_its_own_pool():
    done = subprocess.run([sys.executable, "-c", FORK], env=src_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, (done.returncode, done.stderr)


SMALL_CV = r"""
import json, threading
from smooth_threshold import (PathConfig, SimSpec, SmoothedRiskSpec,
                              SurrogateLoss, cross_validate_lambda,
                              default_lambda_grid, generate, get_kernel,
                              path_following, _parallel)

threads = threading.active_count()
data, _ = generate(SimSpec(model="conditional_mean", n=2000, d=64, s=8,
                           seed=5))
kernel = get_kernel("gaussian")
grid = default_lambda_grid(data, kernel, 1.0)
cv = cross_validate_lambda(data, kernel, 1.0, 5, grid, 7)
spec = SmoothedRiskSpec(data, SurrogateLoss(kernel, 1.0))
path_following(spec, PathConfig(lambda_tgt=cv.lambda_1se))
print(json.dumps([_parallel._pool is None, threads, threading.active_count()]))
"""


def test_small_fits_start_no_thread():
    done = subprocess.run([sys.executable, "-c", SMALL_CV], env=src_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    no_pool, before, after = json.loads(done.stdout.splitlines()[-1])
    assert no_pool and after == before
