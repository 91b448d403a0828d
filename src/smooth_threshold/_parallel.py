"""How the package spreads its work over the usable CPUs, bit for bit.

The usable CPUs are the affinity mask, or the CPU count where the OS keeps
none; there is no knob.  ``split(block, length, values)`` runs a large
gradient pass over z in blocks of columns, at most one per usable CPU, each
reading at least ``_SPLIT_MIN`` values and at least two wide.  The calling
thread runs the first block and a thread pool, created on first use and
anew in a forked child, the others; each block runs the same einsum loop
for each of its output elements.  ``split`` waits for every block, so
outside it the pool's threads are idle and stop no fork (``_may_fork``).

``fork_map(fn, values, label)`` is ``[fn(v) for v in values]`` for the grid
fits of a Lepski procedure, on Linux in forked workers: one per usable CPU
up to one per value, the calling process being one, each splitting its
passes too.  Each worker pipes its results and the warnings they raised
back, and the caller issues the warnings in order.  Every call of ``fn``
runs whole in one process, so results and warnings are those of the loop,
which runs as such on one usable CPU, for one value, without ``os.fork``,
off Linux, and while a Python thread other than the pool's is alive.  The
cross-validation folds run in turn.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError

# fewest values of z one block of a pass reads: at n=2000 the gradient ran
# about as fast on two CPUs as on one up to 0.8M values and faster from 1M
_SPLIT_MIN = 1 << 20

_POOL_NAME = "smooth_threshold.split"
_pool = None
_pool_lock = threading.Lock()


def _forget_pool():
    # a forked child has none of its parent's threads; it starts its own
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # Windows has no fork
    os.register_at_fork(after_in_child=_forget_pool)


def _may_fork() -> bool:
    # every other Python thread is the pool's, idle outside split
    return all(t is threading.current_thread() or t.name.startswith(_POOL_NAME)
               for t in threading.enumerate())


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS, Windows
        return os.cpu_count() or 1


def _blocks(length: int, values: int, cpus: int) -> list[tuple[int, int]]:
    # [0, length) cut into at most one block per CPU, each reading at least
    # _SPLIT_MIN values and at least 2 wide: einsum sums a lone column of
    # over 8192 samples in another order
    k = max(1, min(cpus, values // _SPLIT_MIN, length // 2))
    cuts = [length * i // k for i in range(k + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def split(block, length: int, values: int) -> np.ndarray:
    # block(a, b, out) writes elements [a, b) of the result of a pass that
    # reads ``values`` values; the calling thread runs the first block
    global _pool
    if values < 2 * _SPLIT_MIN:
        return block(0, length, None)
    cpus = _usable_cpus()
    blocks = _blocks(length, values, cpus)
    if len(blocks) == 1:
        return block(0, length, None)
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(cpus - 1, thread_name_prefix=_POOL_NAME)
        pool = _pool
    out = np.empty(length)
    futures = [pool.submit(block, a, b, out[a:b]) for a, b in blocks[1:]]
    try:
        a, b = blocks[0]
        block(a, b, out[a:b])
    finally:
        for future in futures:
            future.result()
    return out


def _run_share(fn: Callable, values: Sequence) -> list:
    # (result, the warnings it raised) per value, the warnings caught under
    # the caller's filters to be issued again in order
    share = []
    for value in values:
        with warnings.catch_warnings(record=True) as caught:
            result = fn(value)
        share.append((result, [(w.message, w.filename, w.lineno) for w in caught]))
    return share


def _warn_again(message: Warning, filename: str, lineno: int) -> None:
    # as if raised where it was: that module's filters and once-per-line
    # registry apply, as they do to a call run in this process
    for module in list(sys.modules.values()):
        if getattr(module, "__file__", None) == filename:
            where = vars(module)
            warnings.warn_explicit(message, type(message), filename, lineno,
                                   where["__name__"],
                                   where.setdefault("__warningregistry__", {}))
            return
    warnings.warn_explicit(message, type(message), filename, lineno)


def _worker(write: int, fn: Callable, values: Sequence) -> None:
    # a forked worker's whole life: run its share, send it, and exit without
    # running the caller's clean-up; any failure is a nonzero status
    status = 1
    try:
        # protocol 5 brings a read-only array back read-only
        payload = pickle.dumps(_run_share(fn, values), protocol=5)
        with open(write, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _workers(count: int) -> int:
    # one worker per usable CPU, up to one per value, or 1: this process
    # alone.  A fork is unsafe while another Python thread may run
    # (_may_fork), and macOS system libraries are not fork-safe
    if (count < 2 or not sys.platform.startswith("linux")
            or not hasattr(os, "fork") or not _may_fork()):
        return 1
    return min(_usable_cpus(), count)


def fork_map(fn: Callable, values: Sequence, label: str) -> list:
    """``[fn(v) for v in values]``.  With k > 1 workers (``_workers``)
    worker w runs the values at positions w, w + k, ..., this process being
    worker 0.  A worker that ends without its results raises
    ``NumericError`` naming ``label`` and its values; no child outlives the
    call."""
    k = _workers(len(values))
    if k == 1:
        return [fn(value) for value in values]
    shares = [values[w::k] for w in range(k)]
    results = [None] * k
    children = {}  # worker -> (pid, read end of its pipe)
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork from a process with more than one
            # OS thread.  No other Python thread runs here (_workers): the
            # split pool's threads wait idle, and a child starts its own.
            # The rest are native BLAS threads, which a fit never calls on
            # and OpenBLAS stops around a fork itself
            warnings.filterwarnings("ignore", r".*multi-threaded, use of fork\(\)",
                                    DeprecationWarning)
            for w in range(1, k):
                read, write = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _worker(write, fn, shares[w])
                os.close(write)
                children[w] = pid, open(read, "rb")
        results[0] = _run_share(fn, shares[0])
        for w in range(1, k):
            pid, pipe = children[w]
            payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[w]
            pipe.close()
            if status != 0:
                raise NumericError(
                    f"{label} {', '.join(f'{v:g}' for v in shares[w])}: the "
                    f"worker fitting them ended with status {status}")
            results[w] = pickle.loads(payload)
    finally:
        for pid, pipe in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    out = []
    for i in range(len(values)):
        result, caught = results[i % k][i // k]
        for warning in caught:
            _warn_again(*warning)
        out.append(result)
    return out
