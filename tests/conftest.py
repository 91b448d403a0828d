import os
from pathlib import Path

import numpy as np
import pytest

from smooth_threshold import _parallel
from smooth_threshold.kernels import SurrogateLoss, get_kernel
from smooth_threshold.risk import Dataset, SmoothedRiskSpec


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def src_env():
    """Environment for a fresh interpreter that imports the package from src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def random_spec(n=40, d=3, seed=0, kernel="gaussian", delta=1.0, weights=None,
                scale=1.0):
    """Small random threshold-model instance for solver and gradient contracts."""
    rng = rng_for(seed)
    z = scale * rng.normal(size=(n, d))
    theta_true = rng.normal(size=d)
    theta_true /= np.linalg.norm(theta_true)
    x = rng.normal(size=n)
    u = rng.normal(scale=0.3, size=n)
    y = np.sign(x - z @ theta_true + u)
    y[y == 0] = 1.0
    data = Dataset(x=x, y=y, z=z)
    loss = SurrogateLoss(kernel=get_kernel(kernel), bandwidth=delta)
    return SmoothedRiskSpec(data=data, loss=loss, weights=weights)


@pytest.fixture
def rng():
    return rng_for(1234)


def log_call(path, line):
    """Append one line to ``path``: a spy's record that forked workers keep too."""
    with open(path, "a") as handle:   # O_APPEND: one short write lands whole
        handle.write(line + "\n")


def logged(path):
    """The lines ``log_call`` appended to ``path``, none when it never ran."""
    return Path(path).read_text().splitlines() if Path(path).exists() else []


@pytest.fixture
def forked_grid(monkeypatch):
    """Lepski grid fits spread over three forked processes, on any machine."""
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 3)


@pytest.fixture
def fits_in_turn(monkeypatch):
    """Lepski grid fits made in turn in this process, on any machine."""
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 1)


def assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
