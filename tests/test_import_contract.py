"""Fitting never loads scipy.integrate; only quadrature does.  Nothing the
package does loads scipy.special: a gaussian-family kernel and the toy
risks bind its ndtr ufunc from the one extension that defines it.

Each check runs in a fresh interpreter, because this process may already
hold scipy through pytest, hypothesis or another test.
"""

import json
import subprocess
import sys

import pytest

from conftest import src_env

SCRIPT = r"""
import json, os, sys
from smooth_threshold.cli import main

os.chdir(sys.argv[1])
sim = "--model conditional_mean --n 150 --d 8 --s 2 --noise-sd 1.0"
runs = [
    f"simulate {sim} --seed 9 --out sim.csv",
    "fit --input sim.csv --tune cv --delta 0.5 --folds 3 --seed 1",
    "fit --input sim.csv --tune lepski-s --beta 1",
    "path --input sim.csv --delta 0.5 --lambda-tgt 0.1 --out path.csv",
    f"bench {sim} --tune theory --beta 1 --reps 2 --out bench.csv",
    "diagnose --probe bias --n 100 --d 4 --s 2 --num-directions 3 --out bias.txt",
    "toy-risks --grid-start -1 --grid-stop 1 --grid-step 0.5 --out toy.csv",
]
report = []
for argv in runs:
    code = main(argv.split())
    report.append([argv, code, "scipy.integrate" in sys.modules,
                   "scipy.special" in sys.modules])
from smooth_threshold.kernels import get_kernel, kernel_moment
moment = kernel_moment(get_kernel("gaussian"), 2)
report.append(["kernel_moment", moment, "scipy.integrate" in sys.modules])
print(json.dumps(report))
"""


def run_fresh(script, *args):
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=src_env(), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_only_quadrature_loads_scipy_integrate(tmp_path):
    # scipy.special is checked before kernel_moment: scipy.integrate may load it
    *runs, (_, moment, loaded) = run_fresh(SCRIPT, tmp_path)
    assert len(runs) == 7
    for argv, code, integrate_loaded, special_loaded in runs:
        assert code == 0, argv
        assert not integrate_loaded, argv
        assert not special_loaded, argv
    assert loaded
    assert abs(moment - 1.0) <= 1e-8


NO_SPECIAL = r"""
import contextlib, io, json, os, sys
report = []

def step(name, result=None):
    report.append([name, result, "scipy.special" in sys.modules])

import smooth_threshold
step("import smooth_threshold")
from smooth_threshold import SimSpec, generate
from smooth_threshold.simulate import SIM_MODELS
for model in SIM_MODELS:
    data, _ = generate(SimSpec(model=model, n=50, d=6, s=2, seed=3))
    step(f"generate {model}", data.n)
from smooth_threshold.cli import main
os.chdir(sys.argv[1])
with contextlib.redirect_stderr(io.StringIO()):
    step("simulate", main("simulate --model binary_response --n 40 --d 5 "
                          "--s 2 --seed 1 --out sim.csv".split()))
    step("fit --bogus", main(["fit", "--bogus"]))
print(json.dumps(report))
"""


def test_import_generate_simulate_and_refusal_leave_scipy_special_out(tmp_path):
    report = run_fresh(NO_SPECIAL, tmp_path)
    assert [name for name, _, _ in report] == [
        "import smooth_threshold", "generate binary_response",
        "generate conditional_mean", "generate one_bit_noiseless",
        "simulate", "fit --bogus"]
    assert dict((name, result) for name, result, _ in report[4:]) == \
        {"simulate": 0, "fit --bogus": 2}
    for name, _, loaded in report:
        assert not loaded, name


def require_special_ufuncs_ndtr():
    """Skip where the installed scipy keeps ndtr outside _special_ufuncs."""
    import scipy

    try:
        from scipy.special import _special_ufuncs
    except ImportError:
        _special_ufuncs = None
    if not hasattr(_special_ufuncs, "ndtr"):
        pytest.skip(f"scipy {scipy.__version__} has no _special_ufuncs.ndtr")


# the tail's grid: signed zeros, a tiny pair, tails that round to 1, turn
# subnormal (38) and underflow to 0 (40), then 10**6 seeded normals times 20
TAIL_GRID = r"""
import numpy as np
fixed = [0.0, -0.0, 1e-300, -1e-300, 8.3, -8.3, 38.0, -38.0, 40.0, -40.0]
grid = np.concatenate([fixed, 20.0 * np.random.default_rng(31).standard_normal(10 ** 6)])
"""


@pytest.mark.parametrize("build, value", [
    ('get_kernel("gaussian")', "built.tail(0.5)"),
    ('get_kernel("gaussian-order-2")', "built.tail(0.5)"),
    ("toy_population_risks([0.5])", "built.risk01[0]"),
], ids=["gaussian", "gaussian-order-2", "toy-risks"])
def test_builds_bind_ndtr_without_scipy_special(build, value):
    # a gaussian-family kernel and the toy risks bind the ufunc that
    # scipy.special.ndtr names, with its bits, and leave scipy.special out
    require_special_ufuncs_ndtr()
    script = (TAIL_GRID +
              "import json, sys\n"
              "from smooth_threshold import get_kernel, toy_population_risks\n"
              "from smooth_threshold.kernels import _ndtr\n"
              f"built = {build}\n"
              "after_build = 'scipy.special' in sys.modules\n"
              f"result = float({value})\n"
              "after_call = 'scipy.special' in sys.modules\n"
              "import scipy.special\n"
              "same = scipy.special.ndtr is _ndtr()\n"
              "equal = (get_kernel('gaussian').tail(grid).tobytes()\n"
              "         == scipy.special.ndtr(-grid).tobytes())\n"
              "print(json.dumps([after_build, after_call, result, same, equal]))\n")
    after_build, after_call, result, same, equal = run_fresh(script)
    assert not after_build
    assert not after_call
    assert 0.0 < result < 1.0
    assert same
    assert equal


FALLBACK = TAIL_GRID + r"""
import hashlib, json, sys
from smooth_threshold import kernels
if sys.argv[1] == "missing":
    kernels._NDTR_EXTENSION = "scipy.special._no_such_extension"
tail = kernels.get_kernel("gaussian-order-2").tail(grid)
print(json.dumps([hashlib.sha256(tail.tobytes()).hexdigest(),
                  "scipy.special" in sys.modules]))
"""


def test_missing_extension_falls_back_to_scipy_special():
    require_special_ufuncs_ndtr()
    direct, direct_loaded = run_fresh(FALLBACK, "direct")
    fallback, fallback_loaded = run_fresh(FALLBACK, "missing")
    assert fallback == direct
    assert not direct_loaded
    assert fallback_loaded
