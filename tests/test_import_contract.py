"""Fitting never loads scipy.integrate; only quadrature does.  Importing
the package, drawing data and refusing a flag never load scipy.special;
building a gaussian-family kernel or the toy risks does.

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
]
report = []
for argv in runs:
    code = main(argv.split())
    report.append([argv, code, "scipy.integrate" in sys.modules])
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
    *runs, (_, moment, loaded) = run_fresh(SCRIPT, tmp_path)
    for argv, code, integrate_loaded in runs:
        assert code == 0, argv
        assert not integrate_loaded, argv
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


@pytest.mark.parametrize("build, value", [
    ('get_kernel("gaussian")', "built.tail(0.5)"),
    ('get_kernel("gaussian-order-2")', "built.tail(0.5)"),
    ("toy_population_risks([0.5])", "built.risk01[0]"),
])
def test_gaussian_kernels_and_toy_risks_load_scipy_special(build, value):
    # a kernel binds ndtr when it is built, before its tail is ever called
    script = ("import json, sys\n"
              "from smooth_threshold import get_kernel, toy_population_risks\n"
              "before = 'scipy.special' in sys.modules\n"
              f"built = {build}\n"
              "after = 'scipy.special' in sys.modules\n"
              f"print(json.dumps([before, after, float({value})]))\n")
    before, after, result = run_fresh(script)
    assert not before
    assert after
    assert 0.0 < result < 1.0
