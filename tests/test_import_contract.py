"""Fitting never loads scipy.integrate; only quadrature does.

The check runs in a fresh interpreter, because this process may already
hold scipy.integrate through pytest, hypothesis or another test.
"""

import json
import subprocess
import sys

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


def test_only_quadrature_loads_scipy_integrate(tmp_path):
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          env=src_env(), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    *runs, (_, moment, loaded) = json.loads(done.stdout.splitlines()[-1])
    for argv, code, integrate_loaded in runs:
        assert code == 0, (argv, done.stderr)
        assert not integrate_loaded, argv
    assert loaded
    assert abs(moment - 1.0) <= 1e-8
