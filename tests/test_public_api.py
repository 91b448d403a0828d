"""The package's public surface and source: every exported name resolves,
no check in the source is an ``assert``, only ``_parallel`` spreads work
over threads and processes, no CLI handler writes a file, and each job has
one way in."""

import ast
import math
import pathlib

import numpy as np
import pytest

import smooth_threshold
from smooth_threshold import cli

PACKAGE = sorted(pathlib.Path(smooth_threshold.__file__).parent.glob("*.py"))
# the modules and the os functions that start, feed or wait on threads and
# processes, or read the usable CPUs
THREAD_AND_FORK_MODULES = {"threading", "signal", "pickle", "concurrent",
                           "multiprocessing"}
FORK_AND_AFFINITY = {"fork", "pipe", "waitpid", "kill", "sched_getaffinity",
                     "register_at_fork"}


def test_every_exported_name_resolves():
    # includes the lazily imported cli names, so a stale export fails here
    missing = [name for name in smooth_threshold.__all__
               if not hasattr(smooth_threshold, name)]
    assert missing == []
    assert {"load_csv", "ColumnRoles"} <= set(smooth_threshold.__all__)


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so a check made with one vanishes
    assert "optimizer.py" in [path.name for path in PACKAGE]
    found = [f"{path.name}:{node.lineno}" for path in PACKAGE
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_handler_writes_a_file():
    # each cli._cmd_* returns its lines and tables; main alone opens and
    # writes the files of a run
    writers = {"open", "_open_out", "_open_outputs", "_write_csv", "_write_doc",
               "writer", "writerow", "writerows", "write", "savetxt", "tofile"}
    tree = ast.parse(next(p for p in PACKAGE if p.name == "cli.py").read_text())
    found = {node.name: called_names(node) & writers for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")}
    assert set(found) == {handler.__name__
                          for handler, _ in cli._SUBCOMMANDS.values()}
    assert {name: calls for name, calls in found.items() if calls} == {}


def called_names(node):
    """The names of the functions and methods called inside ``node``."""
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))}


def imports_and_os_names(path):
    """The top-level modules ``path`` imports, and the names of ``os`` it
    imports or reads as attributes."""
    imported, os_names = set(), set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
            if node.module == "os":
                os_names |= {alias.name for alias in node.names}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "os"):
            os_names.add(node.attr)
    return imported, os_names


def test_only_the_parallel_module_spreads_work():
    # threads, forks, pipes and the affinity mask live in _parallel alone;
    # risk and tuning call its split and fork_map and touch no os at all
    found = {}
    for path in PACKAGE:
        imported, os_names = imports_and_os_names(path)
        found[path.stem] = (imported & THREAD_AND_FORK_MODULES,
                            os_names & FORK_AND_AFFINITY, "os" in imported)
    assert found.pop("_parallel") == (
        THREAD_AND_FORK_MODULES - {"multiprocessing"}, FORK_AND_AFFINITY, True)
    assert {name: hits for name, hits in found.items()
            if hits[:2] != (set(), set())} == {}
    assert not found["risk"][2] and not found["tuning"][2]


def test_the_stage_loop_has_one_way_in():
    # path_following is the solver's entry; the single-stage entry, its
    # argument checks and the loop's shrink and projection steps are not public
    from smooth_threshold import optimizer
    for name in ("proximal_gradient", "_check_solver", "soft_threshold",
                 "project_ball"):
        assert name not in smooth_threshold.__all__
        assert not hasattr(optimizer, name)


def test_a_kernel_is_its_closed_forms():
    # a kernel declares its tail; no quadrature stands in for a missing one
    from smooth_threshold import kernels
    with pytest.raises(TypeError, match="tail"):
        kernels.Kernel(name="gaussian", evaluate=np.exp, order=1,
                       sup_bound=1.0, support_radius=math.inf)
    assert not hasattr(kernels, "_tail_by_quadrature")


def test_generate_is_the_one_simulator_with_its_one_target():
    # SimSpec sets theta_star from d and s, and generate is the only way to
    # draw from a model
    from smooth_threshold import simulate
    with pytest.raises(TypeError, match="theta_star"):
        simulate.SimSpec(model="binary_response", n=5, d=3, s=1,
                         theta_star=np.ones(3))
    for name in ("gen_binary_response", "gen_conditional_mean"):
        assert name not in simulate.__all__
        assert not hasattr(simulate, name)


def uses_of(stem, name):
    """Where module ``stem`` names ``name``: "import" for an import of it,
    the top-level function or class that reads it, "module" elsewhere."""
    path = next(p for p in PACKAGE if p.stem == stem)
    found = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        where = getattr(node, "name", "module")
        for sub in ast.walk(node):
            if isinstance(sub, ast.alias) and sub.name == name:
                found.add("import")
            elif (isinstance(sub, ast.Name) and sub.id == name) or (
                    isinstance(sub, ast.Attribute) and sub.attr == name):
                found.add(where)
    return found


def test_tuning_then_fitting_has_one_way_in():
    # tuning.tuned_fit composes every mode's tuning with its fit; fit and
    # bench call it, simulate never calls the solver itself, and cli calls
    # it only to print a path stage by stage
    from smooth_threshold import simulate, tuning
    assert uses_of("simulate", "path_following") == set()
    assert uses_of("cli", "path_following") == {"import", "_cmd_path"}
    assert uses_of("cli", "tuned_fit") == {"import", "_cmd_fit"}
    assert uses_of("simulate", "tuned_fit") == {"import", "run_benchmark"}
    assert not hasattr(tuning, "tuned_penalty")
    assert not hasattr(cli, "_LEPSKI") and not hasattr(cli, "_BENCH_MODES")
    assert not hasattr(simulate, "BENCH_MODES")
    assert "BENCH_MODES" not in simulate.__all__
