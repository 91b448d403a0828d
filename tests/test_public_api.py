"""The package's public surface and source: every exported name resolves,
no check in the source is an ``assert``, only ``_parallel`` spreads work
over threads and processes, and no CLI handler writes a file."""

import ast
import pathlib

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
