"""The package's public surface and source: every exported name resolves,
and no check in the source is an ``assert``."""

import ast
import pathlib

import smooth_threshold


def test_every_exported_name_resolves():
    # includes the lazily imported cli names, so a stale export fails here
    missing = [name for name in smooth_threshold.__all__
               if not hasattr(smooth_threshold, name)]
    assert missing == []
    assert {"load_csv", "ColumnRoles"} <= set(smooth_threshold.__all__)


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so a check made with one vanishes
    paths = sorted(pathlib.Path(smooth_threshold.__file__).parent.glob("*.py"))
    assert "optimizer.py" in [path.name for path in paths]
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
