"""The example scripts run to completion against the library in src/, and
no module of the package or the scripts imports a name it never reads."""

import ast
from pathlib import Path

import pytest

from helpers import run_python

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["gap_census.py", "--max-arity", "3"],
    ["witness_gallery.py"],
    ["decomposition_demo.py"],
])
def test_script_exits_cleanly(argv):
    proc = run_python(str(ROOT / "scripts" / argv[0]), *argv[1:], timeout=120)
    assert proc.returncode == 0, proc.stderr


def unread_imports(path):
    """Names that the module at path imports and never reads; imports from
    __future__ bind no name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


@pytest.mark.parametrize("path", sorted([*(ROOT / "src" / "fndecomp").glob("*.py"),
                                         *(ROOT / "scripts").glob("*.py")]),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_imported_name_is_read(path):
    # the package __init__ re-exports nothing by import: its names are served
    # lazily from their modules, so it is held to the same rule
    assert not unread_imports(path)
