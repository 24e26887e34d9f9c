"""The public names: what ``from sirdvax import *`` gives and what ``__init__`` imports."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import sirdvax


def imported_names() -> set[str]:
    """The names ``sirdvax/__init__.py`` binds by its ``from ... import`` statements."""
    tree = ast.parse(Path(sirdvax.__file__).read_text("utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }


def test_star_import_raises_no_warning():
    # a fresh interpreter, so the import itself runs with every warning an error
    package_root = str(Path(sirdvax.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, path]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", "from sirdvax import *"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    assert [name for name in sirdvax.__all__ if not hasattr(sirdvax, name)] == []
    assert len(set(sirdvax.__all__)) == len(sirdvax.__all__)


def test_every_public_import_is_exported():
    public = {name for name in imported_names() if not name.startswith("_")}
    assert public - set(sirdvax.__all__) == set()
