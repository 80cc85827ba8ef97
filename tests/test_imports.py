"""numpy is the package's only third-party import, no module imports a
name it never uses, and every exported name exists."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

ENTRY_MODULES = ("repro.api", "repro.campaign", "repro.store", "repro.cli", "repro.service.server")

#: Prints the top-level packages the imports loaded, minus the standard
#: library and aliases such as multiprocessing's ``__mp_main__``.
PROBE = f"""
import json, sys
before = set(sys.modules)
import {", ".join(ENTRY_MODULES)}
loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print(json.dumps(sorted(
    name for name in loaded
    if name not in sys.stdlib_module_names and not name.startswith("__")
)))
"""


def test_entry_modules_import_only_numpy():
    """A fresh interpreter importing every entry point loads no networkx."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    completed = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    third_party = json.loads(completed.stdout)
    assert "networkx" not in third_party
    assert set(third_party) <= {"numpy", "repro"}


def _names_used(tree: ast.Module) -> set:
    """Every name a module reads, counting names inside string constants.

    A string that parses as an expression (a quoted annotation, an
    ``__all__`` entry) contributes the names it mentions.
    """
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            used.update(name.id for name in ast.walk(quoted) if isinstance(name, ast.Name))
    return used


def unused_imports(path: Path) -> list:
    """``(line, name)`` of each name ``path`` imports and never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.partition(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
    used = _names_used(tree)
    return [(line, name) for line, name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    """Package ``__init__`` modules re-export, so only the others are checked."""
    package = Path(repro.__file__).parent
    found = {
        f"{path.relative_to(package.parent)}:{line} {name}"
        for path in sorted(package.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    }
    assert not found, sorted(found)


def test_the_check_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from typing import TYPE_CHECKING, Dict\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "def f(x: 'Path') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(module) == [(2, "np"), (3, "Dict")]


def test_names_in_prose_are_not_uses(tmp_path):
    module = tmp_path / "module.py"
    module.write_text('"""Uses field from dataclasses."""\nfrom dataclasses import field\n')
    assert unused_imports(module) == [(2, "field")]


def test_every_exported_name_resolves():
    """Each ``__all__`` entry of every ``repro`` module is an attribute of it."""
    package = Path(repro.__file__).parent
    missing = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__main__.py":
            continue
        parts = path.relative_to(package.parent).with_suffix("").parts
        name = ".".join(parts[:-1] if path.name == "__init__.py" else parts)
        module = importlib.import_module(name)
        missing += [
            f"{name}.{export}"
            for export in getattr(module, "__all__", ())
            if not hasattr(module, export)
        ]
    assert not missing, missing

