"""numpy is the package's only third-party import."""

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
