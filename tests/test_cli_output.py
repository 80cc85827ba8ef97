"""Byte pins of the CLI's experiment output.

``cli_output.json`` holds, per command below, the exact stdout of
``repro-multicluster <command>`` with the ``engine wall-clock total:`` line
dropped (it reports measured cost, not results), plus the names and bytes
of the CSV files ``fig4 --no-sim --points 3 --csv-dir DIR`` writes.  The
tables, CSVs, Markdown report and agreement numbers are what a reader of
the reproduction sees, so a refactor of the experiment layer must leave
them unchanged byte for byte.  Simulated rows are seeded, and both kernels
print the same bytes.

A deliberate change of the output re-captures the fixture in the same
commit::

    PYTHONPATH=src python tests/test_cli_output.py
"""

import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest

from repro.cli import main

FIXTURE_PATH = Path(__file__).with_name("cli_output.json")

COMMANDS = (
    "table1",
    "saturation --nodes 544",
    "fig4 --no-sim --points 3",
    "fig4 --points 2",
    "sweep -m 4 --heights 1 2 2 1 --max-traffic 1e-3 --points 3",
    "ablation --nodes 544 --points 3",
    "report --no-sim --points 3",
    "run heterogeneous --points 2",
    "run fig4 --engines model --points 3",
    "run zoo/torus --points 2",
)

#: The CSV command; its ``wrote:`` line names the directory, pinned as DIR.
CSV_COMMAND = "fig4 --no-sim --points 3 --csv-dir"

WALL_CLOCK = "engine wall-clock total:"


def _stdout(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    assert code == 0, f"exit {code}: {' '.join(argv)}"
    lines = buffer.getvalue().splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith(WALL_CLOCK))


def _csv_output(directory: Path):
    stdout = _stdout(shlex.split(CSV_COMMAND) + [str(directory)])
    files = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(directory.iterdir())
    }
    return stdout.replace(str(directory), "DIR"), files


def capture(directory: Path) -> dict:
    """The fixture's content, computed by the code under test."""
    stdout, files = _csv_output(directory)
    return {
        "stdout": {command: _stdout(shlex.split(command)) for command in COMMANDS},
        "csv": {"stdout": stdout, "files": files},
    }


FIXTURE = json.loads(FIXTURE_PATH.read_text(encoding="utf-8")) if FIXTURE_PATH.exists() else None


@pytest.mark.parametrize("command", COMMANDS)
def test_command_prints_the_pinned_bytes(command):
    assert _stdout(shlex.split(command)) == FIXTURE["stdout"][command]


def test_figure_csv_files_are_pinned(tmp_path):
    stdout, files = _csv_output(tmp_path / "csv")
    assert stdout == FIXTURE["csv"]["stdout"]
    assert files == FIXTURE["csv"]["files"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        content = capture(Path(directory) / "csv")
    FIXTURE_PATH.write_text(json.dumps(content, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE_PATH}")
