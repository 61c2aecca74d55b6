"""The benchmark tools under tools/ still run against the library.

No test times anything: each tool runs once at its smallest setting, or
prints its usage, so a tool that calls a renamed or removed name fails
here rather than on its next use.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def run_tool(name, *argv):
    """Run tools/<name> with argv; its stdout on exit 0."""
    proc = subprocess.run(
        [sys.executable, str(TOOLS / name), *argv], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", ["bench_scan.py", "bench_pool.py", "bench_io.py"])
def test_one_round(name):
    # bench_io.py also checks that the stream survives store, load and verify
    rows = [json.loads(line) for line in run_tool(name, "--rounds", "1", "--json").splitlines()]
    assert rows


@pytest.mark.parametrize("name", ["bench_dfs.py", "bench_io.py", "bench_split.py"])
def test_help(name):
    assert "usage:" in run_tool(name, "--help")


def test_startup_against_a_checkout():
    # the repository against itself, so every extremal row prints the same
    rows = [
        json.loads(line)
        for line in run_tool(
            "bench_startup.py", "--rounds", "1", "--lengths", "3", "--threads", "1",
            "--against", str(TOOLS.parent),
        ).splitlines()
    ]
    assert [(row["case"], row["side"]) for row in rows] == [
        (case, side) for case in ("python", "import", "extremal") for side in ("this", "against")
    ]
    assert all(row["same_stdout"] for row in rows if row["case"] == "extremal")
