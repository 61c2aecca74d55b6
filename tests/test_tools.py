"""The benchmark tool tools/bench.py still runs against the library.

No test times anything: each layer runs once at its smallest setting, or
prints its usage, so a layer that calls a renamed or removed name fails
here rather than on its next use.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from addbasis.catalog import DEFAULT
from addbasis.enumeration import enumerate_admissible
from addbasis.mitm import SearchTarget, _level_streams

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def run_bench(*argv, code=0):
    """Run tools/bench.py with argv; its stdout, on exit `code`."""
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "bench.py"), *argv], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == code, proc.stderr
    return proc.stdout


def rows(*argv):
    return [json.loads(line) for line in run_bench(*argv).splitlines()]


@pytest.mark.parametrize(
    "argv",
    [
        ["scan"],
        ["pool"],
        # also checks that the stream survives store, load and verify
        ["io"],
        # overrides enumeration.SHALLOW_LEVELS and reads enumeration._split
        ["split", "--stream", "8,20"],
    ],
    ids=lambda argv: argv[0],
)
def test_one_round(argv):
    printed = rows(*argv, "--rounds", "1")
    assert printed
    assert all(len(row.get("samples", row.get("wall_samples"))) == 1 for row in printed)


def test_dfs_help():
    # one round takes 8-9 s
    assert "usage:" in run_bench("dfs", "--help")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", TOOLS / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("k, count", [(22, 30), (23, 14), (26, 44)])
def test_dfs_walks_the_shorter_stream_of_a_descent(bench, k, count):
    target = SearchTarget.create(k, DEFAULT.known_restricted_range(k))
    prefixes, suffixes = _level_streams(target)
    shorter = suffixes if target.suffix_length < target.pivot else prefixes
    assert list(enumerate_admissible(bench.descent_spec(k))) == list(shorter)
    assert len(shorter) == count


@pytest.mark.parametrize(
    "argv",
    [["scan", "--rounds", "0"], ["startup", "--lengths", "26-20"], ["startup", "--against", str(TOOLS)]],
    ids=["rounds-0", "lengths-descending", "against-no-checkout"],
)
def test_usage_error(argv):
    assert run_bench(*argv, code=2) == ""


def test_startup_against_a_checkout():
    # the repository against itself, so every extremal row prints the same
    printed = rows(
        "startup", "--rounds", "1", "--lengths", "3", "--threads", "1", "--against", str(TOOLS.parent)
    )
    assert [(row["case"], row["side"]) for row in printed] == [
        (case, side) for case in ("python", "import", "extremal") for side in ("this", "against")
    ]
    assert all(row["same_stdout"] for row in printed if row["case"] == "extremal")
