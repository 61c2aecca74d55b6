"""A run loads a module only when it first uses it: a search imports
neither `multiprocessing` nor the oracle until it starts a pool or asks
for the brute force, the library never imports `json`, and the command
line imports `json` and the oracle only in the branches that use them."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import addbasis
from addbasis.mitm import find_extremal_restricted

SRC = str(Path(addbasis.__file__).resolve().parents[1])

# run in a fresh interpreter, where no test has loaded anything yet
FRESH = textwrap.dedent(
    """
    import sys

    import addbasis.core, addbasis.enumeration, addbasis.catalog, addbasis.mitm, addbasis.cli

    LAZY = ("multiprocessing", "json", "addbasis.oracle")
    print("loaded:", *[name for name in LAZY if name in sys.modules])

    from addbasis import OracleResult, brute_force

    assert brute_force(4).n2 == 12 and OracleResult.__module__ == "addbasis.oracle"
    try:
        addbasis.no_such_name
    except AttributeError as exc:
        print("missing:", exc)

    addbasis.find_extremal_restricted(12, processes=2)
    print("after a parallel search:", "multiprocessing" in sys.modules)
    """
)


def test_modules_load_on_first_use(started_pools):
    proc = subprocess.run(
        [sys.executable, "-c", FRESH],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "loaded:",
        "missing: module 'addbasis' has no attribute 'no_such_name'",
        "after a parallel search: True",
    ]
    # the pool, whose module is imported when it starts, still comes
    # from the module attribute that the fixture wraps
    find_extremal_restricted(12, processes=2)
    assert len(started_pools) == 1
