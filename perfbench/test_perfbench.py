"""Tests of the benchmark itself, on the smoke sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
ORIGINAL_POOL = multiprocessing.Pool


def wrapped_targets() -> list[str]:
    """Names of program attributes that still carry a benchmark wrapper."""
    mitm = sys.modules["addbasis.mitm"]
    cache = sys.modules["addbasis.catalog"].PrefixCache
    targets = {
        "mitm.enumerate_admissible": mitm.enumerate_admissible,
        "mitm._scan_pairs": mitm._scan_pairs,
        "mitm.search_restricted": mitm.search_restricted,
        "mitm._certainly_empty": mitm._certainly_empty,
        "PrefixCache.store": cache.store,
        "PrefixCache.load": cache.load,
        "multiprocessing.Pool": multiprocessing.Pool,
    }
    return [name for name, obj in targets.items() if getattr(obj, "perfbench_wrapper", False)]


@pytest.fixture
def install_calls(monkeypatch):
    calls = []
    install = tracing.Tracer.install

    def recording_install(self, api):
        calls.append(wrapped_targets())
        install(self, api)
        calls.append(wrapped_targets())

    monkeypatch.setattr(tracing.Tracer, "install", recording_install)
    return calls


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_never_installs_wrappers(workload, install_calls, tmp_path):
    result = run.run_benchmark(workload, 1, 0, trace=False, smoke=True, out_dir=tmp_path)
    assert install_calls == []
    assert wrapped_targets() == []
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(result["metrics"][m]["value"] > 0 for m in ("wall_ref", "peak_rss_mb", "setup_s"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_restores_wrappers(workload, install_calls, tmp_path):
    result = run.run_benchmark(workload, 1, 0, trace=True, smoke=True, out_dir=tmp_path)
    assert len(install_calls) == 2
    before, during = install_calls
    assert before == [] and len(during) == 7
    assert wrapped_targets() == []
    assert multiprocessing.Pool == ORIGINAL_POOL
    assert result["correct"] and result["attempted"] == 2
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    spans = json.loads((tmp_path / f"trace-{workload}-seed1.json").read_text())["spans"]
    assert {s["op"] for s in spans} == {1}
    assert sum(s["parent"] is None for s in spans) == 1


def test_layer_counts_on_smoke_sizes(tmp_path):
    def layer(workload):
        return run.run_benchmark(workload, 2, 0, trace=True, smoke=True,
                                 out_dir=tmp_path)["metrics"]

    descent = layer("descent")
    assert descent["mitm.levels"]["value"] == 3
    assert descent["enum.streams"]["value"] == 6
    assert descent["pool.created"]["value"] == 0
    pairscan = layer("pairscan")
    assert pairscan["enum.streams"]["value"] == 1
    assert pairscan["scan.matches"]["value"] == 2
    two_proc = layer("descent_2proc")
    # parallel and serial descents check the same pairs
    assert two_proc["scan.pairs_checked"] == descent["scan.pairs_checked"]
    assert two_proc["pool.created"]["value"] > 0
    stream_io = layer("stream_io")
    assert stream_io["enum.streams"]["value"] == 0
    assert stream_io["cache.bytes"]["value"] > 0


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "pairscan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
