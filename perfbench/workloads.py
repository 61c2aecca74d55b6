"""The four benchmark workloads: inputs, one operation, and its gate.

Every workload drives a public entry point of addbasis and checks each
result against the published bases packaged with the program.  The
search inputs are fixed by the paper's tables (n2*(21) = 164,
n2*(22) = 180, n2*(23) = 196); the seed only reorders the `stream_io`
stream before it is stored.  `smoke` swaps in tiny sizes that run the
same code paths in well under a second, for the benchmark's own tests.
"""

from __future__ import annotations

import random
import tempfile
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace


class Descent:
    """find_extremal_restricted(k): the n2* descent, serial, no cache."""

    name = "descent"
    processes = 1
    full_k = 23

    def __init__(self, api, seed: int, smoke: bool, out_dir: Path) -> None:
        self.api = api
        self.k = 12 if smoke else self.full_k
        fixtures = api.catalog.extremal_restricted_fixtures()[self.k]
        self.expected_n = fixtures[0].range
        self.expected = sorted(f.basis for f in fixtures)

    def run(self, tracer):
        return self.api.mitm.find_extremal_restricted(self.k, processes=self.processes)

    def check(self, report) -> bool:
        return report.n == self.expected_n and list(report.bases) == self.expected


class DescentTwoProc(Descent):
    """The descent with processes=2: one pool per stream and per scan."""

    name = "descent_2proc"
    processes = 2
    full_k = 22


class PairScan:
    """search_restricted at the extremal level of one k, serial."""

    name = "pairscan"

    def __init__(self, api, seed: int, smoke: bool, out_dir: Path) -> None:
        self.api = api
        self.k, self.n = (11, 54) if smoke else (21, 164)
        self.target = api.mitm.SearchTarget.create(self.k, self.n)
        self.expected = sorted(
            f.basis for f in api.catalog.extremal_restricted_fixtures()[self.k]
        )

    def run(self, tracer):
        return self.api.mitm.search_restricted(self.target)

    def check(self, report) -> bool:
        return report.n == self.n and list(report.bases) == self.expected


class StreamIO:
    """Store an admissible stream in a fresh PrefixCache, load it back and
    classify every basis: the `enumerate --out` -> `verify` path."""

    name = "stream_io"

    def __init__(self, api, seed: int, smoke: bool, out_dir: Path) -> None:
        self.api = api
        self.length, self.min_range, self.expected_count = (
            (7, 14, 1434) if smoke else (10, 30, 192_684)
        )
        spec = api.enumeration.EnumSpec(self.length, self.min_range)
        self.stream = list(api.enumeration.enumerate_admissible(spec))
        random.Random(seed).shuffle(self.stream)
        self.out_dir = out_dir

    def run(self, tracer):
        # a fresh directory per operation; removed by check(), or by the
        # finalizer of TemporaryDirectory if the operation raised
        tmp = tempfile.TemporaryDirectory(dir=self.out_dir)
        cache = self.api.catalog.PrefixCache(tmp.name)
        cache.store(self.length, self.min_range, self.stream)
        loaded = cache.load(self.length, self.min_range)
        classify = self.api.core.classify
        with tracer.span("core.classify") if tracer else nullcontext():
            classes = [classify(b) for b in loaded]
        if tracer:
            tracer.count("core.classified", len(classes))
        return SimpleNamespace(tmp=tmp, loaded=loaded, classes=classes)

    def check(self, result) -> bool:
        result.tmp.cleanup()
        return (
            len(self.stream) == self.expected_count
            and result.loaded == self.stream
            and all(c.admissible and c.range >= self.min_range for c in result.classes)
        )


WORKLOADS = {w.name: w for w in (Descent, PairScan, DescentTwoProc, StreamIO)}
