"""Spans around the benchmark's calls into each addbasis layer.

Nothing here touches the program unless `Tracer.install` is called, and
the runner calls it only around the traced operations of a `--trace 1`
run, removing every wrapper again when the operation ends.  The wrappers
replace module attributes (the names `addbasis.mitm` looks up at call
time, `multiprocessing.Pool`, and the `PrefixCache` methods), so the
program's own code stays unchanged.

Each span has a name, a start and end (`time.perf_counter`), the span
that was open when it started, and the operation it belongs to.  Spans
are kept in memory and written out when the run ends.

Pool children are forked after the wrappers are installed and so run
the wrapped `_scan_pairs` too; the wrappers record nothing outside the
tracing process, so scan spans inside pool children are not collected.
The parent's wait on the parallel scan is recorded as `scan.pool_map`.
"""

from __future__ import annotations

import bisect
import multiprocessing
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import wraps
from pathlib import Path

# span name -> layer; a layer's self time is the time its spans do not
# spend inside child spans
LAYER_OF = {
    "op": "bench",
    "mitm.level": "mitm",
    "enum": "enumeration",
    "scan": "scan",
    "scan.pool_map": "scan",
    "pool.start": "pool",
    "pool.stop": "pool",
    "cache.store": "catalog",
    "cache.load": "catalog",
    "core.classify": "core",
}

NOTE = "scan spans inside pool children (descent_2proc) are not collected"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    op: int | None


def pairs_checked(prefix_block, suffix_records) -> int:
    """Pairs `_scan_pairs` examines: for each prefix, the front run of
    suffix records (sorted by descending minimum) with minr > last."""
    neg_minr = [-rec[0] for rec in suffix_records]
    return sum(bisect.bisect_left(neg_minr, -rec[0]) for rec in prefix_block)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    op: int | None = None
    _pid: int = field(default_factory=os.getpid)
    _stack: list[int] = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def active(self) -> bool:
        return os.getpid() == self._pid

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), name, time.perf_counter(), None,
                 self._stack[-1] if self._stack else None, self.op)
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.op, name)] += n

    # --- wrappers ---

    def install(self, api) -> None:
        mitm, catalog = api.mitm, api.catalog
        scan = mitm._scan_pairs
        self._patch(mitm, "enumerate_admissible", self._wrap_enum(mitm.enumerate_admissible))
        self._patch(mitm, "_scan_pairs", self._wrap_scan(scan))
        self._patch(mitm, "search_restricted", self._wrap_level(mitm.search_restricted))
        self._patch(mitm, "_certainly_empty", self._wrap_skip(mitm._certainly_empty))
        self._patch(multiprocessing, "Pool", self._wrap_pool(multiprocessing.Pool, scan))
        self._patch(catalog.PrefixCache, "store", self._wrap_store(catalog.PrefixCache.store))
        self._patch(catalog.PrefixCache, "load", self._wrap_load(catalog.PrefixCache.load))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        wrapper.perfbench_wrapper = True
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap_enum(self, original):
        @wraps(original)
        def enumerate_admissible(*args, **kwargs):
            n = 0
            with self.span("enum"):
                for basis in original(*args, **kwargs):
                    n += 1
                    yield basis
            self.count("enum.bases", n)

        return enumerate_admissible

    def _wrap_scan(self, original):
        @wraps(original)
        def _scan_pairs(args):
            if not self.active():
                return original(args)
            with self.span("scan"):
                found = original(args)
            self.count("scan.pairs_checked", pairs_checked(args[0], args[1]))
            self.count("scan.matches", len(found))
            return found

        return _scan_pairs

    def _wrap_level(self, original):
        @wraps(original)
        def search_restricted(*args, **kwargs):
            with self.span("mitm.level"):
                return original(*args, **kwargs)

        return search_restricted

    def _wrap_skip(self, original):
        @wraps(original)
        def _certainly_empty(*args, **kwargs):
            empty = original(*args, **kwargs)
            if empty:
                self.count("mitm.levels_skipped")
            return empty

        return _certainly_empty

    def _wrap_pool(self, original, scan):
        tracer = self

        class TracedPool:
            """Times start-up and shutdown of a real pool; the parent's wait
            on a parallel pair scan is a `scan.pool_map` span."""

            def __init__(self, *args, **kwargs):
                with tracer.span("pool.start"):
                    self._pool = original(*args, **kwargs)
                tracer.count("pool.created")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                with tracer.span("pool.stop"):
                    return self._pool.__exit__(*exc)

            def map(self, func, jobs, *args, **kwargs):
                if getattr(func, "__wrapped__", func) is not scan:
                    return self._pool.map(func, jobs, *args, **kwargs)
                jobs = list(jobs)
                with tracer.span("scan.pool_map"):
                    parts = self._pool.map(func, jobs, *args, **kwargs)
                tracer.count("scan.pairs_checked", sum(pairs_checked(j[0], j[1]) for j in jobs))
                tracer.count("scan.matches", sum(len(p) for p in parts))
                return parts

            def __getattr__(self, name):
                return getattr(self._pool, name)

        @wraps(original)
        def Pool(*args, **kwargs):
            return TracedPool(*args, **kwargs)

        return Pool

    def _wrap_store(self, original):
        @wraps(original)
        def store(cache, *args, **kwargs):
            with self.span("cache.store"):
                path = original(cache, *args, **kwargs)
            self.count("cache.bytes", Path(path).stat().st_size)
            return path

        return store

    def _wrap_load(self, original):
        @wraps(original)
        def load(cache, *args, **kwargs):
            with self.span("cache.load"):
                bases = original(cache, *args, **kwargs)
            self.count("cache.loaded", len(bases) if bases is not None else 0)
            return bases

        return load

    # --- results ---

    def op_metrics(self, op: int, child_cpu_s: float) -> dict[str, float]:
        """Per-layer figures of one traced operation (the `op` span)."""
        spans = [s for s in self.spans if s.op == op]
        dur = {s.id: s.end - s.start for s in spans}
        layer = _self_by_layer(spans)
        by_name = Counter()
        for s in spans:
            by_name[s.name] += dur[s.id]
        wall = by_name["op"]
        counts = Counter({name: n for (o, name), n in self.counts.items() if o == op})
        levels = [s for s in spans if s.name == "mitm.level"]
        enum_spans = [s for s in spans if s.name == "enum"]
        final_enum = 0.0
        if levels:
            final_enum = sum(dur[s.id] for s in enum_spans if s.parent == levels[-1].id)
        enum_s, scan_s, other_s = layer["enumeration"], layer["scan"], layer["mitm"]
        store_s, load_s = by_name["cache.store"], by_name["cache.load"]
        startup_s, classify_s = by_name["pool.start"], by_name["core.classify"]
        skipped = counts["mitm.levels_skipped"]
        return {
            "traced.wall_s": wall,
            "enum.s": enum_s,
            "enum.streams": len(enum_spans),
            "enum.bases": counts["enum.bases"],
            "enum.bases_per_s": _rate(counts["enum.bases"], enum_s),
            "mitm.levels": len(levels) + skipped,
            "mitm.levels_skipped": skipped,
            "mitm.final_level_enum_share": _rate(final_enum, by_name["enum"]),
            "mitm.other_s": other_s,
            "scan.s": scan_s,
            "scan.pairs_checked": counts["scan.pairs_checked"],
            "scan.pairs_per_s": _rate(counts["scan.pairs_checked"], scan_s),
            "scan.matches": counts["scan.matches"],
            "pool.created": counts["pool.created"],
            "pool.startup_s": startup_s,
            "pool.child_cpu_s": child_cpu_s,
            "cache.store_s": store_s,
            "cache.load_s": load_s,
            "cache.bytes": counts["cache.bytes"],
            "cache.load_bases_per_s": _rate(counts["cache.loaded"], load_s),
            "core.classify_s": classify_s,
            "core.classify_per_s": _rate(counts["core.classified"], classify_s),
        }

    def dump(self) -> dict:
        ops = sorted({s.op for s in self.spans})
        return {
            "note": NOTE,
            "layer_self_s": {
                op: dict(_self_by_layer([s for s in self.spans if s.op == op])) for op in ops
            },
            "spans": [asdict(s) for s in self.spans],
        }


def _self_by_layer(spans: list[Span]) -> Counter:
    """Self seconds per layer: each span's duration minus its children's."""
    self_s = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent in self_s:
            self_s[s.parent] -= s.end - s.start
    layer = Counter()
    for s in spans:
        layer[LAYER_OF[s.name]] += self_s[s.id]
    return layer


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds else 0.0
