"""Time one parallel stream split into 8 or 32 stems per worker.

`enumerate_admissible` with 2 workers splits a stream into at least
`SHALLOW_STEMS_PER_WORKER` (8) stems per worker once at most
`SHALLOW_LEVELS` levels lie below each stem, and into at least
`STEMS_PER_WORKER` (32) otherwise.  This tool times streams on both
sides of that choice under each split, in one pool started before the
clock runs, alternating which split goes first per round.  For each
(stream, split) it reports the jobs sent, the median wall seconds and
the median CPU seconds of this process (the parent, which ships the
jobs and merges the results), and which split the rule picks.

Run from the repository root:
    python tools/bench_split.py --rounds 7
    python tools/bench_split.py --rounds 3 --json    # one JSON line per row

The default streams are (10, 42), (11, 50) and (12, 56), as
`length,min_range`; pass others with --stream.  Only 2 workers are
timed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from addbasis import enumeration  # noqa: E402
from addbasis.enumeration import EnumSpec, Workers, enumerate_admissible  # noqa: E402

PROCESSES = 2
STREAMS = ("10,42", "11,50", "12,56")
# SHALLOW_LEVELS values that force each split: every stem counts as
# shallow below a huge bound and none below 0
FORCE = {8: 10**9, 32: 0}


def stream(text: str) -> EnumSpec:
    length, min_range = (int(x) for x in text.split(","))
    return EnumSpec(length, min_range)


def jobs_sent(spec: EnumSpec, workers: Workers, shallow_levels: int | None = None) -> int:
    """The jobs `enumerate_admissible` sends for spec, with SHALLOW_LEVELS
    set to shallow_levels (None: as shipped); nothing is enumerated."""
    sent = []

    def counting_imap(func, items):
        sent.extend(items)
        return iter(())

    workers.imap = counting_imap
    try:
        with forced(shallow_levels):
            for _ in enumerate_admissible(spec, workers=workers):
                pass
    finally:
        del workers.imap
    return len(sent)


@contextmanager
def forced(shallow_levels: int | None):
    shipped = enumeration.SHALLOW_LEVELS
    if shallow_levels is not None:
        enumeration.SHALLOW_LEVELS = shallow_levels
    try:
        yield
    finally:
        enumeration.SHALLOW_LEVELS = shipped


def time_stream(spec: EnumSpec, workers: Workers, shallow_levels: int) -> dict[str, float]:
    """Wall and parent CPU seconds of one parallel stream."""
    with forced(shallow_levels):
        cpu0, t0 = time.process_time(), time.perf_counter()
        for _ in enumerate_admissible(spec, workers=workers):
            pass
        return {"wall_s": time.perf_counter() - t0, "parent_cpu_s": time.process_time() - cpu0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=7, help="runs per (stream, split) (default 7)")
    parser.add_argument("--stream", action="append", type=stream,
                        help="a stream as length,min_range (repeatable)")
    parser.add_argument("--json", action="store_true", help="print one JSON object per row")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    specs = args.stream or [stream(s) for s in STREAMS]

    runs: dict[tuple[EnumSpec, int], list[dict[str, float]]] = {}
    with Workers(PROCESSES) as workers:
        list(workers.imap(abs, range(PROCESSES)))  # start the pool off the clock
        jobs = {(spec, n): jobs_sent(spec, workers, FORCE[n]) for spec in specs for n in FORCE}
        shipped = {spec: jobs_sent(spec, workers) for spec in specs}
        for r in range(args.rounds):
            for spec in specs:
                for per_worker in (8, 32) if r % 2 == 0 else (32, 8):
                    runs.setdefault((spec, per_worker), []).append(
                        time_stream(spec, workers, FORCE[per_worker]))

    if not args.json:
        print(f"{'stream':>9} {'split':>5} {'jobs':>5} {'wall_s':>7} {'parent_cpu_s':>12} rule")
    for (spec, per_worker), samples in sorted(runs.items(), key=lambda kv: (kv[0][0].length, kv[0][0].min_range, kv[0][1])):
        row = {"length": spec.length, "min_range": spec.min_range, "stems_per_worker": per_worker,
               "jobs": jobs[spec, per_worker], "rule_picks": jobs[spec, per_worker] == shipped[spec]}
        for key in ("wall_s", "parent_cpu_s"):
            row[key] = round(statistics.median(s[key] for s in samples), 4)
        row["wall_samples"] = [round(s["wall_s"], 4) for s in samples]
        if args.json:
            print(json.dumps(row))
        else:
            name = f"{spec.length},{spec.min_range}"
            print(f"{name:>9} {per_worker:>5} {row['jobs']:>5} {row['wall_s']:>7.3f} "
                  f"{row['parent_cpu_s']:>12.3f} {'*' if row['rule_picks'] else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
