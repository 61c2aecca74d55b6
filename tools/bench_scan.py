"""Time the meet-in-the-middle pair scan on fixed levels.

Each level is one `search_restricted(target, streams=(P, S))` call on
the floored streams that the search itself scans, made by
`mitm._level_streams` before the timed region, so the time is the
gluing alone: building the records and scanning the pairs.  Time is
`time.process_time` (CPU seconds of this process), so the numbers do not
count waiting for a shared machine.  The levels are the extremal ones of
k = 21, 22, 23 and 25.  Each level is timed once per round; the median
over rounds is reported.

Besides the time, each row counts, from the streams alone:
  front_pairs  prefix/suffix pairs with min r > max p, which a scan that
               tries every pair of the front run checks in full;
  candidates   front-run pairs whose suffix meets g - p, g the first gap
               of p + p, which the first-gap index checks in full;
  matches      bases found.

Run from the repository root:
    python tools/bench_scan.py --rounds 5
    python tools/bench_scan.py --rounds 1 --json      # one JSON line per level

It imports `addbasis` from the `src/` directory next to it, so a second
checkout times its own code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from addbasis.core import basis_range  # noqa: E402
from addbasis.mitm import SearchTarget, _level_streams, search_restricted  # noqa: E402

LEVELS = ((21, 164), (22, 180), (23, 196), (25, 228))


def pair_counts(n: int, prefixes: list, suffixes: list) -> tuple[int, int]:
    """(front_pairs, candidates) of one level, counted with plain sets."""
    half = n // 2
    mirrored = [
        (half - b[-1], {half - x for x in b}) for b in suffixes if b[-1] < half
    ]
    front = candidates = 0
    for p in prefixes:
        gap = basis_range(p) + 1
        wanted = {gap - a for a in p}
        for minr, r in mirrored:
            if minr > p[-1]:
                front += 1
                candidates += gap > n or not wanted.isdisjoint(r)
    return front, candidates


def time_level(target: SearchTarget, prefixes: list, suffixes: list) -> tuple[int, float]:
    """Bases found and the CPU seconds the search took on given streams."""
    start = time.process_time()
    report = search_restricted(target, streams=(prefixes, suffixes))
    return report.count, time.process_time() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=3, help="timings per level (default 3)")
    parser.add_argument("--json", action="store_true", help="print one JSON object per level")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    if not args.json:
        print(f"{'level':>10} {'prefixes':>8} {'suffixes':>8} {'front_pairs':>11} "
              f"{'candidates':>10} {'matches':>7} {'cpu_s':>9}")
    for k, n in LEVELS:
        target = SearchTarget.create(k, n)
        prefixes, suffixes = _level_streams(target)
        front, candidates = pair_counts(n, prefixes, suffixes)
        samples = []
        for _ in range(args.rounds):
            matches, seconds = time_level(target, prefixes, suffixes)
            samples.append(seconds)
        cpu_s = statistics.median(samples)
        row = {
            "k": k,
            "n": n,
            "prefixes": len(prefixes),
            "suffixes": len(suffixes),
            "front_pairs": front,
            "candidates": candidates,
            "matches": matches,
            "cpu_s": round(cpu_s, 6),
            "samples": [round(t, 6) for t in samples],
        }
        if args.json:
            print(json.dumps(row), flush=True)
        else:
            print(f"{f'({k}, {n})':>10} {len(prefixes):>8} {len(suffixes):>8} {front:>11} "
                  f"{candidates:>10} {matches:>7} {cpu_s:>9.6f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
