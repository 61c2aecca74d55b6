"""Time the DFS enumerator on fixed streams.

Each stream is one `enumerate_admissible(EnumSpec(length, min_range))`
call, run serially and consumed in full inside the timed region.  Time is
`time.process_time` (CPU seconds of this process), so the numbers do not
count waiting for a shared machine.  The streams are the five that the
k = 23 descent enumerates, (11, 54) down to (11, 50), plus (12, 56),
(10, 30), (10, 40), which `search -k 21 -n 164` uses for both halves,
and the k = 22 descent's final level, (11, 48) and (10, 42).  Each
stream is timed once per round; the median over rounds is reported
together with the stream size and bases per second.

Run from the repository root:
    python tools/bench_dfs.py --rounds 5
    python tools/bench_dfs.py --rounds 1 --json      # one JSON line per stream

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

from addbasis.enumeration import EnumSpec, enumerate_admissible  # noqa: E402

STREAMS = (
    (11, 54), (11, 53), (11, 52), (11, 51), (11, 50),
    (12, 56), (10, 30), (10, 40), (11, 48), (10, 42),
)


def time_stream(length: int, min_range: int) -> tuple[int, float]:
    """Bases in the stream and the CPU seconds it took to enumerate them."""
    start = time.process_time()
    count = sum(1 for _ in enumerate_admissible(EnumSpec(length, min_range)))
    return count, time.process_time() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=3, help="timings per stream (default 3)")
    parser.add_argument("--json", action="store_true", help="print one JSON object per stream")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    times: dict[tuple[int, int], list[float]] = {s: [] for s in STREAMS}
    counts: dict[tuple[int, int], int] = {}
    for _ in range(args.rounds):
        for stream in STREAMS:
            counts[stream], seconds = time_stream(*stream)
            times[stream].append(seconds)

    if not args.json:
        print(f"{'stream':>10} {'bases':>7} {'cpu_s':>8} {'bases/s':>9}")
    for (length, min_range), samples in times.items():
        cpu_s = statistics.median(samples)
        count = counts[length, min_range]
        row = {
            "length": length,
            "min_range": min_range,
            "bases": count,
            "cpu_s": round(cpu_s, 4),
            "bases_per_s": round(count / cpu_s, 1),
            "samples": [round(t, 4) for t in samples],
        }
        if args.json:
            print(json.dumps(row))
        else:
            print(f"{f'({length}, {min_range})':>10} {count:>7} {cpu_s:>8.3f} {row['bases_per_s']:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
