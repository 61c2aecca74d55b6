"""Time the DFS enumerator on fixed streams.

Each stream is one `enumerate_admissible(EnumSpec(...))` call, run
serially and consumed in full inside the timed region.  Time is
`time.process_time` (CPU seconds of this process), so the numbers do not
count waiting for a shared machine.  The plain streams are the five that
the k = 23 descent enumerated before it had per-depth floors, (11, 54)
down to (11, 50), plus (12, 56), (10, 30), (10, 40), which
`search -k 21 -n 164` used for both halves, the k = 22 descent's final
level, (11, 48) and (10, 42), and (13, 72), the first stream of the
k = 26 descent before the floors; `enumerate` and plain cache entries
still produce them.  Then
come the floored streams that the k = 22, 23, 26, 28 and 30 descents
walk from the root: the shorter stream at n2*(k), with the floors of
that level (`SearchTarget.floors`).  The descent extends the longer
stream from it and filters every higher level from the two, so these
walks are where a descent's enumeration time goes.  Each stream is
timed once per round; the median over rounds is reported together with
the stream size and bases per second.

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

from addbasis.catalog import DEFAULT  # noqa: E402
from addbasis.enumeration import EnumSpec, enumerate_admissible  # noqa: E402
from addbasis.mitm import SearchTarget  # noqa: E402

PLAIN = (
    (11, 54), (11, 53), (11, 52), (11, 51), (11, 50),
    (12, 56), (10, 30), (10, 40), (11, 48), (10, 42), (13, 72),
)
DESCENTS = (22, 23, 26, 28, 30)


def descent_spec(k: int) -> EnumSpec:
    """The stream that the k descent walks from the root: the shorter of
    the two streams at n2*(k), or the one stream that odd k shares, with
    the floors of that level."""
    target = SearchTarget.create(k, DEFAULT.known_restricted_range(k))
    if target.suffix_length < target.pivot:
        length, min_range = target.suffix_length, target.suffix_min_range
    else:
        length, min_range = target.pivot, target.prefix_min_range
    return EnumSpec(length, min_range, floors=target.floors[:length])


def time_stream(spec: EnumSpec) -> tuple[int, float]:
    """Bases in the stream and the CPU seconds it took to enumerate them."""
    start = time.process_time()
    count = sum(1 for _ in enumerate_admissible(spec))
    return count, time.process_time() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=3, help="timings per stream (default 3)")
    parser.add_argument("--json", action="store_true", help="print one JSON object per stream")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    # (descent, spec); descent None for a plain stream
    streams = [(None, EnumSpec(*s)) for s in PLAIN]
    streams += [(k, descent_spec(k)) for k in DESCENTS]
    times: list[list[float]] = [[] for _ in streams]
    counts: list[int] = [0] * len(streams)
    for _ in range(args.rounds):
        for i, (_, spec) in enumerate(streams):
            counts[i], seconds = time_stream(spec)
            times[i].append(seconds)

    if not args.json:
        print(f"{'stream':>10} {'floors':>7} {'bases':>7} {'cpu_s':>8} {'bases/s':>9}")
    for (k, spec), count, samples in zip(streams, counts, times):
        cpu_s = statistics.median(samples)
        row = {
            "length": spec.length,
            "min_range": spec.min_range,
            "floors_of": None if k is None else f"k={k}",
            "floors": list(spec.floors) or None,
            "bases": count,
            "cpu_s": round(cpu_s, 4),
            # an empty stream can take no measurable time
            "bases_per_s": round(count / cpu_s, 1) if cpu_s else None,
            "samples": [round(t, 4) for t in samples],
        }
        if args.json:
            print(json.dumps(row))
        else:
            label = f"({spec.length}, {spec.min_range})"
            rate = f"{row['bases_per_s']:>9.1f}" if cpu_s else f"{'-':>9}"
            print(f"{label:>10} {row['floors_of'] or 'plain':>7} {count:>7} {cpu_s:>8.3f} {rate}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
