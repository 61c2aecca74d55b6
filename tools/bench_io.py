"""Time cache I/O and classify on one stream.

The stream is the (10, 30) admissible stream, 192,684 bases, enumerated
once before any timing.  Each round times four steps, serially, in this
order:
    store     PrefixCache.store of the stream into a fresh directory;
    load      PrefixCache.load of that entry (read_bases on every line);
    classify  classify() of every loaded basis;
    verify    `addbasis verify` of the stored entry, in this process
              (cli.main), with stdout sent to os.devnull.
Time is `time.process_time` (CPU seconds of this process), so the numbers
do not count waiting for a shared machine.  The median over rounds is
reported per step, with bases per second.

Run from the repository root:
    python tools/bench_io.py --rounds 5
    python tools/bench_io.py --rounds 1 --json      # one JSON line per step

It imports `addbasis` from the `src/` directory next to it, so a second
checkout times its own code.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from addbasis.catalog import PrefixCache  # noqa: E402
from addbasis.cli import main as cli_main  # noqa: E402
from addbasis.core import classify  # noqa: E402
from addbasis.enumeration import EnumSpec, enumerate_admissible  # noqa: E402

LENGTH, MIN_RANGE = 10, 30
STEPS = ("store", "load", "classify", "verify")


def time_round(stream: list) -> dict[str, float]:
    """CPU seconds of each step, checking that the stream survives the trip."""
    seconds = {}
    with tempfile.TemporaryDirectory() as tmp:
        cache = PrefixCache(tmp)
        start = time.process_time()
        path = cache.store(LENGTH, MIN_RANGE, stream)
        seconds["store"] = time.process_time() - start

        start = time.process_time()
        loaded = cache.load(LENGTH, MIN_RANGE)
        seconds["load"] = time.process_time() - start

        start = time.process_time()
        classes = [classify(b) for b in loaded]
        seconds["classify"] = time.process_time() - start

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.process_time()
            code = cli_main(["verify", str(path)])
            seconds["verify"] = time.process_time() - start

    if loaded != stream or not all(c.admissible and c.range >= MIN_RANGE for c in classes):
        raise SystemExit("error: the loaded stream differs from the stored one, or misclassifies")
    if code != 0:
        raise SystemExit(f"error: verify of the stored entry exited {code}")
    return seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=3, help="timings per step (default 3)")
    parser.add_argument("--json", action="store_true", help="print one JSON object per step")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    stream = list(enumerate_admissible(EnumSpec(LENGTH, MIN_RANGE)))
    times: dict[str, list[float]] = {step: [] for step in STEPS}
    for _ in range(args.rounds):
        for step, seconds in time_round(stream).items():
            times[step].append(seconds)

    if not args.json:
        print(f"{'step':>9} {'bases':>7} {'cpu_s':>8} {'bases/s':>10}")
    for step, samples in times.items():
        cpu_s = statistics.median(samples)
        row = {
            "step": step,
            "stream": [LENGTH, MIN_RANGE],
            "bases": len(stream),
            "cpu_s": round(cpu_s, 4),
            "bases_per_s": round(len(stream) / cpu_s, 1),
            "samples": [round(t, 4) for t in samples],
        }
        if args.json:
            print(json.dumps(row))
        else:
            print(f"{step:>9} {len(stream):>7} {cpu_s:>8.3f} {row['bases_per_s']:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
