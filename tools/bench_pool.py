"""Time the n2* descent with and without a process pool.

Each run is one `find_extremal_restricted(K, processes=N)` call, for
K = 20, 21, 22, 26, 28 and N = 1, 2, serial-first within a round.  For each run
it reports the wall seconds (`time.perf_counter`), this process's own
CPU seconds and the CPU seconds of the pool workers it reaped
(`resource.getrusage`, RUSAGE_SELF and RUSAGE_CHILDREN), and the number
of pools started, counted by a wrapper on `multiprocessing.Pool`.  The
median over rounds is reported per (K, N).

Run from the repository root:
    python tools/bench_pool.py --rounds 3
    python tools/bench_pool.py --rounds 1 --json    # one JSON line per (K, N)

It imports `addbasis` from the `src/` directory next to it and calls
only `find_extremal_restricted`, so it times any checkout that has it.
Parallel scaling beyond the cores of the machine it runs on is not
measured.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from addbasis.mitm import find_extremal_restricted  # noqa: E402

# the short descents, where a pool's start-up can outweigh its gain, and
# the longer ones, where 2 workers win
LENGTHS = (20, 21, 22, 26, 28)
PROCESSES = (1, 2)


def cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def time_descent(k: int, processes: int) -> dict[str, float]:
    """Wall, own CPU and children's CPU seconds of one descent, and the
    pools it started."""
    started = []
    real = multiprocessing.Pool

    def counting_pool(*args, **kwargs):
        started.append(1)
        return real(*args, **kwargs)

    multiprocessing.Pool = counting_pool
    try:
        self0, children0 = cpu(resource.RUSAGE_SELF), cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        find_extremal_restricted(k, processes=processes)
        wall = time.perf_counter() - t0
        self_s = cpu(resource.RUSAGE_SELF) - self0
        children_s = cpu(resource.RUSAGE_CHILDREN) - children0
    finally:
        multiprocessing.Pool = real
    return {"wall_s": wall, "self_cpu_s": self_s, "child_cpu_s": children_s, "pools": len(started)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=3, help="runs per (K, N) (default 3)")
    parser.add_argument("--json", action="store_true", help="print one JSON object per (K, N)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    cases = [(k, n) for k in LENGTHS for n in PROCESSES]
    runs: dict[tuple[int, int], list[dict[str, float]]] = {case: [] for case in cases}
    for _ in range(args.rounds):
        for case in cases:
            runs[case].append(time_descent(*case))

    if not args.json:
        print(f"{'k':>3} {'N':>2} {'wall_s':>7} {'self_cpu_s':>10} {'child_cpu_s':>11} {'pools':>5}")
    for (k, processes), samples in runs.items():
        row = {"k": k, "processes": processes}
        for key in ("wall_s", "self_cpu_s", "child_cpu_s", "pools"):
            row[key] = round(statistics.median(s[key] for s in samples), 4)
        row["wall_samples"] = [round(s["wall_s"], 4) for s in samples]
        if args.json:
            print(json.dumps(row))
        else:
            print(f"{k:>3} {processes:>2} {row['wall_s']:>7.3f} {row['self_cpu_s']:>10.3f} "
                  f"{row['child_cpu_s']:>11.3f} {row['pools']:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
