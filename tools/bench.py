"""Time the library layer by layer, one subcommand per layer.

Each subcommand times its cases once per round and prints one JSON
object per case: what the case is, the median of each timing over the
rounds, and the samples of the first.  `tools/bench.py LAYER --help`
says what the layer's cases are and why.

Run from the repository root:
    python tools/bench.py dfs --rounds 5
    python tools/bench.py split --rounds 3 --stream 11,50
    python tools/bench.py startup --rounds 20 --against ../parent --lengths 20-26 --threads 1 2

It imports `addbasis` from the `src/` directory next to it, so a second
checkout times its own code.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from addbasis import _walk, enumeration  # noqa: E402
from addbasis.catalog import DEFAULT, PrefixCache  # noqa: E402
from addbasis.cli import main as cli_main  # noqa: E402
from addbasis.core import basis_range, classify  # noqa: E402
from addbasis.enumeration import EnumSpec, Workers, enumerate_admissible  # noqa: E402
from addbasis.mitm import SearchTarget, _level_streams, find_extremal_restricted, search_restricted  # noqa: E402


def median_row(samples: list[dict[str, float]], *, listed: str = "samples",
               digits: int = 4, bases: int | None = None) -> dict:
    """The timing fields of a case's row from its samples, one dict per
    round: each key's median over the rounds, then with `bases` the bases
    per second of the first key's median, then the first key's samples
    under `listed`.  Timings are rounded to `digits`."""
    medians = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    first = next(iter(medians))
    row = {key: round(m, digits) for key, m in medians.items()}
    if bases is not None:
        # an empty stream can take no measurable time
        row["bases_per_s"] = round(bases / medians[first], 1) if medians[first] else None
    row[listed] = [round(s[first], digits) for s in samples]
    return row


# dfs

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
    return target.stream(min(target.pivot, target.suffix_length))


def kernel_nodes(spec: EnumSpec) -> int | None:
    """The nodes the compiled kernel pops walking spec from the root, or
    None where it does not walk spec."""
    for _ in enumerate_admissible(spec):
        pass
    return _walk.nodes


def dfs(args):
    """Time the DFS enumerator on fixed streams, kernel against Python.

    Each stream is one `enumerate_admissible(EnumSpec(...))` call, run
    serially and consumed in full inside the timed region, once by the
    compiled kernel and once by `enumeration._python_walk`, the Python
    reference, back to back in this process; which goes first alternates
    per round.  Time is `time.process_time` (CPU seconds of this
    process), so the numbers do not count waiting for a shared machine.
    The plain streams are the five that the k = 23 descent enumerated
    before it had per-depth floors, (11, 54) down to (11, 50), plus
    (12, 56), (10, 30), (10, 40), which `search -k 21 -n 164` used for
    both halves, the k = 22 descent's final level, (11, 48) and
    (10, 42), and (13, 72), the first stream of the k = 26 descent before
    the floors; `enumerate` and plain cache entries still produce them.
    Then come the floored streams that the k = 22, 23, 26, 28 and 30
    descents walk from the root: the shorter stream at n2*(k), with the
    floors of that level (`SearchTarget.stream`).  The descent extends
    the longer stream from it and filters every higher level from the
    two, so these walks are where a descent's enumeration time goes.
    Each row gives the stream size, the nodes the kernel pops, the median
    over rounds of each side's CPU seconds, their ratio (kernel /
    Python), and the kernel's bases per second.  Without a kernel both
    sides run in Python.
    """
    # (descent, spec); descent None for a plain stream
    streams = [(None, EnumSpec(*s)) for s in PLAIN]
    streams += [(k, descent_spec(k)) for k in DESCENTS]
    times: list[list[dict[str, float]]] = [[] for _ in streams]
    counts: list[int] = [0] * len(streams)
    for r in range(args.rounds):
        for i, (_, spec) in enumerate(streams):
            sample = {}
            for side in ("kernel", "python") if r % 2 == 0 else ("python", "kernel"):
                with _walk.reference() if side == "python" else contextlib.nullcontext():
                    start = time.process_time()
                    counts[i] = sum(1 for _ in enumerate_admissible(spec))
                    sample[side] = time.process_time() - start
            times[i].append({"kernel_cpu_s": sample["kernel"], "python_cpu_s": sample["python"]})
    for (k, spec), count, samples in zip(streams, counts, times):
        kernel, python = (statistics.median(s[key] for s in samples) for key in ("kernel_cpu_s", "python_cpu_s"))
        yield {
            "length": spec.length,
            "min_range": spec.min_range,
            "floors_of": None if k is None else f"k={k}",
            "floors": list(spec.floors) or None,
            "bases": count,
            "kernel_nodes": kernel_nodes(spec),
            **median_row(samples, bases=count),
            "ratio": round(kernel / python, 3) if python else None,
        }


# scan

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


def scan(args):
    """Time the meet-in-the-middle pair scan on fixed levels.

    Each level is one `search_restricted(target, streams=(P, S))` call on
    the floored streams that the search itself scans, made by
    `mitm._level_streams` before the timed region, so the time is the
    gluing alone: building the records and scanning the pairs.  Time is
    `time.process_time` (CPU seconds of this process), so the numbers do
    not count waiting for a shared machine.  The levels are the extremal
    ones of k = 21, 22, 23 and 25.  Each level is timed once per round;
    the median over rounds is reported.

    Besides the time, each row counts, from the streams alone:
      front_pairs  prefix/suffix pairs with min r > max p, which a scan
                   that tries every pair of the front run checks in full;
      candidates   front-run pairs whose suffix meets g - p, g the first
                   gap of p + p, which the first-gap index checks in full;
      matches      bases found.
    """
    for k, n in LEVELS:
        target = SearchTarget.create(k, n)
        prefixes, suffixes = _level_streams(target)
        front, candidates = pair_counts(n, prefixes, suffixes)
        samples = []
        for _ in range(args.rounds):
            start = time.process_time()
            matches = search_restricted(target, streams=(prefixes, suffixes)).count
            samples.append({"cpu_s": time.process_time() - start})
        yield {
            "k": k,
            "n": n,
            "prefixes": len(prefixes),
            "suffixes": len(suffixes),
            "front_pairs": front,
            "candidates": candidates,
            "matches": matches,
            **median_row(samples, digits=6),
        }


# io

# the length-10 streams of `search -k 21 -n 144`, whose least range is
# 30: a plain (10, 30) entry answers them once filtered by their floors
IO_FLOORED = SearchTarget.create(21, 144).stream(10)
IO_LENGTH, IO_MIN_RANGE, IO_FLOORS = IO_FLOORED.length, IO_FLOORED.min_range, IO_FLOORED.floors
STEPS = ("store", "load", "load_floored", "classify", "verify")


def time_round(stream: list, floored: list) -> dict[str, float]:
    """CPU seconds of each step, checking that the stream survives the trip."""
    seconds = {}
    with tempfile.TemporaryDirectory() as tmp:
        cache = PrefixCache(tmp)
        start = time.process_time()
        path = cache.store(IO_LENGTH, IO_MIN_RANGE, stream)
        seconds["store"] = time.process_time() - start

        start = time.process_time()
        loaded = cache.load(IO_LENGTH, IO_MIN_RANGE)
        seconds["load"] = time.process_time() - start

        start = time.process_time()
        filtered = cache.load(IO_LENGTH, IO_MIN_RANGE, IO_FLOORS)
        seconds["load_floored"] = time.process_time() - start

        start = time.process_time()
        classes = [classify(b) for b in loaded]
        seconds["classify"] = time.process_time() - start

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.process_time()
            code = cli_main(["verify", str(path)])
            seconds["verify"] = time.process_time() - start

    if loaded != stream or not all(c.admissible and c.range >= IO_MIN_RANGE for c in classes):
        raise SystemExit("error: the loaded stream differs from the stored one, or misclassifies")
    if filtered != floored:
        raise SystemExit("error: the plain entry filtered by the floors differs from the floored stream")
    if code != 0:
        raise SystemExit(f"error: verify of the stored entry exited {code}")
    return seconds


def io(args):
    """Time cache I/O and classify on one stream.

    The stream is the (10, 30) admissible stream, 192,684 bases,
    enumerated once before any timing, together with the same stream
    under the floors of `search -k 21 -n 144`'s length-10 streams.
    Each round times five steps, serially, in this order:
        store         PrefixCache.store of the stream into a fresh
                      directory;
        load          PrefixCache.load of that entry (read_bases on every
                      line);
        load_floored  PrefixCache.load with those floors, answered from
                      the plain entry filtered by reaches_floors, as a
                      floored search takes a plain `enumerate --out`
                      entry; checked against the floored stream;
        classify      classify() of every loaded basis;
        verify        `addbasis verify` of the stored entry, in this
                      process (cli.main), with stdout sent to os.devnull.
    Time is `time.process_time` (CPU seconds of this process), so the
    numbers do not count waiting for a shared machine.  The median over
    rounds is reported per step, with bases per second of the stored
    stream; the load_floored row also gives the floors and the bases
    they keep.
    """
    stream = list(enumerate_admissible(EnumSpec(IO_LENGTH, IO_MIN_RANGE)))
    floored = list(enumerate_admissible(IO_FLOORED))
    rounds = [time_round(stream, floored) for _ in range(args.rounds)]
    for step in STEPS:
        row = {"step": step, "stream": [IO_LENGTH, IO_MIN_RANGE], "bases": len(stream)}
        if step == "load_floored":
            row.update(floors=list(IO_FLOORS), kept=len(floored))
        yield {**row, **median_row([{"cpu_s": r[step]} for r in rounds], bases=len(stream))}


# pool

# the short descents, where a pool's start-up can outweigh its gain, and
# the longer ones, where 2 workers win
POOL_LENGTHS = (20, 21, 22, 26, 28)
POOL_PROCESSES = (1, 2)


def cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def time_descent(k: int, processes: int) -> dict[str, float]:
    """Wall, own CPU and children's CPU seconds of one descent."""
    self0, children0 = cpu(resource.RUSAGE_SELF), cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    find_extremal_restricted(k, processes=processes)
    wall = time.perf_counter() - t0
    self_s = cpu(resource.RUSAGE_SELF) - self0
    children_s = cpu(resource.RUSAGE_CHILDREN) - children0
    return {"wall_s": wall, "self_cpu_s": self_s, "child_cpu_s": children_s}


def pool(args):
    """Time the n2* descent with and without a process pool.

    Each run is one `find_extremal_restricted(K, processes=N)` call, for
    K = 20, 21, 22, 26, 28 and N = 1, 2, serial-first within a round.
    For each run it reports the wall seconds (`time.perf_counter`), this
    process's own CPU seconds and the CPU seconds of the pool workers it
    reaped (`resource.getrusage`, RUSAGE_SELF and RUSAGE_CHILDREN).  A
    parallel descent starts one pool and a serial one none.  The median
    over rounds is reported per (K, N).  Parallel scaling beyond the
    cores of the machine it runs on is not measured.
    """
    cases = [(k, n) for k in POOL_LENGTHS for n in POOL_PROCESSES]
    runs: dict[tuple[int, int], list[dict[str, float]]] = {case: [] for case in cases}
    for _ in range(args.rounds):
        for case in cases:
            runs[case].append(time_descent(*case))
    for (k, processes), samples in runs.items():
        yield {"k": k, "processes": processes, **median_row(samples, listed="wall_samples")}


# split

SPLIT_PROCESSES = 2
# SHALLOW_LEVELS values that force each split: every stem counts as
# shallow below a huge bound and none below 0
FORCE = {8: 10**9, 32: 0}


def stream_spec(text: str) -> EnumSpec:
    length, min_range = (int(x) for x in text.split(","))
    return EnumSpec(length, min_range)


SPLIT_STREAMS = (EnumSpec(10, 42), EnumSpec(11, 50), EnumSpec(12, 56))


def jobs_sent(spec: EnumSpec, shallow_levels: int | None = None) -> int:
    """The jobs `enumerate_admissible` sends for spec to 2 workers, its
    stems from `enumeration._split`, with SHALLOW_LEVELS set to
    shallow_levels (None: as shipped)."""
    with forced(shallow_levels):
        return len(enumeration._split(spec, SPLIT_PROCESSES, True))


@contextlib.contextmanager
def forced(shallow_levels: int | None):
    shipped = enumeration.SHALLOW_LEVELS
    if shallow_levels is not None:
        enumeration.SHALLOW_LEVELS = shallow_levels
    try:
        yield
    finally:
        enumeration.SHALLOW_LEVELS = shipped


def time_split(spec: EnumSpec, workers: Workers, shallow_levels: int) -> dict[str, float]:
    """Wall and parent CPU seconds of one parallel stream."""
    with forced(shallow_levels):
        cpu0, t0 = time.process_time(), time.perf_counter()
        for _ in enumerate_admissible(spec, workers=workers):
            pass
        return {"wall_s": time.perf_counter() - t0, "parent_cpu_s": time.process_time() - cpu0}


def split(args):
    """Time one parallel stream split into 8 or 32 stems per worker.

    `enumerate_admissible` with 2 workers splits a stream into at least
    `SHALLOW_STEMS_PER_WORKER` (8) stems per worker once at most
    `SHALLOW_LEVELS` levels lie below each stem, and into at least
    `STEMS_PER_WORKER` (32) otherwise.  This times streams on both sides
    of that choice under each split, in one pool started before the clock
    runs, alternating which split goes first per round.  For each
    (stream, split) it reports the jobs sent (the stems that
    `enumeration._split` plans), the median wall seconds and the median
    CPU seconds of this process (the parent, which ships the jobs and
    merges the results), and whether the rule picks that split.

    The default streams are (10, 42), (11, 50) and (12, 56); pass others
    with --stream.  Only 2 workers are timed.
    """
    specs = args.stream or SPLIT_STREAMS
    runs: dict[tuple[EnumSpec, int], list[dict[str, float]]] = {}
    jobs = {(spec, n): jobs_sent(spec, FORCE[n]) for spec in specs for n in FORCE}
    shipped = {spec: jobs_sent(spec) for spec in specs}
    with Workers(SPLIT_PROCESSES) as workers:
        list(workers.imap(abs, range(SPLIT_PROCESSES)))  # start the pool off the clock
        for r in range(args.rounds):
            for spec in specs:
                for per_worker in (8, 32) if r % 2 == 0 else (32, 8):
                    runs.setdefault((spec, per_worker), []).append(
                        time_split(spec, workers, FORCE[per_worker]))

    for (spec, per_worker), samples in sorted(runs.items(), key=lambda kv: (kv[0][0].length, kv[0][0].min_range, kv[0][1])):
        yield {
            "length": spec.length,
            "min_range": spec.min_range,
            "stems_per_worker": per_worker,
            "jobs": jobs[spec, per_worker],
            "rule_picks": jobs[spec, per_worker] == shipped[spec],
            **median_row(samples, listed="wall_samples"),
        }


# startup

IMPORT = (
    "import time; t0 = time.perf_counter(); import addbasis; "
    "print(time.perf_counter() - t0, addbasis.__file__)"
)
CLI = "import sys; from addbasis.cli import main; sys.exit(main())"


def lengths(text: str) -> list[int]:
    """`20-26` or `22`: the lengths K of the extremal runs."""
    first, _, last = text.partition("-")
    first, last = int(first), int(last or first)
    if last < first:
        raise argparse.ArgumentTypeError(f"{text}: LAST is below FIRST")
    return list(range(first, last + 1))


def checkout_dir(text: str) -> Path:
    """A second checkout: a directory with src/addbasis in it."""
    path = Path(text)
    if not (path / "src" / "addbasis").is_dir():
        raise argparse.ArgumentTypeError(f"{text}: no src/addbasis there")
    return path.resolve()


def run(checkout: Path, code: str, *argv: str) -> tuple[float, str]:
    """(wall seconds, stdout) of one fresh `python -c code argv...` that
    imports addbasis from checkout/src."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=600
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv) or code!r} exited {proc.returncode}\n{proc.stderr}")
    return wall, proc.stdout


def sample(checkout: Path, case: tuple) -> tuple[float, str]:
    """(seconds, output) of one sample of case on checkout."""
    if case[0] == "python":
        return run(checkout, "pass")
    if case[0] == "import":
        _, out = run(checkout, IMPORT)
        seconds, path = out.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to((checkout / "src").resolve()):
            raise SystemExit(f"addbasis was imported from {path.strip()}, not from {checkout / 'src'}")
        return float(seconds), ""
    _, k, threads = case
    return run(checkout, CLI, "extremal", "-k", str(k), "--threads", str(threads))


def startup(args):
    """Time a fresh process: the package import and `addbasis extremal`.

    Every sample is a new Python process, started with PYTHONPATH set to
    a checkout's `src/` directory, so it pays for every module the
    program loads.  Three cases:

    - `python`: `python -c pass`, the interpreter's own start-up and
      exit, measured from this process;
    - `import`: `import addbasis`, timed with `time.perf_counter` inside
      the fresh process, as perfbench's `setup_s` times it;
    - `extremal`: `addbasis extremal -k K --threads T`, as the console
      script runs it, measured from this process: start-up, import,
      search, output and exit.

    With `--against DIR`, each sample is also taken on the checkout in
    DIR, right after or before this one (the side that goes first
    alternates per round), and each `extremal` row says whether the two
    sides printed the same stdout.  The median over rounds is reported
    per case and side.  The environment is passed on as it is: with
    PYTHONDONTWRITEBYTECODE set and no `__pycache__` in the checkout,
    every sample also compiles the modules it imports.
    """
    sides = {"this": ROOT}
    if args.against is not None:
        sides["against"] = args.against
    cases = [("python",), ("import",)] + [("extremal", k, t) for k in args.lengths for t in args.threads]
    seconds = {(case, side): [] for case in cases for side in sides}
    outputs = {}
    for r in range(args.rounds):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for case in cases:
            for side in order:
                s, out = sample(sides[side], case)
                seconds[case, side].append({"median_s": s})
                outputs.setdefault((case, side), out)

    for case in cases:
        for side in sides:
            row = {"case": case[0], "side": side}
            if case[0] == "extremal":
                row.update(k=case[1], threads=case[2])
                if len(sides) > 1:
                    row["same_stdout"] = outputs[case, "this"] == outputs[case, "against"]
            yield {**row, **median_row(seconds[case, side])}


def rounds(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value}: must be >= 1")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    layers = parser.add_subparsers(metavar="LAYER", required=True)
    commands = {}
    for command, default in ((dfs, 3), (scan, 3), (io, 3), (pool, 3), (split, 7), (startup, 10)):
        sub = commands[command.__name__] = layers.add_parser(
            command.__name__, help=command.__doc__.split("\n")[0], description=inspect.cleandoc(command.__doc__),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sub.add_argument("--rounds", type=rounds, default=default,
                         help=f"timings per case (default {default})")
        sub.set_defaults(command=command)
    commands["split"].add_argument("--stream", action="append", type=stream_spec,
                                   help="a stream as length,min_range (repeatable)")
    commands["startup"].add_argument("--lengths", type=lengths, default="20-26",
                                     help="K of the extremal runs, as K or FIRST-LAST (default 20-26)")
    commands["startup"].add_argument("--threads", type=int, nargs="+", default=[1, 2],
                                     help="--threads values of the extremal runs (default 1 2)")
    commands["startup"].add_argument("--against", type=checkout_dir,
                                     help="a second checkout, sampled alternately")
    args = parser.parse_args(argv)
    for row in args.command(args):
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
