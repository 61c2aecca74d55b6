"""Benchmark of the addbasis search, one workload per run.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from that
checkout's `src/`, and the run exits with code 2, printing no result,
when `src/addbasis` is not there.  The load comes from this one process
in a closed loop: each operation starts when the previous one has been
checked.  Operations repeat while the next one is expected to end within
`--seconds`; there is always at least one.

The run sets the workload up once before the first operation.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json: the median
wall and CPU time (self plus children) per operation in units of a
reference job (see `reference_job` in fresh_setup.py), the peak resident
memory of the run's process and of the pool workers it started, and
`setup_s`.  After
the last operation, the run times the set-up (import, fixture loading,
input generation) again in several fresh processes (see fresh_setup.py);
`setup_s` is their median, scaled to a machine on which the reference job
takes `REFERENCE_S`.  The raw seconds, with the highest percentile the
sample count supports, and `fail_ratio` are printed above the result.

`--trace 1` alternates untraced and traced operations and reports the
per-layer metrics of the traced ones (see tracing.py); `trace.overhead`
is the ratio of their median wall times.  The spans go to perfbench/out/.

Every operation's result is checked against the published bases; a
failed check or an exception counts in `failed` and the run goes on.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from fresh_setup import import_addbasis, reference_job
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
# set-up is timed in at least this many fresh processes, and for at
# least this long; one set-up of a search workload takes ~45 ms, and
# its median needs many samples before it is steady.  The ~0.45 s
# set-up of stream_io fits ~5 probes in 3 s; with 9, the spread of its
# median over 8 runs fell from 8.9% to 4.4%
SETUP_PROBES = 9
SETUP_SECONDS = 3.0
REFERENCE_BASES = 20_000
REFERENCE_S = 0.4
# the short reference job that brackets each timed set-up
SETUP_REFERENCE_BASES = REFERENCE_BASES // 10
# units of the figures printed in the summary but not in BENCHMARK.json
PRINTED_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "fail_ratio": "ratio",
    "setup_raw_s": "s",
    "mitm.levels_skipped": "count",
}


def fresh_set_ups(workload: str, seed: int, smoke: bool, out_dir: Path) -> tuple[float, float]:
    """Medians of the workload's set-up, each in a fresh process: raw
    seconds, and seconds scaled to the reference machine.

    Host speed can change within a second (measured: set-ups of 36 ms and
    51 ms in alternating stretches of a few seconds), so each set-up is
    scaled by a short reference job run in the same process just before
    and after it.
    """
    cmd = [sys.executable, str(HERE / "fresh_setup.py"), workload, str(seed),
           str(int(smoke)), str(out_dir), str(SETUP_REFERENCE_BASES)]
    # what the short job takes on a machine where the full one takes REFERENCE_S
    short_s = REFERENCE_S * SETUP_REFERENCE_BASES / REFERENCE_BASES
    raw: list[float] = []
    scaled: list[float] = []
    started = time.perf_counter()
    while len(raw) < SETUP_PROBES or time.perf_counter() - started < SETUP_SECONDS:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        set_up_s, before, after = map(float, out.stdout.split()[-3:])
        raw.append(set_up_s)
        scaled.append(set_up_s * 2 * short_s / (before + after))
    return statistics.median(raw), statistics.median(scaled)


def cpu_times() -> tuple[float, float]:
    """(self, children) CPU seconds; children count once they are reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def attempt(wl, tracer: Tracer | None) -> tuple[bool, float, float, float]:
    """One operation and its check: (ok, wall s, CPU s, children CPU s)."""
    self0, kids0 = cpu_times()
    t0 = time.perf_counter()
    try:
        with tracer.span("op") if tracer else nullcontext():
            result = wl.run(tracer)
    except Exception:
        traceback.print_exc()
        result = None
    wall = time.perf_counter() - t0
    self1, kids1 = cpu_times()
    ok = False
    if result is not None:
        try:
            ok = wl.check(result)
        except Exception:
            traceback.print_exc()
    return ok, wall, self1 - self0 + kids1 - kids0, kids1 - kids0


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}, too few for a percentile with 10 samples beyond it"
    return f"p{100 * (n - 10) / n:.0f}={sorted(samples)[n - 11]:.4f} (n={n})"


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    out_dir: Path = OUT_DIR,
) -> dict:
    """Run one workload and return the result object; prints a summary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    api = import_addbasis()
    wl = WORKLOADS[workload](api, seed, smoke, out_dir)
    tracer = Tracer() if trace else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    cpus: list[float] = []
    in_ref: dict[str, list[float]] = {"wall_ref": [], "cpu_ref": []}
    ref = reference_job(REFERENCE_BASES)
    layer_rows: list[dict[str, float]] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and attempted % 2 == 1
        try:
            if traced:
                tracer.op = attempted
                tracer.install(api)
            ok, wall, cpu, kids = attempt(wl, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layer_rows.append(tracer.op_metrics(attempted, kids))
        attempted += 1
        failed += not ok
        walls[traced].append(wall)
        # each operation is divided by the mean of the two jobs around it
        ref_before, ref = ref, reference_job(REFERENCE_BASES)
        if not traced:
            cpus.append(cpu)
            in_ref["wall_ref"].append(2 * wall / (ref_before[0] + ref[0]))
            in_ref["cpu_ref"].append(2 * cpu / (ref_before[1] + ref[1]))
        # stop before an operation that would end past the deadline, once
        # there is at least one sample of each kind
        done = walls[False] and (walls[True] or not trace)
        expected = statistics.median(walls[False] + walls[True]) + ref[0]
        if done and time.perf_counter() + expected > deadline:
            break

    print(f"workload {workload}: seed {seed}, {seconds:g} s, trace {int(trace)}, "
          f"{attempted} operations, {failed} failed")
    if trace:
        # median_low: an observed value, so counts stay whole numbers
        values = {name: statistics.median_low(row[name] for row in layer_rows)
                  for name in layer_rows[0]}
        values["trace.overhead"] = statistics.median(walls[True]) / statistics.median(walls[False])
        kind = "per_layer"
        trace_file = out_dir / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": workload, "seed": seed, "metrics": values, **tracer.dump()}))
        print(f"  spans written to {trace_file}")
    else:
        # read before the set-up probes start, which are children too
        peak_kb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        setup_raw_s, setup_s = fresh_set_ups(workload, seed, smoke, out_dir)
        values = {
            "wall_s": statistics.median(walls[False]),
            "cpu_s": statistics.median(cpus),
            **{name: statistics.median(v) for name, v in in_ref.items()},
            "peak_rss_mb": peak_kb / 1024,
            "fail_ratio": failed / attempted,
            "setup_raw_s": setup_raw_s,
            "setup_s": setup_s,
        }
        kind = "end_to_end"
        print(f"  wall_s tail: {tail(walls[False])}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {**PRINTED_UNITS, **{m["name"]: m["unit"] for m in spec[kind]}}
    for name, value in values.items():
        print(f"  {name:28} {value:14.6g} {units[name]}")

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "addbasis" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'addbasis'} is missing", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
