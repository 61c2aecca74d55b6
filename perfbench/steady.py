"""Steadiness check: run workloads repeatedly, compare spreads with bounds.

    python3 perfbench/steady.py --workload pairscan --runs 5
    python3 perfbench/steady.py --runs 10 --sets 2

Each run is the BENCHMARK.json command in its own process, from the root
of the checkout, with its own seed and `run_seconds`.  For every metric
the table gives the median over the runs and the spread: the distance
between the first and third quartile (`statistics.quantiles(n=4)`) as a
share of the median.  An end-to-end metric is steady when its spread is
below a third of its bound and acceptable up to the bound.  With
`--sets 2` a second set with new seeds follows, and the drift of each
second median from the first is judged against the bound.  Exits 1 when a run fails or a check does not
hold.  Raw results go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(spec: dict, workload: str, seed: int, trace: int) -> dict | None:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    print(f"  {workload} seed {seed}: {result['attempted']} ops, {result['failed']} failed",
          file=sys.stderr)
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    ok = True
    seed = 1
    for _ in range(args.sets):
        for w in workloads:
            runs = []
            for _ in range(args.runs):
                result = one_run(spec, w, seed, args.trace)
                seed += 1
                if result is None or not result["correct"]:
                    ok = False
                if result is not None:
                    runs.append(result)
            results[w].append(runs)

    for w in workloads:
        print(f"{w}: {args.runs} runs per set, {args.sets} set(s), trace {args.trace}")
        print(f"  {'metric':28} {'median':>12} {'unit':6} {'spread':>8} {'bound':>6}  verdict")
        medians = []
        for runs in results[w]:
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print(f"  {'fail_ratio':28} {failed / attempted:12.6g} {'ratio':6}"
                  f"   ({failed} of {attempted} operations failed)")
            row = {}
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                med, sp = spread(values)
                row[m["name"]] = med
                bound = m.get("bound")
                if bound is None:
                    verdict = ""
                elif sp <= bound / 3:
                    verdict = "steady"
                elif sp <= bound:
                    verdict = "within bound"
                else:
                    verdict, ok = "OVER BOUND", False
                print(f"  {m['name']:28} {med:12.6g} {m['unit']:6} {sp:8.2%} "
                      f"{'' if bound is None else f'{bound:.2f}':>6}  {verdict}")
            medians.append(row)
        if len(medians) == 2:
            for m in metrics:
                if "bound" not in m:
                    continue
                first, second = medians[0][m["name"]], medians[1][m["name"]]
                drift = (second - first) / first
                worse = drift if m["better"] == "lower" else -drift
                held = worse <= m["bound"]
                ok &= held
                print(f"  drift {m['name']:22} {drift:+8.2%} of the first median: "
                      f"{'holds' if held else 'WORSE THAN BOUND'}")

    out = HERE / "out" / f"steady-t{args.trace}-{'-'.join(workloads)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"raw results: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
