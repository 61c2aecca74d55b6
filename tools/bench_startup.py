"""Time a fresh process: the package import and `addbasis extremal`.

Every sample is a new Python process, started with PYTHONPATH set to a
checkout's `src/` directory, so it pays for every module the program
loads.  Three cases:

- `python`: `python -c pass`, the interpreter's own start-up and exit,
  measured from this process;
- `import`: `import addbasis`, timed with `time.perf_counter` inside the
  fresh process, as perfbench's `setup_s` times it;
- `extremal`: `addbasis extremal -k K --threads T`, as the console
  script runs it, measured from this process: start-up, import, search,
  output and exit.

With `--against DIR`, each sample is also taken on the checkout in DIR,
right after or before this one (the side that goes first alternates per
round), and each `extremal` row says whether the two sides printed the
same stdout.  The median over rounds is reported per case and side.

Run from the repository root:
    python tools/bench_startup.py --rounds 20
    python tools/bench_startup.py --rounds 20 --against ../parent --lengths 20-26 --threads 1 2

It prints one JSON object per row.  The environment is passed on as it
is: with PYTHONDONTWRITEBYTECODE set and no `__pycache__` in the
checkout, every sample also compiles the modules it imports.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

IMPORT = (
    "import time; t0 = time.perf_counter(); import addbasis; "
    "print(time.perf_counter() - t0, addbasis.__file__)"
)
CLI = "import sys; from addbasis.cli import main; sys.exit(main())"


def lengths(text: str) -> list[int]:
    """`20-26` or `22`: the lengths K of the extremal runs."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=10, help="samples per case and side (default 10)")
    parser.add_argument("--lengths", type=lengths, default=lengths("20-26"),
                        help="K of the extremal runs, as K or FIRST-LAST (default 20-26)")
    parser.add_argument("--threads", type=int, nargs="+", default=[1, 2],
                        help="--threads values of the extremal runs (default 1 2)")
    parser.add_argument("--against", type=Path, help="a second checkout, sampled alternately")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.against is not None and not (args.against / "src" / "addbasis").is_dir():
        parser.error(f"--against {args.against}: no src/addbasis there")

    sides = {"this": HERE}
    if args.against is not None:
        sides["against"] = args.against.resolve()
    cases = [("python",), ("import",)] + [("extremal", k, t) for k in args.lengths for t in args.threads]
    seconds = {(case, side): [] for case in cases for side in sides}
    outputs = {}
    for r in range(args.rounds):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for case in cases:
            for side in order:
                s, out = sample(sides[side], case)
                seconds[case, side].append(s)
                outputs.setdefault((case, side), out)

    for case in cases:
        for side in sides:
            samples = seconds[case, side]
            row = {"case": case[0], "side": side}
            if case[0] == "extremal":
                row.update(k=case[1], threads=case[2])
                if len(sides) > 1:
                    row["same_stdout"] = outputs[case, "this"] == outputs[case, "against"]
            row["median_s"] = round(statistics.median(samples), 4)
            row["samples"] = [round(s, 4) for s in samples]
            print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
