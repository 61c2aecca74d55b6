"""One workload set-up, timed in a fresh process.

    python3 perfbench/fresh_setup.py WORKLOAD SEED SMOKE OUT_DIR REF_BASES

prints three numbers: the seconds that importing addbasis and building
the workload's inputs took, and the wall seconds of a short reference job
(see `reference_job`) run in this process just before and just after.
run.py starts this several times and reports the median of the scaled
set-ups as `setup_s`.  A fresh process pays for every module addbasis
imports, so a new dependency shows.  Before addbasis is imported, this
module loads nothing beyond `os`, `random`, `sys`, `time` and `types`.
"""

import os
import random
import sys
import time
from types import SimpleNamespace

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MODULES = ("core", "enumeration", "catalog", "mitm")


def import_addbasis():
    """The program's modules, imported from the checkout's src/."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in MODULES:
        __import__(f"addbasis.{name}")
    package = sys.modules["addbasis"]
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError(f"addbasis was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{name: sys.modules[f"addbasis.{name}"] for name in MODULES})


def reference_job(bases: int) -> tuple[float, float]:
    """(wall s, CPU s) of a fixed pure-Python job shaped like the program's
    work: draw bases, format and parse them, build their sumset bit vectors.

    On a shared host (measured: a 2-vCPU Xeon VM) machine speed drifts by
    10-20% over minutes and can switch within seconds.  The gated times are
    in units of this job: a change to addbasis moves the operation but not
    the job, while a slower machine moves both.
    """
    t0, c0 = time.perf_counter(), time.process_time()
    rng = random.Random(0)
    for _ in range(bases):
        line = " ".join(map(str, sorted(rng.sample(range(1, 400), 12))))
        mask = cov = 0
        for a in (int(t) for t in line.split()):
            mask |= 1 << a
            cov |= mask << a
        cov.bit_count()
    return time.perf_counter() - t0, time.process_time() - c0


def timed_set_up(workload: str, seed: int, smoke: bool, out_dir: str) -> float:
    """Seconds to import addbasis and build the workload's inputs; the
    import of the benchmark's own workloads module is not counted."""
    t0 = time.perf_counter()
    api = import_addbasis()
    import_s = time.perf_counter() - t0
    from pathlib import Path

    from workloads import WORKLOADS

    t1 = time.perf_counter()
    WORKLOADS[workload](api, seed, smoke, Path(out_dir))
    return import_s + time.perf_counter() - t1


if __name__ == "__main__":
    workload, seed, smoke, out_dir, ref_bases = sys.argv[1:]
    # the reference job runs in this process, on the CPU the set-up runs
    # on; the two vCPUs of the host can run at different speeds
    before = reference_job(int(ref_bases))[0]
    set_up_s = timed_set_up(workload, int(seed), smoke == "1", out_dir)
    after = reference_job(int(ref_bases))[0]
    print(set_up_s, before, after)
