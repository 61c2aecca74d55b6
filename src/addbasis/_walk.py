"""Build, load and run the compiled DFS walker, `_walk.c`.

`enumeration._iter_admissible` hands every walk to `walk`, and this
module is imported with the first walk, not with the package, so
`import addbasis` loads neither it nor ctypes; subprocess is imported
only to build.  The `enumeration` module docstring says where the kernel
is built, how its cache file is named and which streams its bit vectors
hold.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import sys
import zlib
from array import array
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

from . import enumeration
from .core import Basis

# the kernel's build command, which keys its cache file with the source
CC = ("cc", "-O2", "-shared", "-fPIC")
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_walk.c")
# the bases of one walk_next call fill at most this many ints (32 KB), and
# one walk_stems call takes at most this many stems
CHUNK_INTS = 8192
STEMS_PER_BATCH = 4096
# False until the first walk loads the kernel, then its library, or None
# where it cannot be built or loaded
lib = False
# the nodes that the last finished walk popped in the kernel, or None
# when it walked in Python
nodes = None


def cache_dir() -> str:
    """$XDG_CACHE_HOME/addbasis, else ~/.cache/addbasis."""
    return os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "addbasis")


def build(path: str) -> None:
    """Build the kernel at path, through a temporary name beside it that
    is renamed over it, so that concurrent first uses and a killed build
    leave no broken file.  subprocess is imported only here: a process
    that finds the kernel cached starts none."""
    import subprocess

    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        proc = subprocess.run([*CC, SOURCE, "-o", tmp], stdin=subprocess.DEVNULL, capture_output=True)
        if proc.returncode:
            raise OSError(f"{CC[0]} exited {proc.returncode}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load():
    """The compiled walker from the cache, built there first if missing;
    None when it cannot be built or loaded, with one line on stderr
    unless the compiler is missing.
    The cache file is named by a zlib.crc32 of the machine type, the
    build command and the source, so that a cache shared between
    machines of different types holds one file for each (hashlib would
    load OpenSSL, 3.6 MB of a search's memory)."""
    machine = os.uname().machine if hasattr(os, "uname") else ""
    path = None
    try:
        with open(SOURCE, "rb") as f:
            key = zlib.crc32(f.read(), zlib.crc32(" ".join((machine, *CC)).encode()))
        path = os.path.join(cache_dir(), f"_walk-{key:08x}.so")
        if not os.path.exists(path):
            build(path)
        library = ctypes.CDLL(path)
    except OSError as err:
        # no compiler on PATH is the quiet fallback; a build or load that
        # fails is told once per process
        if not (isinstance(err, FileNotFoundError) and err.filename == CC[0]):
            print(f"addbasis: walking in Python, no DFS kernel at {path}: {err}", file=sys.stderr)
        return None
    pointer, number = ctypes.c_void_p, ctypes.c_int
    library.walk_new.argtypes = (number, number, number, pointer, number)
    library.walk_new.restype = pointer
    library.walk_stems.argtypes = (pointer, pointer, pointer, number)
    library.walk_stems.restype = None
    library.walk_next.argtypes = (pointer, pointer, ctypes.c_long)
    library.walk_next.restype = ctypes.c_long
    library.walk_nodes.argtypes = (pointer,)
    library.walk_nodes.restype = ctypes.c_longlong
    library.walk_free.argtypes = (pointer,)
    library.walk_free.restype = None
    return library


def kernel():
    """The kernel's library, loaded on the first call, or None."""
    global lib
    if lib is False:
        lib = load()
    return lib


@contextlib.contextmanager
def reference():
    """Every walk inside runs in `enumeration._python_walk`, the
    reference, as where the kernel cannot be built."""
    global lib
    saved, lib = lib, None
    try:
        yield
    finally:
        lib = saved


def walk(
    length: int,
    min_range: int,
    starts: Iterable[Sequence[int]],
    prune: bool,
    floors: Sequence[int] = (),
) -> Iterator[Basis]:
    """`enumeration._iter_admissible`'s stream, in the kernel when it
    loaded and its bit vectors hold the stream, and in
    `enumeration._python_walk` otherwise.  The stems are bases, as
    `enumeration._stem` makes them, or the walker's own; the kernel skips
    one with an element past length * (length + 1) / 2, which extends to
    nothing (see `_walk.c`).

    The stems go to the kernel `STEMS_PER_BATCH` at a time, and the bases
    come back at most `CHUNK_INTS` ints at a time and are rebuilt as
    tuples, so a stream of millions of bases is never one buffer.  The
    kernel's state is freed when the walk ends, also when its consumer
    closes it early, and its node count is kept in `nodes`.
    """
    global nodes
    nodes = None
    walker = kernel()
    state = None
    # ctypes would wrap a larger length or min_range into a C int; no
    # kernel holds one
    if walker is not None and max(length, min_range) < 1 << 31:
        least = array("i", floors)
        state = walker.walk_new(length, min_range, prune, least.buffer_info()[0], len(least))
    if not state:
        yield from enumeration._python_walk(length, min_range, starts, prune, floors)
        return
    kp1 = length + 1
    cap = CHUNK_INTS // kp1
    out = array("i", [0]) * (cap * kp1)
    starts = iter(starts)
    try:
        while batch := list(islice(starts, STEMS_PER_BATCH)):
            lens = array("i", map(len, batch))
            elems = array("i", chain.from_iterable(batch))
            walker.walk_stems(state, lens.buffer_info()[0], elems.buffer_info()[0], len(batch))
            while n := walker.walk_next(state, out.buffer_info()[0], cap):
                yield from zip(*[iter(out[: n * kp1])] * kp1)
        nodes = walker.walk_nodes(state)
    finally:
        walker.walk_free(state)
