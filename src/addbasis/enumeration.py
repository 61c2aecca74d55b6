"""Exhaustive enumeration of admissible bases with a range target.

A basis is admissible when its range reaches its top element, so every
prefix of an admissible basis is admissible and the next element after a
partial basis P can only lie in [last + 1, range(P) + 1]: anything larger
leaves range(P) + 1 uncovered forever.  Depth-first search over that
candidate interval therefore visits each admissible basis of length k
exactly once, in lexicographic order, and any extension inside the
interval is automatically admissible again.

When only bases of range >= T are wanted, subtrees are cut by a counting
argument: appending one element to an (i+1)-element partial basis creates
at most i + 2 new sums, so m further elements add at most
m*(i+1) + m*(m+1)/2 covered values.  If that cannot close the remaining
holes in [0, T], no completion reaches range T and the subtree dies.

The search below T is exact either way; pruning changes the work, never
the stream.  Long runs can be partitioned by fixed stems (all admissible
partials of a given depth) and distributed over processes; results are
merged back in lexicographic order.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import __version__
from .core import Basis, as_basis, basis_range, format_basis, sumset_bits


@dataclass(frozen=True, slots=True)
class EnumSpec:
    """What to enumerate: all admissible bases of the given length whose
    range is at least min_range, optionally restricted to a fixed stem of
    leading elements."""

    length: int
    min_range: int = 0
    first_elements: Basis | None = None

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        if self.min_range < 0:
            raise ValueError(f"min_range must be >= 0, got {self.min_range}")
        if self.first_elements is not None:
            stem = as_basis(self.first_elements)
            if len(stem) > self.length + 1:
                raise ValueError(
                    f"stem has {len(stem)} elements but the target length "
                    f"{self.length} allows at most {self.length + 1}"
                )
            if len(stem) >= 2 and stem[1] != 1:
                raise ValueError("an admissible basis begins 0, 1")
            if not _stem_admissible(stem):
                raise ValueError(f"stem {stem} is not an admissible partial basis")
            object.__setattr__(self, "first_elements", stem)

    @property
    def stem(self) -> Basis:
        return self.first_elements if self.first_elements is not None else (0,)


def _stem_admissible(stem: Sequence[int]) -> bool:
    for i in range(1, len(stem)):
        if stem[i] > basis_range(stem[:i]) + 1:
            return False
    return True


def _iter_admissible(length: int, min_range: int, stem: Sequence[int], prune: bool) -> Iterator[Basis]:
    """DFS core: every admissible extension of `stem` to `length`, with
    range >= min_range, in lexicographic order.

    The node state (element mask and sum coverage) lives on explicit
    stacks and is updated incrementally per element.  Candidates are
    [last + 1, first gap]; with prune=True the counting cut of the module
    docstring drops a node whose coverage of [0, min_range] is too far
    short.  The soundness property test pins the cut against the oracle."""
    kp1 = length + 1
    tmask = (1 << (min_range + 1)) - 1
    # need[n] = sums still missing in [0, min_range] that the counting
    # bound cannot explain away for a node with n elements
    need = []
    for n in range(kp1 + 1):
        m = kp1 - n
        need.append(min_range + 1 - (m * n + m * (m + 1) // 2))

    elems = list(stem)
    mask, cov = sumset_bits(elems)

    n0 = len(elems)
    if n0 == kp1:
        if cov & tmask == tmask:
            yield tuple(elems)
        return
    if prune and need[n0] > 0 and (cov & tmask).bit_count() < need[n0]:
        return

    # explicit stacks; level d holds the node with n0 + d elements
    masks = [mask]
    covs = [cov]
    first_gap = ((~cov) & (cov + 1)).bit_length() - 1
    iters = [iter(range(elems[-1] + 1, first_gap + 1))]
    depth = 0
    while depth >= 0:
        a = next(iters[depth], None)
        if a is None:
            iters.pop()
            masks.pop()
            covs.pop()
            depth -= 1
            if depth >= 0:
                elems.pop()
            continue
        n = n0 + depth + 1
        m2 = masks[depth] | (1 << a)
        c2 = covs[depth] | (m2 << a)
        if n == kp1:
            if c2 & tmask == tmask:
                yield tuple(elems) + (a,)
            continue
        if prune and need[n] > 0 and (c2 & tmask).bit_count() < need[n]:
            continue
        elems.append(a)
        masks.append(m2)
        covs.append(c2)
        first_gap = ((~c2) & (c2 + 1)).bit_length() - 1
        iters.append(iter(range(a + 1, first_gap + 1)))
        depth += 1


def _collect(args: tuple[int, int, Basis, bool]) -> list[Basis]:
    length, min_range, stem, prune = args
    return list(_iter_admissible(length, min_range, stem, prune))


def stems(depth: int, below: Sequence[int] = (0,)) -> list[Basis]:
    """All admissible partial bases of length `depth` extending `below`,
    in lexicographic order.  These partition any deeper enumeration."""
    if depth < 1:
        raise ValueError(f"stem depth must be >= 1, got {depth}")
    return list(_iter_admissible(depth, 0, tuple(below), False))


def enumerate_admissible(spec: EnumSpec, *, prune: bool = True, processes: int = 1) -> Iterator[Basis]:
    """Yield every admissible basis of spec.length with range >= spec.min_range,
    in lexicographic order.

    prune=False disables the counting cut (same stream, more work); with
    processes > 1 the stem partitions run in a process pool and results
    merge back in order.
    """
    stem = spec.stem
    depth = max(len(stem) - 1, 2)
    if processes <= 1 or depth >= spec.length:
        yield from _iter_admissible(spec.length, spec.min_range, stem, prune)
        return
    # deepen the stems below spec.stem one level at a time until there are
    # enough jobs to keep the pool busy; stem counts grow ~5x per level
    parts = stems(depth, stem)
    while depth < spec.length - 1 and len(parts) < 32 * processes:
        depth += 1
        parts = [s for part in parts for s in stems(depth, part)]
    jobs = [(spec.length, spec.min_range, part, prune) for part in parts]
    with multiprocessing.Pool(processes) as pool:
        for chunk in pool.imap(_collect, jobs, chunksize=1):
            yield from chunk


_COUNT_PAD = 12


def save_enumeration(path, spec: EnumSpec, bases: Iterable[Sequence[int]]) -> int:
    """Stream bases to a file under a header recording what was enumerated.

    The count is known only at the end, so a fixed-width placeholder in the
    header is backpatched once the stream is exhausted.  The file is
    written under a temporary name in the same directory and renamed over
    `path` only when complete, so an interrupted write (the stream raising,
    or the process being stopped) never leaves a partial file at `path`.
    Returns the count.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            f.write(f"# k={spec.length}\n")
            f.write(f"# min_range={spec.min_range}\n")
            f.write(f"# version={__version__}\n")
            f.write("# count=")
            patch_at = f.tell()
            f.write(" " * _COUNT_PAD + "\n")
            count = 0
            for basis in bases:
                f.write(format_basis(basis))
                f.write("\n")
                count += 1
            if len(str(count)) > _COUNT_PAD:
                raise ValueError(f"count {count} exceeds the header field")
            f.seek(patch_at)
            f.write(str(count))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return count
