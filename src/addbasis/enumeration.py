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

The final element is picked exactly rather than by trying each candidate.
Let P end in x, let g be its first gap and h its largest hole in [0, T].
A final element y lies in [x + 1, g], and once y is added, g and h must
be sums.  Neither is a sum of two elements of P, so each must be y + a
with a in P, or 2y.  No sum of P exceeds 2x, so g <= 2x + 1 < 2y.  Hence
g - y must be an element of P, and h - y must be one unless y = h/2.
These are two shifts of P's mask; every y that passes them still gets
the full coverage check, and a P without a hole in [0, T] keeps every y.
The step drops only final elements that leave g or h uncovered, so it is
exact.

Two more cuts act on x, the element before the final one y, at a node P
two elements short of a leaf; Q = P + {x, y} is the finished basis and
T the range target.

The run bound.  No sum within P + {x} exceeds 2x, so if 2x < T every v
in (2x, T] must be y + a with a in Q, and the T - 2x values v - y are
consecutive elements of Q.  Both x and y exceed max P, so they can only
lengthen P's top run, and Q's longest run is at most L + 2, L being P's
longest run.  So 2x >= T - L - 2, and x starts at (T - L - 1) // 2.

The in-range cap.  If 2x + 1 > T, then x + y and 2y exceed T, and
y + a <= T needs a <= T - x - 1 < x.  So y covers at most as many values
of [0, T] as P has elements in [0, T - x - 1], and an x that leaves more
holes than that has no final element.

Both cuts drop only an x that no y completes to range T, so they are
exact too.

One loop walks the tree, over a stack of nodes that each carry their
elements, element mask, sum coverage and the interval of their next
elements.  It starts at the parent of the stem, with the stem's last
element as the only child, so a stem of any depth enters the walk as one
more node.  A node pushes each child that passes its tests straight onto
the stack, largest first, so the smallest is popped first and the walk
stays in lexicographic order.  The last two levels are unrolled at the
nodes two elements short of a leaf, where most of the work lies: their
next elements x are tried in place, from the run bound on and under the
in-range cap, and the final element comes from the exact step.

One walk may take many stems, one after another: the tables that depend
only on the stream are built once, and each stem gets its own root
check.  So a stream is extended from the bases of a shorter one
(`extend`) in one call, as the mitm search does with the longer stream
of a level.  A basis one element short of the stream's length enters as
its parent, a node two short whose only x is the basis's last element,
so its extension is that x's exact step.

A stream may also carry floors, one least range per depth (the split
bound of the mitm module, applied at every depth).  They define the
stream rather than prune it, like T: the walk drops a child whose first
gap is at most the floor of its depth, an x two short that leaves a hole
at or below its floor, and a stem whose own prefixes miss theirs, so the
stream below any set of stems is the serial stream filtered to them.

The floor step.  Let P be a node whose children have depth d, and let P
have holes in [0, floor[d]]; g is the first of them, P's first gap, and
h the largest.  A child a that reaches the floor covers both, and
neither is a sum within P.  The child exceeds max P, and g <= 2 max P + 1
< 2a, so g - a must be an element of P; h - a must be one unless h = 2a.
These are the two shifts of the exact last-element step, so P's
children are read off them, as one mask, at every depth with a floor,
and so are the x of a node two short, against the floor of their depth,
once the run bound has moved the start of the x loop.  The step drops
only children that the floor test would drop, so the nodes and the
stream stay the same; every child it keeps still gets the floor test,
first, since most of them fail it, and then the counting cut.  A child
covers all that P covers, so it passes the floor test exactly when it
covers every hole of P under the floor, and its own first gap is worked
out only once it has passed.  A node without a hole under the floor,
which includes every node of a depth whose floor is 0, has no step to
take and tries each next element in turn.  floor[0] is 0, so the empty
prefix, where g = 0 = 2 * 0, never takes the step.

The search below T is exact either way; pruning changes the work, never
the stream.  Long runs can be partitioned by stems, the partial bases
of one depth, and distributed over processes; results are merged back
in lexicographic order.

The processes come from one `Workers` per search: the n2* descent
enumerates streams once per round, at the round's base level, and when
it still enumerated one or two streams per level, a pool per stream cost
the k = 22 descent 0.16 s of wall time on a 2-core machine for its 10
pools (0.11 s to start them, 0.05 s to stop them; BENCH_11.json), so a
search opens one `Workers` and passes it to every stream.  It starts its
pool on the first parallel map, not when it is opened, so a search whose
streams all come from a cache, or are given, forks no process; the pool
is closed when the `with` block ends, also on an exception.  The
`multiprocessing` module is imported with the first pool too: a serial
run never needs it, and its import costs a fresh process about 10 ms,
nearly the 13 ms search of the serial k = 22 descent.

`_split` cuts a parallel stream into stems one level at a time.  The
stems of depth d are the admissible partial bases of d + 1 elements
that reach the stream's first d floors: the stream of length d with
those floors, and with min_range the largest of them, which each such
stem reaches.  So each depth extends the one before in one multi-stem
walk, and a stem that misses a floor is dropped before it is shipped.
Each job ships a stem to a worker and its bases back, which costs the
parent up to about a millisecond of CPU, while the largest job left at
the end decides how evenly the workers finish.  Stems with at most
`SHALLOW_LEVELS` levels below them make small jobs, so
`SHALLOW_STEMS_PER_WORKER` of them per worker balance; deeper stems
need `STEMS_PER_WORKER`.  The plan is a list that `enumerate_admissible`
maps over the pool, so it can be read without starting one.

The walk runs in a compiled kernel, `_walk.c`, a port of `_python_walk`
that pops the same nodes and yields the same bases in the same order,
at 0.07-0.14x its CPU on the streams of `tools/bench.py dfs`
(BENCH_28.json; 0.30x on (10, 30), whose time goes to rebuilding its
192,684 bases as tuples).  The first walk builds it with the system
`cc -O2 -shared -fPIC` into $XDG_CACHE_HOME/addbasis (else
~/.cache/addbasis), under a name keyed by a zlib.crc32 of the machine
type, the source and the command, and loads it with ctypes, which is
imported only then.  Its
bit vectors are 2, 4, 6 or 8 words of 64 bits, the fewest that hold the
stream; 3, 5 and 7 words were slower than the next even width.  An
admissible basis of length L has elements at most L(L+1)/2, since a
prefix of m elements has at most m(m+1)/2 sums, so its coverage fits in
L(L+1) + 1 bits, and the range target takes min_range + 1: 8 words hold
every length up to 22, which is both streams of every k up to 45 at the
default pivot.  A stem with an element past the bound extends to
nothing, so the kernel skips it.  Any other stream walks in Python, as
every walk does where the kernel cannot be built (one line on stderr
says why, unless no compiler is on PATH); `_python_walk` is also the reference that the kernel is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .core import MAX_ELEMENT, Basis, as_basis, reaches_floors, sumset_bits


@dataclass(frozen=True, slots=True)
class EnumSpec:
    """What to enumerate: all admissible bases of the given length whose
    range is at least min_range.

    `floors`, when given, has one entry per depth d = 1..length, none above
    min_range, and keeps only the bases whose prefix of depth d (its first
    d + 1 elements) has range >= floors[d - 1].  The floors are part of
    what is enumerated, like min_range: prune=False keeps them.  They are
    keyword-only and always kept as a tuple.
    """

    length: int
    min_range: int = 0
    floors: tuple[int, ...] = field(default=(), kw_only=True)

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        # no basis with elements up to MAX_ELEMENT has a larger range
        if not 0 <= self.min_range <= 2 * MAX_ELEMENT:
            raise ValueError(
                f"min_range must be between 0 and {2 * MAX_ELEMENT} (twice the "
                f"supported maximum element), got {self.min_range}"
            )
        floors = tuple(map(int, self.floors))
        if floors and len(floors) != self.length:
            raise ValueError(
                f"floors has {len(floors)} entries but the length {self.length} needs one per depth"
            )
        if not all(0 <= f <= self.min_range for f in floors):
            raise ValueError(f"floors must lie between 0 and min_range {self.min_range}, got {floors}")
        object.__setattr__(self, "floors", floors)


def _floor_step(below: int, rev: int, lo: int, hi: int) -> int:
    """The floor step at a node P: its next elements a in [lo, hi] that can
    cover both P's first gap g and h, the largest of `below`, P's holes
    under the floor of its children's depth, as a mask with bit a - lo set
    for each.  rev has bit (lo - 1) - e set for each element e of P, so
    bit a of `rev << (g - lo + 1)` is set exactly when g - a is an
    element, and of `rev << (h - lo + 1)` when h - a is one; the `half`
    bit adds a = h/2."""
    if hi < lo:
        return 0
    g = (below & -below).bit_length() - 1
    h = below.bit_length() - 1
    half = 0 if h & 1 else 1 << (h >> 1)
    cand = ((rev << (g - lo + 1)) & ((rev << (h - lo + 1)) | half)) >> lo
    return cand & ((2 << (hi - lo)) - 1)


def _ascending(cand: int, lo: int) -> Iterator[int]:
    """The a with bit a - lo of cand set, smallest first."""
    while cand:
        low = cand & -cand
        cand ^= low
        yield lo - 1 + low.bit_length()


def _python_walk(
    length: int,
    min_range: int,
    starts: Iterable[Sequence[int]],
    prune: bool,
    floors: Sequence[int] = (),
) -> Iterator[Basis]:
    """The DFS in Python, the compiled kernel's reference and fallback
    (see `_iter_admissible`): every admissible extension of each stem in
    `starts` to `length`, with range >= min_range and each prefix of
    depth d at range >= floors[d - 1], stem after stem and in
    lexicographic order below each.

    The tables that depend only on the stream (tmask, spare, floor_mask
    and the starts of the run bound and the in-range cap) are built once
    for all the stems.  A node is (elements, mask, coverage, rev, lo,
    hi): its children are the next elements in [lo, hi], and rev
    has bit (lo - 1) - a set for each element a, so a child a gets
    `(rev << (a - lo + 1)) | 1`.  Each stem's root is the stem's parent,
    with hi capped at its first gap, so an inadmissible stem has no
    children, and a full-length stem is yielded only if its last element
    is within that gap and it reaches min_range.  With prune=False,
    `spare` lets a child leave all min_range + 1 values of [0, min_range]
    open.

    The floors are tested only at a node with holes in [0, floor of its
    children's depth] (`below`), since a child covers all that its parent
    covers.  There the one floor test, `below & ~c`, drops a child or an
    x two short with coverage c that leaves a hole of `below` open, so
    that its first gap is at most the floor; every floor is at most
    min_range, so that hole is in [0, T].
    The root drops a stem that has a prefix below its floor, so any set
    of stems gives exactly the serial stream below them.

    A node's children are pushed straight onto the stack, largest first,
    so the smallest is popped first.  Where the floor step runs, they are
    the bits of its mask, read from the top bit down; elsewhere they are
    [lo, hi], from hi down.  Each gets the floor test before the counting
    cut and its first gap after both.

    The children x of a node two short are tried in place, with
    T = min_range, `holes = tmask & ~c1`, the holes in [0, T] that x
    leaves, and `r1 = (rev << (x - lo + 1)) | 1`, which has bit x - a set
    for each element a, x included.  The cuts:

    - The counting cut, on every child: it may leave at most
      `spare_child` holes in [0, T].
    - The floor step, at a node with holes in [0, floor of its children's
      depth] (`below`): the mask of `_floor_step` keeps the children that
      can cover the first and the largest of them; other nodes try
      [lo, hi] in turn.  An x two short is read off the mask from the
      lowest bit up, and gets the floor test before its holes are built.
    - The run bound: the x loop starts at (T - L - 1) // 2, L being the
      node's longest run, and rev is shifted by the x it skips.  L is
      counted only when the bound can bind: L >= 1, so the start is at
      most (T - 2) // 2.
    - The in-range cap: from 2x >= T on, `r1 >> (2x + 1 - T)` has one bit
      for each element a <= T - x - 1, the only ones with y + a <= T, and
      an x that leaves more holes than it has bits is skipped.
    - The exact step: bit y of `r1 << (g - x)` is set exactly when g - y
      is an element, and bit y of `r1 << (h - x)` exactly when h - y is
      one; the `half` bit adds y = h/2.  An x without a hole left keeps
      every y in [x + 1, g], and every kept y must cover all of `holes`.

    prune=False turns off all five cuts, not the floors, and keeps every
    y in [x + 1, g].  The soundness property test pins the cuts against
    the oracle, and the prune on/off tests pin each of them.
    """
    kp1 = length + 1
    tmask = (1 << (min_range + 1)) - 1
    # spare[n] = holes in [0, min_range] that the counting bound lets a
    # node with n elements leave open
    spare = [min_range + 1] * (kp1 + 1)
    if prune:
        for n in range(kp1 + 1):
            m = kp1 - n
            spare[n] = m * n + m * (m + 1) // 2
    # the run bound can raise the start of an x loop only below this
    # lo, and the in-range cap holds from this x on
    run_below = (min_range - 2) // 2 if prune else -1
    cap_from = (min_range + 1) // 2 if prune else float("inf")
    # floor_mask[d] = [0, least range of the prefix of depth d], or 0
    # where that is 0.  Depth 0 has none, so the empty prefix, whose hole
    # 0 is 2 * 0, never takes the floor step
    floor_mask = [0, *((2 << f) - 1 if f else 0 for f in floors or (0,) * length)]

    two_short = kp1 - 2
    for stem in starts:
        if floors and not reaches_floors(stem, floors):
            continue
        *parent, last = stem
        mask, cov = sumset_bits(parent)
        first_gap = ((~cov) & (cov + 1)).bit_length() - 1
        if len(stem) == kp1:
            c1 = cov | ((mask | (1 << last)) << last)
            if last <= first_gap and c1 & tmask == tmask:
                yield tuple(stem)
            continue
        rev = sum(1 << (last - 1 - a) for a in parent)
        nodes = [(tuple(parent), mask, cov, rev, last, min(last, first_gap))]
        while nodes:
            prefix, mask, cov, rev, lo, hi = nodes.pop()
            depth = len(prefix)
            spare_child = spare[depth + 1]
            # P's holes under its children's floor: only a node with some can
            # have a child below the floor, and only there the floor step runs
            below = floor_mask[depth]
            if below:
                below &= ~cov
            if depth != two_short:
                # children are pushed largest first, so the smallest is popped first
                if below and prune:
                    cand = _floor_step(below, rev, lo, hi)
                    while cand:
                        i = cand.bit_length() - 1
                        cand ^= 1 << i
                        a = lo + i
                        m2 = mask | (1 << a)
                        c2 = cov | (m2 << a)
                        # the floor test: c2 holds cov, so a hole of c2 in
                        # below is a first gap at or under the floor
                        if below & ~c2 or (tmask & ~c2).bit_count() > spare_child:
                            continue
                        gap = ((~c2) & (c2 + 1)).bit_length() - 1
                        nodes.append((prefix + (a,), m2, c2, (rev << (i + 1)) | 1, a + 1, gap))
                    continue
                for a in range(hi, lo - 1, -1):
                    m2 = mask | (1 << a)
                    c2 = cov | (m2 << a)
                    if below and below & ~c2 or (tmask & ~c2).bit_count() > spare_child:
                        continue
                    gap = ((~c2) & (c2 + 1)).bit_length() - 1
                    nodes.append((prefix + (a,), m2, c2, (rev << (a - lo + 1)) | 1, a + 1, gap))
                continue
            if lo < run_below:
                # run = the longest run of consecutive elements
                run = 0
                m = mask
                while m:
                    m &= m >> 1
                    run += 1
                start = (min_range - run - 1) // 2
                if start > lo:
                    rev <<= start - lo
                    lo = start
            for x in _ascending(_floor_step(below, rev, lo, hi), lo) if below and prune else range(lo, hi + 1):
                m1 = mask | (1 << x)
                c1 = cov | (m1 << x)
                if below and below & ~c1:
                    continue
                holes = tmask & ~c1
                count = holes.bit_count()
                if count > spare_child:
                    continue
                # bit x - a of r1 is set for each element a, x included
                r1 = (rev << (x - lo + 1)) | 1
                if x >= cap_from and count > (r1 >> (2 * x + 1 - min_range)).bit_count():
                    continue
                if prune and holes:
                    g = (holes & -holes).bit_length() - 1
                    h = holes.bit_length() - 1
                    half = 0 if h & 1 else 1 << (h >> 1)
                    cand = ((r1 << (g - x)) & ((r1 << (h - x)) | half)) >> (x + 1)
                else:
                    # every y up to the first gap
                    cand = (1 << ((c1 ^ (c1 + 1)).bit_length() - 1 - x)) - 1
                # bit i of cand stands for y = x + 1 + i
                while cand:
                    low = cand & -cand
                    cand ^= low
                    y = x + low.bit_length()
                    if holes & ((m1 | (1 << y)) << y) == holes:
                        yield prefix + (x, y)


def _iter_admissible(
    length: int,
    min_range: int,
    starts: Iterable[Sequence[int]],
    prune: bool,
    floors: Sequence[int] = (),
) -> Iterator[Basis]:
    """DFS core: every admissible extension of each stem in `starts` to
    `length`, with range >= min_range and each prefix of depth d at range
    >= floors[d - 1], stem after stem and in lexicographic order below
    each, exactly as `_python_walk` gives it: `_walk.walk` runs it in the
    compiled kernel where that loads and holds the stream, and in
    `_python_walk` otherwise."""
    # imported with the first walk, and ctypes with it, not with the package
    from . import _walk

    return _walk.walk(length, min_range, starts, prune, floors)


# a stream is split into at least this many stems per worker ...
STEMS_PER_WORKER = 32
# ... or this many, once at most SHALLOW_LEVELS levels lie below each
# stem: the length-10 streams of the k = 22 descent then send 17 jobs to
# 2 workers, not 65 (its length-11 streams extend them in the calling
# process), and the plain (12, 56) stream keeps its 65
SHALLOW_STEMS_PER_WORKER = 8
SHALLOW_LEVELS = 7


class Workers:
    """The process pool of one search, started on first use.

    Use it as a context manager: the pool is started by the first `imap`
    and closed, through the pool's own `__exit__`, when the `with` block
    ends, also on an exception or KeyboardInterrupt.  Callers map in
    their own process when processes <= 1, so such a `Workers` never
    starts a pool.  `multiprocessing` is loaded with the first pool, so
    a run that starts none never imports it.
    """

    def __init__(self, processes: int = 1) -> None:
        self.processes = processes
        self._pool = None

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, *exc):
        pool, self._pool = self._pool, None
        if pool is not None:
            return pool.__exit__(*exc)
        return None

    def imap(self, func, jobs: Iterable) -> Iterator:
        """func over jobs in the pool, one job per task, results in job
        order."""
        if self._pool is None:
            # imported here, so that a run that starts no pool never loads
            # multiprocessing, and Pool is looked up at call time, so that
            # a wrapper on the module attribute sees every pool
            import multiprocessing

            self._pool = multiprocessing.Pool(self.processes)
        return self._pool.imap(func, jobs, chunksize=1)


def _collect(args: tuple[int, int, tuple[Basis], bool, tuple[int, ...]]) -> list[Basis]:
    return list(_iter_admissible(*args))


def _stem(elements: Sequence[int], depth: int) -> Basis:
    """`elements` as a basis tuple, checked to fit under `depth`."""
    stem = as_basis(elements)
    if len(stem) > depth + 1:
        raise ValueError(
            f"stem {stem} has {len(stem)} elements but the depth "
            f"{depth} allows at most {depth + 1}"
        )
    return stem


def _split(spec: EnumSpec, processes: int, prune: bool) -> list[Basis]:
    """The stems that a stream of `spec.length` >= 3 is split into for
    `processes` workers, in lexicographic order: those of the least depth
    d that gives enough jobs, the stream of length d with the spec's
    first d floors."""
    # deepen the stems below the root one level at a time until there are
    # enough jobs to keep the pool busy; stem counts grow ~5x per level.
    # The stems of depth d, the stream of length d with the first d
    # floors, are extended from those of depth d - 1
    floors = spec.floors
    depth, parts = 1, [(0,)]
    while depth < spec.length - 1:
        shallow = spec.length - depth <= SHALLOW_LEVELS
        per_worker = SHALLOW_STEMS_PER_WORKER if shallow else STEMS_PER_WORKER
        if len(parts) >= per_worker * processes:
            break
        depth += 1
        parts = list(_iter_admissible(depth, max(floors[:depth], default=0), parts, prune, floors[:depth]))
    return parts


def enumerate_admissible(
    spec: EnumSpec,
    *,
    prune: bool = True,
    workers: Workers | None = None,
    extend: Iterable[Sequence[int]] | None = None,
) -> Iterator[Basis]:
    """Yield every admissible basis of spec.length with range >= spec.min_range
    whose prefixes reach spec.floors, in lexicographic order.

    prune=False disables the five cuts (same stream, more work):

    - the counting cut;
    - the floor step;
    - the run bound;
    - the in-range cap;
    - the exact last-element step.

    The floors of the spec stay, as they define the stream.  With
    `workers` of more than one process, the stream is split at the stems
    that `_split` picks, those of the least depth d that gives enough
    jobs; the stems are walked in its pool and their results merge back
    in order.  Without, the stream is enumerated in this process.

    `extend`, partial bases of at most spec.length + 1 elements, is the
    way to walk below given stems: the result is then the extensions of
    each, in the order given, so lexicographic when they are sorted and
    of one length.  One that is not admissible or misses a floor extends
    to nothing.  They are walked in this process, whatever `workers`; a
    basis of length spec.length - 1 only takes the exact last-element
    step.
    """
    if extend is not None or workers is None or workers.processes <= 1 or spec.length <= 2:
        # the serial walk is the walk below the root stem (0,)
        starts = ((0,),) if extend is None else (_stem(b, spec.length) for b in extend)
        yield from _iter_admissible(spec.length, spec.min_range, starts, prune, spec.floors)
        return
    jobs = [(spec.length, spec.min_range, (stem,), prune, spec.floors) for stem in _split(spec, workers.processes, prune)]
    for chunk in workers.imap(_collect, jobs):
        yield from chunk
