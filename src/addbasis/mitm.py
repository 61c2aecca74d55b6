"""Meet-in-the-middle search for restricted bases of a given range.

A restricted basis of range n has top element exactly n/2, and both of
its halves are forced to carry ranges of their own.  Split it after a_d:
if the suffix part {a_{d+1}, ..., a_k} is to help cover the top of
[0, n], the prefix A_d = {a_0, ..., a_d} must already cover [0, floor[d]]
by itself, where

    floor[d] = n/2 - n2(k-2-d) - 2      (taken as 0 when negative, or
                                         when n2(k-2-d) is not on record)

for each depth d = 1..k-2, and symmetrically so must the depth-d prefix
of the mirror image of the suffix about a_k, which is again a basis
starting at 0.  This is the one rule of the search: SearchTarget.floors
holds floor[d] at index d - 1, and the stream of length L,
SearchTarget.stream(L), holds the admissible bases of length L whose prefix
of each depth d reaches floor[d], so its least range is floor[L].  So
instead of one depth-k search, split at the pivot i (j = k - 1 - i) and
enumerate two much shallower streams:

    prefixes  P: the stream of length i
    suffixes  B: the stream of length j

and glue every compatible pair P, R = (n/2) - B back together.  An even
split (i = j) has one stream for both halves.  Coverage of the glued
candidate is verified outright, so the bound quality only affects speed,
never correctness.  Mirroring the basis about a_k swaps the roles of the
two streams, which is why the mirror of a restricted basis is again
restricted and asymmetric solutions arrive in pairs.

The enumeration drops a partial basis as soon as it falls below the
floor of its depth, rather than only at a stream's last element.  This
is J. Kohonen's early pruning for the restricted postage stamp problem.
At n = 196 the k = 23 prefix stream (11, 50) keeps 14 of the 213 bases
of range >= 50.

The longer stream of a level extends the shorter one when they are one
element apart, as at the default pivot for even k.  Say the shorter
stream has length L.  Its least range is floor[L], the longer stream's
floor at depth L, and both share floor[1..L], so the first L + 1
elements of every basis of the longer stream are a basis of the shorter
one, and the longer stream is the shorter one with each basis extended
by one element, in the same order.  So the search makes the
shorter stream first and hands its bases to the enumeration as stems one
element short of a leaf, where only the exact last-element step runs;
the walk down to depth L is not repeated.  Streams that differ by more,
which only an explicit pivot gives, are both enumerated directly: at
k = 20, extending across more levels won at a length difference of 3 but
took up to 2.2 times the direct walk at differences of 5 to 9
(BENCH_16.json).  A search either takes both streams of its level as
given or makes both, so only a stream made with the floors is extended
from.

The pair scan picks a prefix's suffixes by the prefix's first gap.  A
suffix R can follow P only if min R > max P.  Let g be the first gap
of P + P.  Then g is not a sum of two elements of P (by definition)
and not a sum of two elements of R (2 min R >= 2 max P + 2 > g, as no
sum of P exceeds 2 max P).  So a gluing that covers g has g = a + b with
a in P and b in R: R must meet g - P.  An index from each value to the
suffixes that contain it yields exactly those suffixes, and each still
gets the full coverage check, so the filter drops only pairs that leave
g uncovered and the scan stays exact.

The extremal restricted range n2*(k) is found by walking n downward from
the pairing upper bound (n2* is even):

    n2*(2r)   <= 4 n2(r-1) + 4
    n2*(2r+1) <= 2 n2(r-1) + 2 n2(r) + 4

and the first level that holds a basis is extremal.  The walk starts
at the first level the catalog does not rule out.  A level is ruled out
when one of its streams has a least range above n2 of its length, and
the least ranges only rise with n, so the levels ruled out lie above
all the others: n = 164 and 162 at k = 20, n = 260 and 258 at k = 26,
and none at any other k up to 50 at the default pivot.

The descent enumerates the streams once, not at every level.  The floors
and both least ranges only rise with n, so a level's stream of a given
length holds that of every higher level with the same pivot, and
filtered by the higher level's floors and least range it is that
level's stream.  So the descent runs in rounds: a round enumerates the
streams of its base level, and every level from the top of the round
down to the base takes its streams by filtering them (each basis enters
the walk as a full-length stem, which takes only the root check).  The
first base is n2*(k) from the catalog, when it is on record, even and at
most the first feasible level, and else that level; later bases step
down by 2, 4, 8, ...: n0, n0 - 2, n0 - 6, n0 - 14, ...  At k = 23 the
descent walks the streams of n = 196 once and filters those of
n = 204..198 from them.  Every level is still scanned in turn from the
top, so the report does not depend on the catalog value: one too high
finds no basis down to it and steps on, and one too low costs only
time, since the true level lies above it.  The catalog comparison of
the `extremal` command stays an independent check.

The walk's root check is the one filter of a stream by its floors.  A
lower level's streams and a plain cache entry of the same (length,
min_range), such as an `enumerate --out` file, each hold a stream of
the level, which is cut from them by handing their bases to the walk
as stems (`enumerate_admissible(spec, extend=...)`); the catalog only
stores and loads entries.  The catalog's known values are read from
`catalog.DEFAULT`.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .catalog import DEFAULT, PrefixCache
from .core import MAX_ELEMENT, Basis, mirror, sumset_bits
from .enumeration import EnumSpec, Workers, enumerate_admissible

Log = Callable[[str], None]


@dataclass(frozen=True, slots=True)
class SearchTarget:
    """One meet-in-the-middle instance: length k, even range n, pivot i.

    floors[d - 1] is the forced range of a prefix of depth d, floor[d] of
    the module docstring, for d = 1..max(i, j), j = k - 1 - i being
    suffix_length.  The prefix stream is stream(i) and the suffix stream
    stream(j).
    """

    k: int
    n: int
    pivot: int
    floors: tuple[int, ...]

    def stream(self, length: int) -> EnumSpec:
        """The stream of `length`: its prefix of each depth d reaches
        floors[d - 1], and so its least range is floors[length - 1]."""
        return EnumSpec(length, self.floors[length - 1], floors=self.floors[:length])

    @property
    def suffix_length(self) -> int:
        return self.k - 1 - self.pivot

    @classmethod
    def create(cls, k: int, n: int, pivot: int | None = None) -> "SearchTarget":
        if k < 3:
            raise ValueError(f"meet-in-the-middle needs k >= 3, got {k}")
        if n < 0 or n % 2 != 0:
            raise ValueError(f"a restricted range is even and >= 0, got {n}")
        # no basis with elements up to MAX_ELEMENT has a larger range
        if n > 2 * MAX_ELEMENT:
            raise ValueError(
                f"n must be at most {2 * MAX_ELEMENT} (twice the supported maximum element), got {n}"
            )
        if pivot is None:
            pivot = k // 2
        if not 0 < pivot < k - 1:
            raise ValueError(f"pivot must satisfy 0 < pivot < {k - 1}, got {pivot}")
        j = k - 1 - pivot
        # the least ranges of the two streams, the floors at depths i and
        # j, need n2(j - 1) and n2(i - 1) on record
        DEFAULT.known_unrestricted_range(j - 1)
        DEFAULT.known_unrestricted_range(pivot - 1)
        half = n // 2
        n2 = DEFAULT.unrestricted
        return cls(
            k=k,
            n=n,
            pivot=pivot,
            # the split bound at every depth d; an n2 not on record bounds nothing
            floors=tuple(
                max(0, half - n2[k - 2 - d] - 2) if k - 2 - d in n2 else 0
                for d in range(1, max(pivot, j) + 1)
            ),
        )


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one search level: the instance and every basis found."""

    k: int
    n: int
    pivot: int
    bases: tuple[Basis, ...]

    @property
    def count(self) -> int:
        return len(self.bases)

    def mirror_pairs(self) -> list[tuple[Basis, ...]]:
        """Group the bases into mirror orbits: (b,) when self-mirrored
        (symmetric), else (b, mirror of b) in lexicographic order."""
        groups: list[tuple[Basis, ...]] = []
        seen: set[Basis] = set()
        for b in self.bases:
            if b in seen:
                continue
            m = mirror(b, b[-1])
            if m == b:
                groups.append((b,))
            else:
                groups.append((b, m) if b < m else (m, b))
                seen.add(m)
            seen.add(b)
        return groups


def upper_bound_restricted(k: int) -> int:
    """Pairing upper bound on n2*(k), from splitting a restricted basis
    at r = floor(k/2) and bounding both halves by n2."""
    if k < 3:
        raise ValueError(f"the bound needs k >= 3, got {k}")
    r = k // 2
    if k % 2 == 0:
        return 4 * DEFAULT.known_unrestricted_range(r - 1) + 4
    return 2 * DEFAULT.known_unrestricted_range(r - 1) + 2 * DEFAULT.known_unrestricted_range(r) + 4


def _suffix_records(suffixes: Iterable[Basis], half: int):
    """Precompute per-suffix data for the pair scan, sorted so that the
    records compatible with a given prefix form a front run.

    A stream basis whose top element reaches n/2 cannot be the mirror of
    any suffix (the un-mirrored minimum would not clear the prefix), so
    it is dropped here rather than crashing the shift below."""
    records = []
    for b in suffixes:
        if b[-1] >= half:
            continue
        r = tuple(half - x for x in reversed(b))
        records.append((r[0], r, *sumset_bits(r)))
    records.sort(key=lambda rec: (-rec[0], rec[1]))
    return records


def _prefix_records(prefixes: Iterable[Basis]):
    return [(p[-1], p, sumset_bits(p)[1]) for p in prefixes]


def _scan_pairs(args) -> list[Basis]:
    """All valid gluings of a prefix record to a suffix record.

    Only the front run of suffix records (minimum above the prefix's
    last element) can follow a prefix p.  Let g be the first gap of
    p + p.  A suffix r completes p only if it contains g - a for some a
    in p: g is not a sum within p by definition, nor within r, since
    2 r[0] >= 2 p[-1] + 2 > g.  So a prefix's candidates are the OR of
    the index masks over g - p, ANDed with the front run.  A prefix with
    g > n glues to nothing: p + p covers n, so 2 p[-1] >= n, and no
    suffix minimum exceeds n/2, so its front run is empty.  Every
    candidate is checked in full: cross sums are built by shifting the
    suffix's element mask by each prefix element, and the union of the
    three coverage vectors must equal [0, n].  The filter drops only
    suffixes that leave g uncovered, so the result is that of checking
    every pair of the front run."""
    prefix_records, suffix_records, full = args
    # value -> bitmask of the suffix records (by position) containing it
    index: dict[int, int] = {}
    for i, rec in enumerate(suffix_records):
        bit = 1 << i
        for x in rec[1]:
            index[x] = index.get(x, 0) | bit
    neg_minr = [-rec[0] for rec in suffix_records]

    found: list[Basis] = []
    for last, p, covp in prefix_records:
        front = (1 << bisect_left(neg_minr, -last)) - 1
        g = ((covp + 1) & ~covp).bit_length() - 1
        candidates = 0
        for a in p:
            candidates |= index.get(g - a, 0)
        candidates &= front
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            _, r, maskr, covr = suffix_records[low.bit_length() - 1]
            cross = 0
            for a in p:
                cross |= maskr << a
            if covp | covr | cross == full:
                found.append(p + r)
    return found


def _level_streams(
    target: SearchTarget,
    *,
    lower: tuple[Sequence[Basis], Sequence[Basis]] | None = None,
    workers: Workers | None = None,
    cache: PrefixCache | None = None,
    log: Log | None = None,
) -> tuple[Sequence[Basis], Sequence[Basis]]:
    """The prefix and suffix streams of a level, with its floors, made
    with one `enumerate_admissible` call per length.  An even split
    (i == j) has one length, so its two streams are one list.

    Each length L is made shortest first, as `target.stream(L)`, from
    the first source that applies:

    1. `lower`, the (prefixes, suffixes) of a lower level of the same k
       and pivot: the floors only rise with n, so its stream of length L
       holds this one, which is made by filtering it (its bases enter the
       walk as full-length stems, which take only the root check);
    2. a cache hit: the entry stored with the stream's floors, else the
       plain (L, floor at depth L) entry, such as an `enumerate --out`
       file, which holds the stream and is filtered as `lower` is;
    3. the stream of length L - 1 that this call made: its min_range is
       the floor at depth L - 1, so each basis of length L begins with
       one of its bases, and it is extended by one element in this
       process;
    4. a walk through `workers`.

    The streams of sources 3 and 4 are stored in the cache.
    """
    i, j = target.pivot, target.suffix_length
    made: dict[int, Sequence[Basis]] = {}
    for length in sorted({i, j}):
        spec = target.stream(length)
        if lower is not None:
            bases = list(enumerate_admissible(spec, extend=lower[0] if length == i else lower[1]))
        elif cache is not None and (
            (bases := cache.load(length, spec.min_range, spec.floors)) is not None
            or (plain := cache.load(length, spec.min_range)) is not None
        ):
            if bases is None:
                bases = list(enumerate_admissible(spec, extend=plain))
            if log:
                log(f"cache hit: {len(bases)} bases of length {length}, range >= {spec.min_range}")
        else:
            # one extended from the shorter stream is walked in this process
            bases = list(enumerate_admissible(spec, workers=workers, extend=made.get(length - 1)))
            if cache is not None:
                cache.store(length, spec.min_range, bases, spec.floors)
        made[length] = bases
    return made[i], made[j]


def search_restricted(
    target: SearchTarget,
    *,
    streams: tuple[Sequence[Basis], Sequence[Basis]] | None = None,
    workers: Workers | None = None,
    cache: PrefixCache | None = None,
    log: Log | None = None,
) -> SearchReport:
    """Find every restricted basis of length target.k and range target.n.

    `streams`, a (prefixes, suffixes) pair, is used exactly as given,
    with or without the floors, to seed from a prior run.  Without it,
    `_level_streams` makes both with the target's floors, consulting and
    feeding the cache when one is given, and `workers` spreads its walks
    from the root over its process pool.  The pair scan runs in this
    process.
    """
    t0 = time.perf_counter()
    if streams is None:
        streams = _level_streams(target, workers=workers, cache=cache, log=log)
    prefixes, suffixes = streams
    full = (1 << (target.n + 1)) - 1
    suffix_records = _suffix_records(suffixes, target.n // 2)
    prefix_records = _prefix_records(prefixes)

    found = _scan_pairs((prefix_records, suffix_records, full))
    if log:
        log(
            f"k={target.k} n={target.n} pivot={target.pivot}: {len(prefixes)} prefixes, "
            f"{len(suffixes)} suffixes, {len(found)} bases ({time.perf_counter() - t0:.2f}s)"
        )
    return SearchReport(k=target.k, n=target.n, pivot=target.pivot, bases=tuple(sorted(found)))


def _certainly_empty(target: SearchTarget) -> bool:
    """True when a stream's least range exceeds the known extremal range
    for its length, so the level cannot contain any basis."""
    n2 = DEFAULT.unrestricted
    return any(
        length in n2 and target.stream(length).min_range > n2[length]
        for length in (target.pivot, target.suffix_length)
    )


def _schedule(top: int, first: int) -> Iterator[tuple[int, int]]:
    """(high, base) per round of the descent, from the top level down to
    n = 2: the levels high, high - 2, ..., base are scanned from the
    streams of the base level.  The bases are first, first - 2,
    first - 6, first - 14, ..., so each round after the second covers
    twice the levels of the one before."""
    high, base = top, first
    while high >= 2:
        base = max(base, 2)
        yield high, base
        high, base = base - 2, 2 * base - first - 2


def find_extremal_restricted(
    k: int,
    pivot: int | None = None,
    *,
    processes: int = 1,
    cache: PrefixCache | None = None,
    log: Log | None = None,
) -> SearchReport:
    """Determine n2*(k) and all extremal restricted bases of length k.

    Walks even n downward from upper_bound_restricted(k); the first
    non-empty level is extremal.  The walk starts at the first level
    that `_certainly_empty` does not rule out: a stream's least range
    only rises with n, so once it fits under n2 of the stream's length
    it fits at every level below, and every level of every round is
    feasible.

    Each round of `_schedule` makes the streams of its base level
    before its first scan, and every higher level of the round filters
    them (`_level_streams` with `lower`).  The first base is n2*(k)
    from `catalog.DEFAULT.restricted` when that is even and at most the first
    feasible level, else that level.  A base that is too high only adds
    rounds, and one that is too low only costs time, so the report does
    not depend on the hint.  With processes > 1 the base streams
    enumerate in the pool of one `Workers`; the filters run in this
    process.
    """
    if k < 3:
        raise ValueError(f"extremal search needs k >= 3, got {k}")
    # even, as each of its terms is
    top = upper_bound_restricted(k)
    # the least ranges rise with n, so the levels the catalog rules out
    # lie above every other level
    while top >= 2 and _certainly_empty(SearchTarget.create(k, top, pivot)):
        if log:
            log(f"k={k} n={top}: infeasible stream constraints, skipped")
        top -= 2
    hint = DEFAULT.restricted.get(k)
    hinted = hint is not None and hint % 2 == 0 and hint <= top
    first = hint if hinted else top
    with Workers(processes) as workers:
        for high, base in _schedule(top, first):
            t0 = time.perf_counter()
            streams = _level_streams(
                SearchTarget.create(k, base, pivot), workers=workers, cache=cache, log=log
            )
            elapsed = time.perf_counter() - t0
            for n in range(high, base - 1, -2):
                target = SearchTarget.create(k, n, pivot)
                report = search_restricted(
                    target, streams=streams if n == base else _level_streams(target, lower=streams), log=log
                )
                if report.bases:
                    break
            if log:
                why = "catalog hint" if hinted and base == first else "doubling schedule"
                above = range(high, max(n, base + 2) - 1, -2)
                levels = f"n={above[0]}" if above else "no level"
                if len(above) > 1:
                    levels += f"..{above[-1]}"
                log(f"k={k}: streams enumerated at n={base} ({why}, {elapsed:.2f}s); "
                    f"{levels} filtered from them")
            if report.bases:
                return report
    raise RuntimeError(f"no restricted basis of length {k} found above range 2")
