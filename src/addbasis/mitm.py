"""Meet-in-the-middle search for restricted bases of a given range.

A restricted basis of range n has top element exactly n/2, and both of
its halves are forced to carry ranges of their own: if the suffix part
{a_{i+1}, ..., a_k} is to help cover the top of [0, n], the prefix
A_i = {a_0, ..., a_i} must already cover [0, a_k - n2(j-1) - 2] by
itself (j = k - 1 - i), and symmetrically the mirror image of the suffix
about a_k, which is again a basis starting at 0, must have range at
least a_k - n2(i-1) - 2.  So instead of one depth-k search, enumerate
two much shallower streams:

    prefixes  P: admissible, length i, range >= n/2 - n2(j-1) - 2
    suffixes  B: admissible, length j, range >= n/2 - n2(i-1) - 2

and glue every compatible pair P, R = (n/2) - B back together.  Coverage
of the glued candidate is verified outright, so the bound quality only
affects speed, never correctness.  Mirroring the basis about a_k swaps
the roles of the two streams, which is why the mirror of a restricted
basis is again restricted and asymmetric solutions arrive in pairs.

The extremal restricted range n2*(k) is found by walking n downward from
the pairing upper bound (n2* is even):

    n2*(2r)   <= 4 n2(r-1) + 4
    n2*(2r+1) <= 2 n2(r-1) + 2 n2(r) + 4

since the first empty level certifies every larger even n empty as well.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .catalog import DEFAULT, CatalogTable, PrefixCache
from .core import Basis, BasisClass, classify, mirror, sumset_bits
from .enumeration import EnumSpec, enumerate_admissible

Log = Callable[[str], None]


@dataclass(frozen=True, slots=True)
class SearchTarget:
    """One meet-in-the-middle instance: length k, even range n, pivot i.

    prefix_min_range / suffix_min_range are the forced ranges of the two
    streams (clamped at 0); suffix_length is j = k - 1 - pivot.
    """

    k: int
    n: int
    pivot: int
    suffix_length: int
    prefix_min_range: int
    suffix_min_range: int

    @classmethod
    def create(
        cls,
        k: int,
        n: int,
        pivot: int | None = None,
        table: CatalogTable = DEFAULT,
    ) -> "SearchTarget":
        if k < 3:
            raise ValueError(f"meet-in-the-middle needs k >= 3, got {k}")
        if n < 0 or n % 2 != 0:
            raise ValueError(f"a restricted range is even and >= 0, got {n}")
        if pivot is None:
            pivot = k // 2
        if not 0 < pivot < k - 1:
            raise ValueError(f"pivot must satisfy 0 < pivot < {k - 1}, got {pivot}")
        j = k - 1 - pivot
        half = n // 2
        return cls(
            k=k,
            n=n,
            pivot=pivot,
            suffix_length=j,
            prefix_min_range=max(0, half - table.known_unrestricted_range(j - 1) - 2),
            suffix_min_range=max(0, half - table.known_unrestricted_range(pivot - 1) - 2),
        )


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one search level: the instance and every basis found.

    prefix_count / suffix_count / elapsed are runtime metadata; they are
    not persisted by the report serialization.
    """

    k: int
    n: int
    pivot: int
    bases: tuple[Basis, ...]
    prefix_count: int | None = field(default=None, compare=False)
    suffix_count: int | None = field(default=None, compare=False)
    elapsed: float | None = field(default=None, compare=False)

    @property
    def count(self) -> int:
        return len(self.bases)

    def classifications(self) -> tuple[BasisClass, ...]:
        return tuple(classify(b) for b in self.bases)

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


def upper_bound_restricted(k: int, table: CatalogTable = DEFAULT) -> int:
    """Pairing upper bound on n2*(k), from splitting a restricted basis
    at r = floor(k/2) and bounding both halves by n2."""
    if k < 3:
        raise ValueError(f"the bound needs k >= 3, got {k}")
    r = k // 2
    if k % 2 == 0:
        return 4 * table.known_unrestricted_range(r - 1) + 4
    return 2 * table.known_unrestricted_range(r - 1) + 2 * table.known_unrestricted_range(r) + 4


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
    return [(p[-1], p, *sumset_bits(p)) for p in prefixes]


def _scan_pairs(args) -> list[Basis]:
    """All valid gluings between a block of prefixes and every suffix.

    A pair is checked exactly: cross sums are built by shifting one side's
    element mask by each element of the other side, and the union of the
    three coverage vectors must equal [0, n]."""
    prefix_block, suffix_records, full, shift_prefix = args
    found: list[Basis] = []
    for last, p, maskp, covp in prefix_block:
        for minr, r, maskr, covr in suffix_records:
            if minr <= last:
                break
            cross = 0
            if shift_prefix:
                for a in r:
                    cross |= maskp << a
            else:
                for a in p:
                    cross |= maskr << a
            if covp | covr | cross == full:
                found.append(p + r)
    return found


def search_restricted(
    target: SearchTarget,
    *,
    prefixes: Sequence[Basis] | None = None,
    suffixes: Sequence[Basis] | None = None,
    processes: int = 1,
    cache: PrefixCache | None = None,
    log: Log | None = None,
) -> SearchReport:
    """Find every restricted basis of length target.k and range target.n.

    The two streams are enumerated on demand (consulting / feeding the
    cache when one is given); pass prefixes/suffixes explicitly to seed
    from a prior run.  When the pivot splits evenly the prefix stream is
    reused as the suffix stream.
    """
    t0 = time.perf_counter()
    i, j = target.pivot, target.suffix_length
    half = target.n // 2

    def stream(length: int, min_range: int) -> list[Basis]:
        if cache is not None:
            hit = cache.load(length, min_range)
            if hit is not None:
                if log:
                    log(f"cache hit: {len(hit)} bases of length {length}, range >= {min_range}")
                return hit
        spec = EnumSpec(length, min_range)
        bases = list(enumerate_admissible(spec, processes=processes))
        if cache is not None:
            cache.store(length, min_range, bases)
        return bases

    if prefixes is None:
        prefixes = stream(i, target.prefix_min_range)
    if suffixes is None:
        if i == j:
            suffixes = prefixes
        else:
            suffixes = stream(j, target.suffix_min_range)
    if log:
        log(
            f"k={target.k} n={target.n} pivot={i}: "
            f"{len(prefixes)} prefixes, {len(suffixes)} suffixes"
        )

    full = (1 << (target.n + 1)) - 1
    suffix_records = _suffix_records(suffixes, half)
    prefix_records = _prefix_records(prefixes)
    # shift the mask of the longer side by the elements of the shorter
    shift_prefix = i + 1 <= j + 1

    if processes > 1 and len(prefix_records) > 1:
        chunk = (len(prefix_records) + processes - 1) // processes
        blocks = [prefix_records[o : o + chunk] for o in range(0, len(prefix_records), chunk)]
        jobs = [(block, suffix_records, full, shift_prefix) for block in blocks]
        with multiprocessing.Pool(processes) as pool:
            parts = pool.map(_scan_pairs, jobs)
        found = [basis for part in parts for basis in part]
    else:
        found = _scan_pairs((prefix_records, suffix_records, full, shift_prefix))

    report = SearchReport(
        k=target.k,
        n=target.n,
        pivot=i,
        bases=tuple(sorted(found)),
        prefix_count=len(prefixes),
        suffix_count=len(suffixes),
        elapsed=time.perf_counter() - t0,
    )
    if log:
        log(f"k={target.k} n={target.n}: {report.count} bases ({report.elapsed:.2f}s)")
    return report


def _certainly_empty(target: SearchTarget, table: CatalogTable) -> bool:
    """True when a stream's forced range exceeds the known extremal range
    for its length, so the level cannot contain any basis."""
    for length, min_range in (
        (target.pivot, target.prefix_min_range),
        (target.suffix_length, target.suffix_min_range),
    ):
        if length in table.unrestricted and min_range > table.unrestricted[length]:
            return True
    return False


def find_extremal_restricted(
    k: int,
    pivot: int | None = None,
    *,
    table: CatalogTable = DEFAULT,
    processes: int = 1,
    cache: PrefixCache | None = None,
    log: Log | None = None,
) -> SearchReport:
    """Determine n2*(k) and all extremal restricted bases of length k.

    Walks even n downward from upper_bound_restricted(k); the first
    non-empty level is extremal.  Levels whose stream constraints are
    impossible by the catalog are skipped without enumeration.
    """
    if k < 3:
        raise ValueError(f"extremal search needs k >= 3, got {k}")
    bound = upper_bound_restricted(k, table)
    for n in range(bound - bound % 2, 1, -2):
        target = SearchTarget.create(k, n, pivot, table)
        if _certainly_empty(target, table):
            if log:
                log(f"k={k} n={n}: infeasible stream constraints, skipped")
            continue
        report = search_restricted(
            target,
            processes=processes,
            cache=cache,
            log=log,
        )
        if report.bases:
            return report
    raise RuntimeError(f"no restricted basis of length {k} found above range 2")
