"""Tests for the meet-in-the-middle search."""

import multiprocessing
import re
from functools import cache

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from addbasis import enumeration, mitm
from addbasis.catalog import DEFAULT, CatalogMissingError, CatalogTable, PrefixCache
from addbasis.core import basis_range, classify, mirror
from addbasis.enumeration import EnumSpec, Workers, enumerate_admissible
from addbasis.mitm import (
    SearchReport,
    SearchTarget,
    _certainly_empty,
    _level_streams,
    _schedule,
    find_extremal_restricted,
    search_restricted,
    upper_bound_restricted,
)
from addbasis.oracle import brute_force

K25_BASIS = (0, 1, 3, 4, 6, 10, 13, 15, 21, 29, 37, 45, 53,
             61, 69, 77, 85, 93, 99, 101, 104, 108, 110, 111, 113, 114)


def naive_gluing(n, prefixes, suffixes):
    """Every gluing of a prefix to a mirrored suffix, trying all pairs: the
    suffix is un-mirrored about n/2, and p + r is kept when it is strictly
    increasing and its sums cover [0, n].  Sorted, duplicates kept."""
    half = n // 2
    full = (1 << (n + 1)) - 1
    found = []
    for p in prefixes:
        for b in suffixes:
            q = p + tuple(half - x for x in reversed(b))
            if any(x >= y for x, y in zip(q, q[1:])):
                continue
            mask = sums = 0
            for x in q:
                mask |= 1 << x
                sums |= mask << x
            if sums & full == full:
                found.append(q)
    return sorted(found)


@cache
def stream(length, min_range):
    return tuple(enumerate_admissible(EnumSpec(length, min_range)))


def descent_levels(k, pivots):
    """Every (n, pivot) the descent for k can visit: each even n from the
    pairing upper bound down to n2*(k), at each pivot given."""
    for pivot in pivots:
        for n in range(upper_bound_restricted(k), DEFAULT.known_restricted_range(k) - 1, -2):
            yield SearchTarget.create(k, n, pivot)


@st.composite
def admissible(draw, length, top):
    """A random admissible basis of `length` + 1 elements, each next element
    in [last + 1, range + 1]; `top` caps the draws where it can."""
    basis = (0,)
    for _ in range(length):
        hi = max(basis[-1] + 1, min(basis_range(basis) + 1, top))
        basis += (draw(st.integers(min_value=basis[-1] + 1, max_value=hi)),)
    return basis


@st.composite
def glue_inputs(draw):
    """(target, prefixes, suffixes) with streams of random admissible bases.
    Suffix draws may reach n/2 or beyond (records the scan drops), and
    either stream may be empty."""
    i = draw(st.integers(min_value=1, max_value=5))
    j = draw(st.integers(min_value=1, max_value=5))
    k = i + j + 1
    n = draw(st.integers(min_value=1, max_value=upper_bound_restricted(k) // 2)) * 2
    half = n // 2
    prefixes = draw(st.lists(admissible(i, top=half), max_size=12))
    suffixes = draw(st.lists(admissible(j, top=half + 2), max_size=12))
    return SearchTarget.create(k, n, i), prefixes, suffixes


def level_lines(messages):
    """The per-level lines of a search log, with their seconds masked."""
    return [re.sub(r"\(\d+\.\d+s\)$", "(-s)", m) for m in messages if " prefixes, " in m]


def n2_floors(k, n):
    """floor[d] = n/2 - n2(k - 2 - d) - 2 for d = 1..k - 2, written out
    from the lemma, unclamped; a depth whose n2(k - 2 - d) is not on
    record is left out."""
    return {
        d: n // 2 - DEFAULT.unrestricted[k - 2 - d] - 2
        for d in range(1, k - 1)
        if k - 2 - d in DEFAULT.unrestricted
    }


class TestFloors:
    """The split bound at every depth: the per-depth floors of a target,
    the streams they give, and the published bases they must keep."""

    def test_floors_end_at_the_stream_bounds(self):
        for k in range(3, 42):
            for pivot in range(1, k - 1):
                try:
                    target = SearchTarget.create(k, DEFAULT.known_restricted_range(k), pivot)
                except CatalogMissingError:
                    continue
                i, j = target.pivot, target.suffix_length
                assert len(target.floors) == max(i, j)
                # the least ranges are the split bound at the pivot itself
                assert target.prefix_min_range == max(0, target.n // 2 - DEFAULT.unrestricted[j - 1] - 2)
                assert target.suffix_min_range == max(0, target.n // 2 - DEFAULT.unrestricted[i - 1] - 2)
                lemma = n2_floors(k, target.n)
                assert target.floors == tuple(max(0, lemma.get(d, 0)) for d in range(1, max(i, j) + 1))

    def test_streams_are_the_lemma(self):
        # the one statement of a stream, against the lemma written out: the
        # prefix of each depth d reaches floor[d], clamped at 0, and the
        # least range is the floor at the stream's own length
        for k in range(3, 42):
            n = DEFAULT.known_restricted_range(k)
            lemma = n2_floors(k, n)
            for pivot in range(1, k - 1) if k <= 13 else [None]:
                target = SearchTarget.create(k, n, pivot)
                for length in (target.pivot, target.suffix_length):
                    floors = tuple(max(0, lemma.get(d, 0)) for d in range(1, length + 1))
                    assert target.stream(length) == EnumSpec(length, floors[-1], floors=floors), (k, pivot, length)

    def test_published_bases_reach_their_floors(self, restricted_fixtures):
        # every prefix of every published basis up to k = 41, wherever n2
        # is on record; the fixtures are closed under mirroring, so this
        # covers the suffix streams too
        checks = 0
        for k, fixtures in restricted_fixtures.items():
            for f in fixtures:
                for d, floor in n2_floors(k, f.range).items():
                    assert basis_range(f.basis[: d + 1]) >= floor, (f.basis, d)
                    checks += 1
        assert checks == 942

    @pytest.mark.parametrize("k", range(3, 17))
    def test_descent_streams_are_the_filtered_plain_streams(self, k):
        # both streams of every level, every pivot up to k = 9, with prune
        # on and off and with 1 and 2 workers
        pivots = range(1, k - 1) if k <= 9 else [None]
        with Workers(2) as workers:
            for target in descent_levels(k, pivots):
                for length in (target.pivot, target.suffix_length):
                    spec = target.stream(length)
                    expected = [
                        b for b in stream(length, spec.min_range)
                        if all(basis_range(b[: d + 1]) >= f for d, f in enumerate(spec.floors, start=1))
                    ]
                    assert list(enumerate_admissible(spec)) == expected, (target, length)
                    assert list(enumerate_admissible(spec, prune=False)) == expected, (target, length)
                    assert list(enumerate_admissible(spec, workers=workers)) == expected, (target, length)

    @pytest.mark.parametrize("n,plain,floored", [(204, 4, 0), (202, 5, 0), (200, 35, 1), (198, 56, 3), (196, 213, 14)])
    def test_k23_descent_stream_sizes(self, n, plain, floored):
        target = SearchTarget.create(23, n)
        spec = target.stream(target.pivot)
        assert len(stream(spec.length, spec.min_range)) == plain
        assert sum(1 for _ in enumerate_admissible(spec)) == floored


class TestSearchTarget:
    def test_default_pivot_and_stream_bounds(self):
        target = SearchTarget.create(25, 228)
        assert target.pivot == 12 and target.suffix_length == 12
        assert target.prefix_min_range == 58
        assert target.suffix_min_range == 58

    def test_asymmetric_pivot(self):
        target = SearchTarget.create(10, 44, 5)
        assert target.suffix_length == 4
        # half - n2(j-1) - 2 and half - n2(i-1) - 2
        assert target.prefix_min_range == 22 - 8 - 2
        assert target.suffix_min_range == 22 - 12 - 2

    def test_bounds_clamped_at_zero(self):
        target = SearchTarget.create(10, 4)
        assert target.prefix_min_range == 0
        assert target.suffix_min_range == 0

    def test_rejects_odd_range(self):
        with pytest.raises(ValueError, match="even"):
            SearchTarget.create(10, 45)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            SearchTarget.create(2, 4)

    def test_rejects_pivot_out_of_range(self):
        with pytest.raises(ValueError, match="pivot"):
            SearchTarget.create(10, 44, 0)
        with pytest.raises(ValueError, match="pivot"):
            SearchTarget.create(10, 44, 9)

    def test_needs_catalog_values(self):
        with pytest.raises(CatalogMissingError):
            SearchTarget.create(60, 100)


class TestUpperBound:
    def test_small_values(self):
        assert upper_bound_restricted(3) == 8
        assert upper_bound_restricted(4) == 12
        assert upper_bound_restricted(25) == 240
        assert upper_bound_restricted(26) == 260

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            upper_bound_restricted(2)

    def test_dominates_the_catalog(self):
        for k in range(3, 42):
            assert upper_bound_restricted(k) >= DEFAULT.known_restricted_range(k)

    def test_is_even(self):
        # the descent walks the even levels down from the bound itself
        for k in range(3, 51):
            assert upper_bound_restricted(k) % 2 == 0


class TestAssemble:
    """Gluing one prefix to one mirrored suffix, through search_restricted
    with explicit one-basis streams: the suffix is un-mirrored about n/2
    and the glued candidate is kept only if it covers [0, n]."""

    @staticmethod
    def glue(k, n, prefix, mirrored_suffix):
        target = SearchTarget.create(k, n, len(prefix) - 1)
        return search_restricted(target, streams=([prefix], [mirrored_suffix])).bases

    def test_glues(self):
        assert self.glue(6, 16, (0, 1, 3), (0, 1, 3, 4)) == ((0, 1, 3, 4, 5, 7, 8),)

    def test_overlap_returns_none(self):
        # un-mirrored, the suffix starts at 4, the prefix's own top element;
        # the union (0, 1, 3, 4, 5, 7, 8) would cover [0, 16], yet a shared
        # element is no gluing
        assert self.glue(7, 16, (0, 1, 3, 4), (0, 1, 3, 4)) == ()

    def test_rejects_odd_range(self):
        with pytest.raises(ValueError, match="even"):
            SearchTarget.create(3, 5)

    def test_rejects_suffix_beyond_half(self):
        # a stream basis reaching n/2 un-mirrors to a set starting at 0
        assert self.glue(3, 16, (0, 1), (0, 9)) == ()
        assert self.glue(3, 16, (0, 1), (0, 8)) == ()

    def test_reassembles_the_k25_basis(self):
        half = 114
        prefix = K25_BASIS[:13]
        mirrored = tuple(half - x for x in reversed(K25_BASIS[13:]))
        assert self.glue(25, 228, prefix, mirrored) == (K25_BASIS,)


class TestSearch:
    def test_k10_finds_all_eight(self, restricted_fixtures):
        target = SearchTarget.create(10, 44)
        messages = []
        report = search_restricted(target, log=messages.append)
        assert set(report.bases) == {f.basis for f in restricted_fixtures[10]}
        assert report.count == 8
        assert report.bases == tuple(sorted(report.bases))
        # one log line per level, with the sizes of the streams it scanned
        prefixes, suffixes = _level_streams(target)
        assert prefixes and suffixes
        assert re.fullmatch(
            rf"k=10 n=44 pivot=5: {len(prefixes)} prefixes, {len(suffixes)} suffixes, 8 bases \(\d+\.\d\ds\)",
            "\n".join(messages),
        )

    def test_k10_range46_is_empty(self):
        report = search_restricted(SearchTarget.create(10, 46))
        assert report.bases == ()

    def test_found_bases_are_restricted(self):
        report = search_restricted(SearchTarget.create(9, 40))
        for cls in map(classify, report.bases):
            assert cls.restricted
            assert cls.range == 40

    def test_mirror_closure(self):
        report = search_restricted(SearchTarget.create(10, 44))
        found = set(report.bases)
        for basis in found:
            assert mirror(basis, basis[-1]) in found

    def test_mirror_pairs_grouping(self, restricted_fixtures):
        report = search_restricted(SearchTarget.create(10, 44))
        groups = report.mirror_pairs()
        singles = [g for g in groups if len(g) == 1]
        pairs = [g for g in groups if len(g) == 2]
        assert len(singles) == 4 and len(pairs) == 2
        symmetric = {f.basis for f in restricted_fixtures[10] if f.symmetric}
        assert {g[0] for g in singles} == symmetric
        for a, b in pairs:
            assert mirror(a, a[-1]) == b and a < b

    def test_explicit_streams_match_enumerated(self):
        target = SearchTarget.create(9, 40)
        auto = search_restricted(target)
        prefixes = list(enumerate_admissible(EnumSpec(target.pivot, target.prefix_min_range)))
        suffixes = list(
            enumerate_admissible(EnumSpec(target.suffix_length, target.suffix_min_range))
        )
        seeded = search_restricted(target, streams=(prefixes, suffixes))
        assert seeded == auto

    def test_pivot_changes_streams_not_results(self):
        default = search_restricted(SearchTarget.create(10, 44))
        for pivot in range(1, 9):
            report = search_restricted(SearchTarget.create(10, 44, pivot))
            assert report.bases == default.bases, f"pivot {pivot}"

    def test_parallel_equals_serial(self):
        # 2 workers enumerate both streams in a process pool; the pair
        # scan runs in this process either way
        target = SearchTarget.create(10, 44)
        serial = search_restricted(target)
        with Workers(2) as workers:
            parallel = search_restricted(target, workers=workers)
        assert parallel == serial

    def test_prune_off_equals_on(self):
        # the search depends only on its streams: unpruned streams fed in
        # give the same report as the pruned ones it enumerates itself
        target = SearchTarget.create(9, 40)
        prefixes = list(
            enumerate_admissible(EnumSpec(target.pivot, target.prefix_min_range), prune=False)
        )
        suffixes = list(
            enumerate_admissible(EnumSpec(target.suffix_length, target.suffix_min_range), prune=False)
        )
        unpruned = search_restricted(target, streams=(prefixes, suffixes))
        assert unpruned == search_restricted(target)
        assert unpruned.bases

    def test_cache_round(self, tmp_path):
        target = SearchTarget.create(9, 40)
        cache = PrefixCache(tmp_path)
        cold = search_restricted(target, cache=cache)
        spec = target.stream(target.pivot)
        stored = cache.load(spec.length, spec.min_range, spec.floors)
        assert stored and stored == _level_streams(target)[0]
        messages = []
        warm = search_restricted(target, cache=cache, log=messages.append)
        assert warm == cold
        assert any("cache hit" in m for m in messages)


def one_longer_levels(k, pivots):
    """The descent levels of k at the given pivots whose streams differ
    in length by one element, as (target, shorter, longer), each stream
    the target's EnumSpec of its length."""
    for target in descent_levels(k, pivots):
        i, j = target.pivot, target.suffix_length
        if abs(i - j) == 1:
            yield target, target.stream(min(i, j)), target.stream(max(i, j))


class TestExtension:
    """The longer stream of a level, extended by one element from the
    shorter one, against direct enumeration of the same EnumSpec: the
    shorter stream's min_range is the longer one's floor at its depth,
    so every longer basis begins with a shorter one."""

    @staticmethod
    def check(k, pivots, workers=None, prune=True):
        levels = 0
        for target, short_spec, long_spec in one_longer_levels(k, pivots):
            assert long_spec.floors[short_spec.length - 1] == short_spec.min_range
            short = list(enumerate_admissible(short_spec, prune=prune, workers=workers))
            extended = list(enumerate_admissible(long_spec, prune=prune, extend=short))
            assert extended == list(enumerate_admissible(long_spec)), target
            levels += 1
        return levels

    @pytest.mark.parametrize("k", range(4, 25, 2))
    def test_every_even_descent_level(self, k):
        assert self.check(k, [None]) > 0

    @pytest.mark.parametrize("k", range(4, 14))
    def test_every_one_longer_pivot(self, k):
        # |i - j| = 1 needs an even k: pivots k/2 and k/2 - 1
        pivots = [p for p in range(1, k - 1) if abs(2 * p - (k - 1)) == 1]
        assert (len(pivots) == 2) == (k % 2 == 0)
        with Workers(2) as workers:
            levels = self.check(k, pivots) + self.check(k, pivots, workers)
        assert (levels > 0) == (k % 2 == 0)

    @pytest.mark.parametrize("k", range(4, 13, 2))
    def test_prune_off(self, k):
        assert self.check(k, [None], prune=False) > 0

    @pytest.mark.parametrize("k", range(4, 14))
    def test_search_equals_direct_streams(self, k):
        # search_restricted extends the longer stream itself; the direct
        # streams passed in give the same report, and they are the streams
        # that _level_streams makes
        for pivot in range(1, k - 1):
            for target in descent_levels(k, [pivot]):
                prefixes = list(enumerate_admissible(target.stream(target.pivot)))
                suffixes = list(enumerate_admissible(target.stream(target.suffix_length)))
                direct = search_restricted(target, streams=(prefixes, suffixes))
                assert search_restricted(target) == direct, target
                assert _level_streams(target) == (prefixes, suffixes), target

    def test_empty_shorter_stream_walks_no_node(self, monkeypatch):
        # k = 12, n = 68: both floored streams are empty, so the longer
        # (6, .) stream is extended from no stem at all
        target = SearchTarget.create(12, 68)
        assert (target.pivot, target.suffix_length) == (6, 5)
        assert _level_streams(target) == ([], [])
        walked = []
        real = enumeration._iter_admissible

        def spy(length, min_range, starts, prune, floors=()):
            starts = list(starts)
            walked.append((length, len(starts)))
            return real(length, min_range, starts, prune, floors)

        monkeypatch.setattr(enumeration, "_iter_admissible", spy)
        assert search_restricted(target).bases == ()
        assert walked == [(5, 1), (6, 0)]


class TestExtensionCache:
    """A cache that holds only one of the two streams of a level whose
    streams differ by one element gives the report of a cold search, and
    streams given as a pair are used as they are."""

    TARGET = SearchTarget.create(12, 64)
    SHORT, LONG = TARGET.stream(5), TARGET.stream(6)

    @pytest.fixture
    def enum_calls(self, monkeypatch):
        """The specs of the streams the search enumerates, in order, and
        whether each was extended."""
        calls = []
        real = mitm.enumerate_admissible

        def spy(spec, **kwargs):
            calls.append((spec.length, kwargs.get("extend") is not None))
            return real(spec, **kwargs)

        monkeypatch.setattr(mitm, "enumerate_admissible", spy)
        return calls

    def test_shorter_stream_cached(self, tmp_path, enum_calls):
        cold = search_restricted(self.TARGET)
        enum_calls.clear()
        cache = PrefixCache(tmp_path)
        short = self.SHORT
        cache.store(short.length, short.min_range, enumerate_admissible(short), short.floors)
        assert search_restricted(self.TARGET, cache=cache) == cold
        assert enum_calls == [(6, True)]
        # the extended stream is stored under its floored key
        long = self.LONG
        assert cache.path_for(long.length, long.min_range, long.floors).exists()
        assert cache.load(long.length, long.min_range, long.floors) == list(enumerate_admissible(long))

    @pytest.mark.parametrize("floored", [True, False])
    def test_longer_stream_cached(self, tmp_path, enum_calls, floored):
        cold = search_restricted(self.TARGET)
        enum_calls.clear()
        cache = PrefixCache(tmp_path)
        length, min_range, floors = self.LONG.length, self.LONG.min_range, self.LONG.floors
        if floored:
            cache.store(length, min_range, enumerate_admissible(self.LONG), floors)
        else:
            cache.store(length, min_range, enumerate_admissible(EnumSpec(length, min_range)))
        messages = []
        assert search_restricted(self.TARGET, cache=cache, log=messages.append) == cold
        # the hit is used as it is: only the shorter stream is enumerated
        assert enum_calls == [(5, False)]
        assert any(f"bases of length {length}" in m and "cache hit" in m for m in messages)

    def test_given_streams_are_not_enumerated(self, enum_calls):
        # plain streams, without the floors, given as the pair: the search
        # scans them as they are and enumerates nothing
        cold = search_restricted(self.TARGET)
        enum_calls.clear()
        plain = tuple(
            list(enumerate_admissible(EnumSpec(spec.length, spec.min_range))) for spec in (self.LONG, self.SHORT)
        )
        assert search_restricted(self.TARGET, streams=plain) == cold
        assert enum_calls == []


class TestPairScan:
    """The indexed pair scan against a naive all-pairs gluing, on the
    streams each descent level enumerates and on random streams."""

    @staticmethod
    def check(target, prefixes, suffixes):
        report = search_restricted(target, streams=(prefixes, suffixes))
        assert list(report.bases) == naive_gluing(target.n, prefixes, suffixes), target

    @pytest.mark.parametrize("k", range(3, 20))
    def test_every_level_equals_naive_gluing(self, k):
        # every pivot up to k = 11, the default pivot above
        pivots = range(1, k - 1) if k <= 11 else [None]
        for target in descent_levels(k, pivots):
            self.check(
                target,
                stream(target.pivot, target.prefix_min_range),
                stream(target.suffix_length, target.suffix_min_range),
            )

    # (0, 1, 3, 4) covers [0, 8] by itself: first gap 9 > n
    @example((SearchTarget.create(6, 8, 3), [(0, 1, 3, 4), (0, 1, 2, 3)], [(0, 1, 2), (0, 1, 3)]))
    # both suffixes reach n/2 = 3, so the scan drops both records
    @example((SearchTarget.create(4, 6, 1), [(0, 1)], [(0, 1, 2), (0, 1, 3)]))
    # each of the four pairs glues, e.g. (0, 1, 3) + (4, 5, 7, 8)
    @example((SearchTarget.create(6, 16, 2), [(0, 1, 3), (0, 1, 2)], [(0, 1, 3, 4), (0, 1, 2, 4)]))
    @example((SearchTarget.create(6, 16, 2), [], [(0, 1, 3, 4)]))
    @example((SearchTarget.create(6, 16, 2), [(0, 1, 3)], []))
    @given(glue_inputs())
    def test_random_streams_equal_naive_gluing(self, inputs):
        self.check(*inputs)


class TestFindExtremal:
    @pytest.mark.parametrize("k", range(3, 10))
    def test_matches_oracle(self, k):
        report = find_extremal_restricted(k)
        reference = brute_force(k)
        assert report.n == reference.n2_restricted
        assert report.bases == reference.extremal_restricted

    def test_k11_has_two_bases(self, restricted_fixtures):
        report = find_extremal_restricted(11)
        assert report.n == 54
        assert set(report.bases) == {f.basis for f in restricted_fixtures[11]}

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            find_extremal_restricted(2)

    @pytest.mark.long
    @pytest.mark.parametrize("k", range(31, 38))
    def test_record_lengths_31_to_37(self, k, restricted_fixtures):
        # serial, seconds to minutes each: k = 37 is the longest
        report = find_extremal_restricted(k)
        assert report.n == restricted_fixtures[k][0].range
        assert report.bases == tuple(sorted(f.basis for f in restricted_fixtures[k]))

    def test_logs_progress(self):
        messages = []
        find_extremal_restricted(6, log=messages.append)
        assert any("prefixes" in m for m in messages)

    def test_infeasible_levels_detected(self):
        # a pivot-1 split at k=9 forces the length-7 suffix stream past
        # n2(7) = 26 once n is large enough
        assert _certainly_empty(SearchTarget.create(9, 80, 1), DEFAULT)
        assert not _certainly_empty(SearchTarget.create(9, 40, 1), DEFAULT)

    @pytest.mark.parametrize("k,checked,n2,filtered", [
        (20, [164, 162, 160], 152, "160..154"),
        (26, [260, 258, 256], 244, "256..246"),
    ], ids=["k20", "k26"])
    def test_descent_starts_at_the_first_feasible_level(self, k, checked, n2, filtered, monkeypatch):
        # the only lengths up to 50 whose top levels the catalog rules out:
        # they are tested once, before any level is scanned
        events = []
        certainly_empty, search = mitm._certainly_empty, mitm.search_restricted

        def empty_spy(target, table):
            events.append(target.n)
            return certainly_empty(target, table)

        def search_spy(target, **kwargs):
            events.append("scan")
            return search(target, **kwargs)

        monkeypatch.setattr(mitm, "_certainly_empty", empty_spy)
        monkeypatch.setattr(mitm, "search_restricted", search_spy)
        messages = []
        report = find_extremal_restricted(k, log=messages.append)
        assert report.n == n2
        assert events == checked + ["scan"] * ((checked[-1] - n2) // 2 + 1)
        assert messages[:2] == [f"k={k} n={n}: infeasible stream constraints, skipped" for n in checked[:2]]
        rounds = [m for m in messages if "streams enumerated" in m]
        assert len(rounds) == 1
        assert rounds[0].startswith(f"k={k}: streams enumerated at n={n2} (catalog hint, ")
        assert rounds[0].endswith(f"; n={filtered} filtered from them")


def stepwise_descent(k, pivot=None, table=DEFAULT, log=None):
    """The descent with each level's streams enumerated directly, top
    down: the reference for the filtered one."""
    bound = upper_bound_restricted(k, table)
    for n in range(bound - bound % 2, 1, -2):
        target = SearchTarget.create(k, n, pivot, table)
        if not _certainly_empty(target, table):
            report = search_restricted(target, log=log)
            if report.bases:
                return report


class TestFilteredDescent:
    """The descent enumerates the streams of each round's base level and
    filters every higher level's streams from them; the floors only rise
    with n, so a filtered stream is the direct one."""

    @pytest.mark.parametrize("k", range(3, 25))
    def test_filtered_streams_equal_direct(self, k):
        # every level, filtered from the final one, at the default pivot
        # and at every pivot up to k = 13
        for pivot in range(1, k - 1) if k <= 13 else [None]:
            lower = _level_streams(SearchTarget.create(k, DEFAULT.known_restricted_range(k), pivot))
            for target in descent_levels(k, [pivot]):
                direct = tuple(
                    list(enumerate_admissible(target.stream(length)))
                    for length in (target.pivot, target.suffix_length)
                )
                assert _level_streams(target, lower=lower) == direct, target

    @pytest.mark.parametrize("k", [12, 17, 20, 23])
    @pytest.mark.parametrize("hint", [2, 6, 1000, -2, -8, 1, None], ids=str)
    def test_hint_does_not_change_the_report(self, k, hint):
        # too high, above the top level, too low, odd, and missing
        restricted = dict(DEFAULT.restricted)
        if hint is None:
            del restricted[k]
        else:
            restricted[k] += hint
        messages, expected_messages = [], []
        table = CatalogTable(DEFAULT.unrestricted, restricted)
        report = find_extremal_restricted(k, table=table, log=messages.append)
        expected = find_extremal_restricted(k, log=expected_messages.append)
        assert report == expected
        # every level is scanned with the same stream sizes
        assert level_lines(messages) == level_lines(expected_messages)

    @pytest.mark.parametrize("k", [3, 12, 23])
    def test_exact_hint_walks_only_the_base_level(self, k, monkeypatch):
        calls = []
        real = mitm.enumerate_admissible

        def spy(spec, **kwargs):
            calls.append((spec, kwargs.get("extend") is not None))
            return real(spec, **kwargs)

        monkeypatch.setattr(mitm, "enumerate_admissible", spy)
        report = find_extremal_restricted(k)
        base = SearchTarget.create(k, report.n)
        j = base.suffix_length
        # the shorter stream of the base level, or its one stream for odd k
        assert [spec for spec, extended in calls if not extended] == [base.stream(j)]
        levels = (upper_bound_restricted(k) - report.n) // 2 + 1
        assert len(calls) == levels * (1 if k % 2 else 2)

    @pytest.mark.parametrize("k", [*range(3, 25), 26])
    def test_equals_the_stepwise_descent(self, k):
        pivots = range(1, k - 1) if k <= 13 else [None]
        for pivot in pivots:
            messages, expected_messages = [], []
            report = find_extremal_restricted(k, pivot, log=messages.append)
            expected = stepwise_descent(k, pivot, log=expected_messages.append)
            assert report == expected, pivot
            # the same levels, scanned with the same stream sizes
            assert level_lines(messages) == level_lines(expected_messages), pivot

    @pytest.mark.parametrize("k", range(27, 30))
    def test_published_lengths_27_to_29(self, k, restricted_fixtures):
        # k = 11..26 and 30 are acceptance criteria 3 and 4
        report = find_extremal_restricted(k)
        assert report.n == restricted_fixtures[k][0].range
        assert report.bases == tuple(sorted(f.basis for f in restricted_fixtures[k]))

    @pytest.mark.parametrize("top,first", [(30, 20), (30, 30), (30, 2), (204, 196), (8, 8)])
    def test_rounds_cover_each_level_once(self, top, first):
        rounds = list(_schedule(top, first))
        assert [n for high, base in rounds for n in range(high, base - 1, -2)] == list(range(top, 1, -2))
        bases = [base for _, base in rounds]
        assert bases == [max(2, first - 2 ** (t + 1) + 2) for t in range(len(rounds))]

    def test_logs_each_base_level(self):
        messages = []
        find_extremal_restricted(23, log=messages.append)
        notes = [m for m in messages if "streams enumerated" in m]
        assert len(notes) == 1
        assert notes[0].startswith("k=23: streams enumerated at n=196 (catalog hint, ")
        assert notes[0].endswith("; n=204..198 filtered from them")


class TestOnePool:
    """At most one process pool per search, started only when a stream
    is enumerated, and gone when the search ends."""

    # the extremal level of k = 12: a length-6 prefix stream and a
    # different length-5 suffix stream
    TARGET = SearchTarget.create(12, 64)

    def test_descent_starts_one_pool(self, started_pools):
        # 3 levels, whose streams are filtered from those of the last; only
        # its shorter stream is walked, in the one pool
        find_extremal_restricted(12, processes=2)
        assert len(started_pools) == 1

    def test_serial_descent_starts_none(self, started_pools):
        find_extremal_restricted(12, processes=1)
        assert started_pools == []

    def test_level_starts_one_pool(self, started_pools):
        assert self.TARGET.pivot != self.TARGET.suffix_length
        with Workers(2) as workers:
            search_restricted(self.TARGET, workers=workers)
        assert len(started_pools) == 1

    def test_cached_level_starts_none(self, started_pools, tmp_path):
        # plain streams under the plain key: the search filters them by
        # its floors, so no stream is enumerated
        target = self.TARGET
        cache = PrefixCache(tmp_path)
        for length, min_range in (
            (target.pivot, target.prefix_min_range),
            (target.suffix_length, target.suffix_min_range),
        ):
            cache.store(length, min_range, enumerate_admissible(EnumSpec(length, min_range)))
        with Workers(2) as workers:
            report = search_restricted(target, workers=workers, cache=cache)
        assert started_pools == []
        assert report == search_restricted(target)

    def test_interrupted_descent_leaves_no_worker(self, started_pools):
        class Stop(Exception):
            pass

        levels = []

        def log(message):
            if "prefixes" in message:
                levels.append(message)
                if len(levels) == 2:
                    raise Stop

        with pytest.raises(Stop):
            find_extremal_restricted(12, processes=2, log=log)
        assert len(started_pools) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("k", range(8, 15))
    def test_parallel_descent_equals_serial(self, k):
        assert find_extremal_restricted(k, processes=2) == find_extremal_restricted(k)


class TestReportShape:
    def test_count_property(self):
        report = SearchReport(k=3, n=8, pivot=1, bases=((0, 1, 3, 4),))
        assert report.count == 1
