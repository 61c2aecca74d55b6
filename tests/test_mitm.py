"""Tests for the meet-in-the-middle search."""

import pytest

from addbasis.catalog import DEFAULT, CatalogMissingError, PrefixCache
from addbasis.core import classify, mirror
from addbasis.enumeration import EnumSpec, enumerate_admissible
from addbasis.mitm import (
    SearchReport,
    SearchTarget,
    _certainly_empty,
    find_extremal_restricted,
    search_restricted,
    upper_bound_restricted,
)
from addbasis.oracle import brute_force

K25_BASIS = (0, 1, 3, 4, 6, 10, 13, 15, 21, 29, 37, 45, 53,
             61, 69, 77, 85, 93, 99, 101, 104, 108, 110, 111, 113, 114)


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


class TestAssemble:
    """Gluing one prefix to one mirrored suffix, through search_restricted
    with explicit one-basis streams: the suffix is un-mirrored about n/2
    and the glued candidate is kept only if it covers [0, n]."""

    @staticmethod
    def glue(k, n, prefix, mirrored_suffix):
        target = SearchTarget.create(k, n, len(prefix) - 1)
        return search_restricted(target, prefixes=[prefix], suffixes=[mirrored_suffix]).bases

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
        report = search_restricted(SearchTarget.create(10, 44))
        assert set(report.bases) == {f.basis for f in restricted_fixtures[10]}
        assert report.count == 8
        assert report.bases == tuple(sorted(report.bases))
        assert report.prefix_count and report.suffix_count and report.elapsed is not None

    def test_k10_range46_is_empty(self):
        report = search_restricted(SearchTarget.create(10, 46))
        assert report.bases == ()

    def test_found_bases_are_restricted(self):
        report = search_restricted(SearchTarget.create(9, 40))
        for cls in report.classifications():
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
        seeded = search_restricted(target, prefixes=prefixes, suffixes=suffixes)
        assert seeded == auto
        prefix_only = search_restricted(target, prefixes=prefixes)
        assert prefix_only == auto

    def test_pivot_changes_streams_not_results(self):
        default = search_restricted(SearchTarget.create(10, 44))
        for pivot in range(1, 9):
            report = search_restricted(SearchTarget.create(10, 44, pivot))
            assert report.bases == default.bases, f"pivot {pivot}"

    def test_parallel_equals_serial(self):
        target = SearchTarget.create(10, 44)
        serial = search_restricted(target)
        parallel = search_restricted(target, processes=2)
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
        unpruned = search_restricted(target, prefixes=prefixes, suffixes=suffixes)
        assert unpruned == search_restricted(target)
        assert unpruned.bases

    def test_cache_round(self, tmp_path):
        target = SearchTarget.create(9, 40)
        cache = PrefixCache(tmp_path)
        cold = search_restricted(target, cache=cache)
        stored = cache.load(target.pivot, target.prefix_min_range)
        assert stored is not None and len(stored) == cold.prefix_count
        messages = []
        warm = search_restricted(target, cache=cache, log=messages.append)
        assert warm == cold
        assert any("cache hit" in m for m in messages)


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

    def test_logs_progress(self):
        messages = []
        find_extremal_restricted(6, log=messages.append)
        assert any("prefixes" in m for m in messages)

    def test_infeasible_levels_detected(self):
        # a pivot-1 split at k=9 forces the length-7 suffix stream past
        # n2(7) = 26 once n is large enough
        assert _certainly_empty(SearchTarget.create(9, 80, 1), DEFAULT)
        assert not _certainly_empty(SearchTarget.create(9, 40, 1), DEFAULT)


class TestReportShape:
    def test_count_property(self):
        report = SearchReport(k=3, n=8, pivot=1, bases=((0, 1, 3, 4),))
        assert report.count == 1

    def test_equality_ignores_metadata(self):
        a = SearchReport(k=3, n=8, pivot=1, bases=(), elapsed=1.0, prefix_count=5)
        b = SearchReport(k=3, n=8, pivot=1, bases=(), elapsed=2.0, prefix_count=9)
        assert a == b
