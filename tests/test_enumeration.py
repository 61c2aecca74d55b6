"""Tests for the admissible-basis enumerator."""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addbasis.catalog import DEFAULT
from addbasis.core import basis_range, read_bases, sumset_bits
from addbasis.enumeration import EnumSpec, enumerate_admissible, save_enumeration, stems
from addbasis.oracle import all_admissible

bases = st.lists(
    st.integers(min_value=1, max_value=80), max_size=8, unique=True
).map(lambda xs: (0, *sorted(xs)))

# k -> number of admissible bases, pinned against the brute force
ADMISSIBLE_COUNTS = {1: 1, 2: 2, 3: 5, 4: 17, 5: 65, 6: 292, 7: 1434, 8: 7875}


@cache
def oracle_stream(length):
    return tuple(all_admissible(length))


@st.composite
def stem_specs(draw):
    """EnumSpec(L, T, stem) with L <= 7, a random admissible stem of up to
    L + 1 elements, and T up to just past the largest range n2(L)."""
    length = draw(st.integers(min_value=1, max_value=7))
    stem = (0,)
    for _ in range(draw(st.integers(min_value=0, max_value=length))):
        top = basis_range(stem) + 1
        stem += (draw(st.integers(min_value=stem[-1] + 1, max_value=top)),)
    top_range = DEFAULT.known_unrestricted_range(length)
    threshold = draw(st.integers(min_value=0, max_value=top_range + 2))
    return EnumSpec(length, threshold, stem)


def load(path):
    with open(path) as f:
        return read_bases(f, str(path))


class TestEnumSpec:
    def test_defaults(self):
        spec = EnumSpec(5)
        assert spec.min_range == 0 and spec.first_elements is None
        assert spec.stem == (0,)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            EnumSpec(0)

    def test_rejects_negative_range(self):
        with pytest.raises(ValueError):
            EnumSpec(3, -1)

    def test_accepts_valid_stem(self):
        spec = EnumSpec(5, 0, (0, 1, 3))
        assert spec.stem == (0, 1, 3)

    def test_normalizes_stem(self):
        assert EnumSpec(5, 0, [0, 1, 2]).first_elements == (0, 1, 2)

    def test_rejects_stem_not_starting_0_1(self):
        with pytest.raises(ValueError):
            EnumSpec(5, 0, (0, 2))

    def test_rejects_inadmissible_stem(self):
        # {0,1,3} has range 4, so 6 is out of reach
        with pytest.raises(ValueError, match="admissible"):
            EnumSpec(5, 0, (0, 1, 3, 6))

    def test_rejects_oversized_stem(self):
        with pytest.raises(ValueError, match="at most"):
            EnumSpec(2, 0, (0, 1, 2, 3))


class TestPartialState:
    """The DFS node state: element mask and sum coverage, built from scratch
    by core.sumset_bits at the stem, then updated once per element."""

    def test_from_elements(self):
        mask, bits = sumset_bits((0, 1, 3))
        assert mask == 0b1011
        # range = first gap - 1, as the walk computes it
        assert ((~bits) & (bits + 1)).bit_length() - 2 == 4

    @given(bases)
    def test_incremental_matches_scratch(self, basis):
        # the per-element update inside _iter_admissible
        mask, bits = sumset_bits((0,))
        for a in basis[1:]:
            mask = mask | (1 << a)
            bits = bits | (mask << a)
        assert (mask, bits) == sumset_bits(basis)

    def test_extend_rejects_nonincreasing(self):
        with pytest.raises(ValueError):
            EnumSpec(5, 0, (0, 1, 3, 2))

    def test_covered_count(self):
        _, bits = sumset_bits((0, 1))
        assert (bits & ((1 << 7) - 1)).bit_count() == 3


class TestNextCandidates:
    """A node's candidates, as the walk generates them: stems(len(node),
    node) extends the node by each admissible next element."""

    @staticmethod
    def candidates(node):
        return [s[-1] for s in stems(len(node), node)]

    def test_worked_example(self):
        assert self.candidates((0, 1, 3, 4)) == [5, 6, 7, 8, 9]

    def test_empty_for_inadmissible_partial(self):
        assert self.candidates((0, 2)) == []

    @given(bases)
    def test_candidates_keep_admissibility(self, basis):
        for a in self.candidates(basis):
            extended = basis + (a,)
            assert basis_range(extended) >= extended[-1]


class TestGapsPrune:
    """The counting cut on coverage gaps, as _iter_admissible runs it: a
    node may be dropped only when no completion reaches the range target."""

    def test_survivable_node(self):
        # {0,1,2,3} reaches range 6, so the cut must keep the node (0, 1)
        assert (0, 1, 2, 3) in list(enumerate_admissible(EnumSpec(3, 6, (0, 1))))

    def test_hopeless_node(self):
        # one more element after (0, 1, 2) cannot cover [0, 12]
        spec = EnumSpec(3, 12, (0, 1, 2))
        assert list(enumerate_admissible(spec)) == []
        assert list(enumerate_admissible(spec, prune=False)) == []

    @settings(max_examples=300)
    @given(stem_specs())
    def test_never_cuts_a_reachable_target(self, spec):
        # soundness and completeness of the production walk below any stem:
        # exactly the oracle's bases with that stem and range >= T
        stem = spec.stem
        expected = [
            b for b in oracle_stream(spec.length)
            if b[: len(stem)] == stem and basis_range(b) >= spec.min_range
        ]
        assert list(enumerate_admissible(spec)) == expected


class TestEnumerate:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_matches_oracle_at_every_threshold(self, k):
        reference = list(all_admissible(k))
        top = max(basis_range(b) for b in reference)
        for threshold in range(top + 2):
            expected = [b for b in reference if basis_range(b) >= threshold]
            got = list(enumerate_admissible(EnumSpec(k, threshold)))
            assert got == expected

    def test_lexicographic_order(self):
        out = list(enumerate_admissible(EnumSpec(6, 14)))
        assert out == sorted(out)

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    def test_prune_does_not_change_the_stream(self, k):
        # prune=False tries every final element, so this pins the exact
        # last-element step as well as the counting cut
        for threshold in range(DEFAULT.known_unrestricted_range(k) + 3):
            with_prune = list(enumerate_admissible(EnumSpec(k, threshold), prune=True))
            without = list(enumerate_admissible(EnumSpec(k, threshold), prune=False))
            assert with_prune == without, threshold

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("short", [1, 2])
    def test_prune_does_not_change_short_stems(self, k, short):
        # stems one or two elements short of the k + 1 of a leaf enter the
        # last two levels directly, as the pool's deepened stems can
        for stem in stems(k - short):
            for threshold in range(DEFAULT.known_unrestricted_range(k) + 3):
                spec = EnumSpec(k, threshold, stem)
                got = list(enumerate_admissible(spec))
                assert got == list(enumerate_admissible(spec, prune=False)), (stem, threshold)

    @pytest.mark.parametrize("threshold,size", [(54, 4), (53, 5), (52, 35), (51, 56), (50, 213)])
    def test_descent_stream_sizes(self, threshold, size):
        # the five streams find_extremal_restricted(23) enumerates, 313 bases
        assert sum(1 for _ in enumerate_admissible(EnumSpec(11, threshold))) == size

    def test_stem_restricts_the_stream(self):
        spec = EnumSpec(6, 10)
        whole = list(enumerate_admissible(spec))
        part = list(enumerate_admissible(EnumSpec(6, 10, (0, 1, 2))))
        assert part == [b for b in whole if b[:3] == (0, 1, 2)]

    def test_complete_stem_is_a_leaf_check(self):
        basis = (0, 1, 3, 4)
        assert list(enumerate_admissible(EnumSpec(3, 8, basis))) == [basis]
        assert list(enumerate_admissible(EnumSpec(3, 9, basis))) == []

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_stem_partitions_are_complete_and_disjoint(self, depth):
        spec = EnumSpec(6, 12)
        whole = list(enumerate_admissible(spec))
        pieces = []
        for stem in stems(depth):
            pieces.extend(enumerate_admissible(EnumSpec(6, 12, stem)))
        assert sorted(pieces) == whole
        assert len(pieces) == len(set(pieces))

    def test_stems_small(self):
        assert stems(1) == [(0, 1)]
        assert stems(2) == [(0, 1, 2), (0, 1, 3)]

    def test_parallel_equals_serial(self):
        # the partition is built below the spec's own stem
        spec = EnumSpec(7, 16, (0, 1, 2))
        serial = list(enumerate_admissible(spec))
        parallel = list(enumerate_admissible(spec, processes=2))
        assert parallel == serial

    def test_parallel_auto_depth(self):
        spec = EnumSpec(6, 12)
        assert list(enumerate_admissible(spec, processes=2)) == list(enumerate_admissible(spec))


class TestCount:
    """Admissible counts, taken from the production stream itself."""

    @pytest.mark.parametrize("k,expected", sorted(ADMISSIBLE_COUNTS.items()))
    def test_pinned_counts(self, k, expected):
        assert sum(1 for _ in enumerate_admissible(EnumSpec(k))) == expected

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_count_equals_stream_length(self, k):
        # the oracle walks the same tree independently
        assert sum(1 for _ in enumerate_admissible(EnumSpec(k))) == len(oracle_stream(k))

    def test_parallel_count(self):
        stream = enumerate_admissible(EnumSpec(8), processes=2)
        assert sum(1 for _ in stream) == ADMISSIBLE_COUNTS[8]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EnumSpec(-1)


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        spec = EnumSpec(5, 10)
        expected = list(enumerate_admissible(spec))
        path = tmp_path / "stream.txt"
        count = save_enumeration(path, spec, enumerate_admissible(spec))
        assert count == len(expected)
        meta, bases = load(path)
        assert bases == expected
        assert meta["k"] == "5" and meta["min_range"] == "10"
        assert int(meta["count"]) == len(expected)
        assert "version" in meta

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.txt"
        assert save_enumeration(path, EnumSpec(3, 9), iter(())) == 0
        meta, bases = load(path)
        assert bases == [] and meta["count"] == "0"

    def test_interrupted_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "stream.txt"
        save_enumeration(path, EnumSpec(3), [(0, 1, 3, 4)])

        def broken():
            yield (0, 1, 2, 3)
            raise RuntimeError("stopped")

        with pytest.raises(RuntimeError):
            save_enumeration(path, EnumSpec(3), broken())
        # the complete earlier file survives and no temporary is left over
        assert load(path)[1] == [(0, 1, 3, 4)]
        assert [p.name for p in tmp_path.iterdir()] == ["stream.txt"]

    def test_count_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# k=3\n# min_range=0\n# count=2\n0 1 3 4\n")
        with pytest.raises(ValueError, match="count"):
            load(path)

    def test_bad_line_reported_with_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# k=3\n0 1 3 4\n0 3 1\n")
        with pytest.raises(ValueError, match="line 3"):
            load(path)
