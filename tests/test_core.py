"""Unit and property tests for the sumset kernel and the text format."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from addbasis.core import (
    MAX_ELEMENT,
    BasisError,
    as_basis,
    basis_range,
    classify,
    format_basis,
    mirror,
    parse_basis,
    read_bases,
    sumset_bits,
)
from addbasis.enumeration import EnumSpec, save_enumeration
from addbasis.mitm import SearchTarget

bases = st.lists(
    st.integers(min_value=1, max_value=120), max_size=9, unique=True
).map(lambda xs: (0, *sorted(xs)))

int_sets = st.lists(
    st.integers(min_value=0, max_value=120), min_size=1, max_size=9, unique=True
).map(lambda xs: tuple(sorted(xs)))


class TestAsBasis:
    def test_accepts_valid(self):
        assert as_basis([0, 1, 3, 4]) == (0, 1, 3, 4)
        assert as_basis((0,)) == (0,)

    def test_rejects_empty(self):
        with pytest.raises(BasisError):
            as_basis([])

    def test_rejects_nonzero_start(self):
        with pytest.raises(BasisError, match="starts at 0"):
            as_basis([1, 2])

    def test_rejects_unsorted(self):
        with pytest.raises(BasisError, match="strictly increase"):
            as_basis([0, 3, 1])

    def test_rejects_duplicates(self):
        with pytest.raises(BasisError, match="strictly increase"):
            as_basis([0, 1, 1])

    def test_rejects_huge_element(self):
        with pytest.raises(BasisError, match="maximum"):
            as_basis([0, MAX_ELEMENT + 1])


class TestSumCoverage:
    """The sum coverage bit vector of sumset_bits, and the range that
    basis_range reads off it as the first gap."""

    def test_worked_example(self):
        _, bits = sumset_bits((0, 1, 3, 4))
        assert bits == (1 << 9) - 1  # every sum 0..8, and 8 = 2 * a_k is the top bit
        assert basis_range((0, 1, 3, 4)) == 8

    def test_gap(self):
        _, bits = sumset_bits((0, 1, 5))
        # missing 3 and 4: sums are 0,1,2,5,6,10
        assert basis_range((0, 1, 5)) == 2
        assert not (bits >> 3) & 1
        assert (bits >> 5) & 1

    def test_degenerate(self):
        assert sumset_bits((0,)) == (1, 1)
        assert basis_range((0,)) == 0

    def test_covered_count(self):
        # the DFS prune counts the covered sums in [0, T] as a popcount
        _, bits = sumset_bits((0, 1, 5))
        assert (bits & ((1 << 5) - 1)).bit_count() == 3
        assert (bits & ((1 << 11) - 1)).bit_count() == 6

    @given(int_sets)
    def test_sumset_bits_matches_definition(self, elems):
        # also for sets that do not start at 0, like un-mirrored suffixes
        mask, bits = sumset_bits(elems)
        assert mask == sum(1 << a for a in elems)
        sums = {a + b for a in elems for b in elems}
        assert bits == sum(1 << t for t in sums)

    @given(bases)
    def test_membership_matches_definition(self, basis):
        _, bits = sumset_bits(basis)
        elems = set(basis)
        sums = {a + b for a in elems for b in elems}
        assert {t for t in range(2 * basis[-1] + 1) if (bits >> t) & 1} == sums
        assert bits.bit_length() == 2 * basis[-1] + 1

    @given(bases)
    def test_range_is_first_gap(self, basis):
        _, bits = sumset_bits(basis)
        rng = basis_range(basis)
        assert all((bits >> t) & 1 for t in range(rng + 1))
        assert not (bits >> (rng + 1)) & 1


class TestRangeAndCovers:
    def test_range_examples(self):
        assert basis_range((0, 1)) == 2
        assert basis_range((0, 1, 3, 4)) == 8
        assert basis_range((0, 2)) == 0

    @staticmethod
    def covers(basis, n):
        # the full-mask test that the DFS leaves and the pair scan run
        full = (1 << (n + 1)) - 1
        return sumset_bits(basis)[1] & full == full

    def test_covers(self):
        assert self.covers((0, 1, 3, 4), 8)
        assert not self.covers((0, 1, 3, 4), 9)
        assert self.covers((0, 1, 3, 4), 0)

    def test_covers_rejects_negative(self):
        # a negative coverage target is refused where targets enter a search
        with pytest.raises(ValueError, match=">= 0"):
            SearchTarget.create(10, -2)
        with pytest.raises(ValueError):
            EnumSpec(3, -1)

    @given(bases)
    def test_covers_iff_within_range(self, basis):
        rng = basis_range(basis)
        if rng >= 0:
            assert self.covers(basis, rng)
        assert not self.covers(basis, rng + 1)


class TestMirror:
    def test_example(self):
        assert mirror((0, 1, 2, 5, 7), 7) == (0, 2, 5, 6, 7)

    def test_rejects_small_point(self):
        with pytest.raises(ValueError, match="below"):
            mirror((0, 5), 4)

    @given(int_sets, st.integers(min_value=0, max_value=40))
    def test_involution(self, elems, extra):
        b = max(elems) + extra
        assert mirror(mirror(elems, b), b) == elems

    @given(int_sets, st.integers(min_value=0, max_value=40))
    def test_coverage_reflects(self, elems, extra):
        b = max(elems) + extra
        image = mirror(elems, b)
        cov = sumset_bits(elems)[1]
        cov_image = sumset_bits(image)[1]
        width = 2 * b + 1
        assert int(f"{cov:0{width}b}"[::-1], 2) == cov_image


class TestClassify:
    def test_trivial_basis(self):
        cls = classify((0, 1))
        assert cls.admissible and cls.restricted and cls.symmetric
        assert cls.range == 2

    def test_restricted_symmetric(self):
        cls = classify((0, 1, 3, 4))
        assert cls.admissible and cls.restricted and cls.symmetric
        assert cls.range == 8

    def test_admissible_not_restricted(self):
        # range 46 > 24 = top element, but short of 2 * 24
        cls = classify((0, 1, 2, 5, 7, 11, 15, 19, 21, 22, 24))
        assert cls.admissible and not cls.restricted and not cls.symmetric
        assert cls.range == 46

    def test_inadmissible(self):
        cls = classify((0, 2))
        assert not cls.admissible and not cls.restricted
        assert cls.range == 0

    @given(bases)
    def test_restricted_implies_admissible(self, basis):
        cls = classify(basis)
        if cls.restricted:
            assert cls.admissible
        assert cls.range <= 2 * basis[-1]

    @given(bases)
    def test_symmetric_agrees_with_mirror(self, basis):
        cls = classify(basis)
        assert cls.symmetric == (mirror(basis, basis[-1]) == basis)


class TestTextForm:
    def test_format(self):
        assert format_basis((0, 1, 3, 4)) == "0 1 3 4"

    def test_parse(self):
        assert parse_basis("0 1 3 4") == (0, 1, 3, 4)

    @given(bases)
    def test_roundtrip(self, basis):
        assert parse_basis(format_basis(basis)) == basis

    def test_parse_rejects_unsorted(self):
        with pytest.raises(BasisError):
            parse_basis("0 3 1")

    def test_parse_rejects_nonzero_start(self):
        with pytest.raises(BasisError):
            parse_basis("1 2 3")

    def test_parse_rejects_junk(self):
        with pytest.raises(BasisError, match="non-integer"):
            parse_basis("0 1 x")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(BasisError, match="line 7"):
            parse_basis("0 2 1", lineno=7)

    def test_read_bases_skips_comments_and_reports_lines(self):
        good = io.StringIO("# header\n# k = 3\n0 1\n\n0 1 3 4\n")
        assert read_bases(good) == ({"k": "3"}, [(0, 1), (0, 1, 3, 4)])
        bad = io.StringIO("0 1\n0 3 1\n")
        with pytest.raises(BasisError, match="bad.txt: line 2"):
            read_bases(bad, "bad.txt")

    def test_read_bases_checks_count(self):
        assert read_bases(["# count=1", "0 1"]) == ({"count": "1"}, [(0, 1)])
        with pytest.raises(ValueError, match="s.txt: header count 2 but 1"):
            read_bases(["# count=2", "0 1"], "s.txt")
        for damaged in ("# count=", "# count=x"):
            with pytest.raises(ValueError, match="s.txt: header count .* not an integer"):
                read_bases([damaged, "0 1"], "s.txt")

    def test_write_bases(self, tmp_path):
        # the writer puts one formatted basis per line under its header
        path = tmp_path / "stream.txt"
        assert save_enumeration(path, EnumSpec(2), [(0, 1, 2), (0, 1, 3)]) == 2
        body = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        assert body == ["0 1 2", "0 1 3"]
