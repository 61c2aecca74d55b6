"""Unit and property tests for the sumset kernel and the text format."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from addbasis.core import (
    MAX_ELEMENT,
    _Ints,
    BasisClass,
    BasisError,
    as_basis,
    atomic_write,
    basis_range,
    classify,
    format_basis,
    mirror,
    read_bases,
    sumset_bits,
    write_bases,
)
from addbasis.enumeration import EnumSpec
from addbasis.mitm import SearchTarget

bases = st.lists(
    st.integers(min_value=1, max_value=120), max_size=9, unique=True
).map(lambda xs: (0, *sorted(xs)))

int_sets = st.lists(
    st.integers(min_value=0, max_value=120), min_size=1, max_size=9, unique=True
).map(lambda xs: tuple(sorted(xs)))


@st.composite
def symmetric_bases(draw):
    """A basis closed under a -> top - a."""
    top = draw(st.integers(min_value=0, max_value=120))
    half = draw(st.lists(st.integers(min_value=0, max_value=top), max_size=5))
    return tuple(sorted({0, top, *half, *(top - a for a in half)}))


@st.composite
def spelled(draw, value):
    """A token that int() reads as value: a sign, leading zeros and "_"
    between digits, each drawn."""
    digits = str(abs(value))
    if len(digits) > 1 and draw(st.booleans()):
        cut = draw(st.integers(min_value=1, max_value=len(digits) - 1))
        digits = digits[:cut] + "_" + digits[cut:]
    digits = "0" * draw(st.integers(min_value=0, max_value=2)) + digits
    sign = "-" if value < 0 else draw(st.sampled_from(["", "", "+"]))
    return sign + digits


@st.composite
def spelled_line(draw, tokens):
    """tokens joined by runs of spaces and tabs, with optional padding."""
    seps = st.sampled_from([" ", " ", "  ", "\t", " \t "])
    line = draw(st.sampled_from(["", " ", "\t"]))
    for i, token in enumerate(tokens):
        line += (draw(seps) if i else "") + token
    return line + draw(st.sampled_from(["", " ", "\t"]))


def spelled_lines(values):
    """A line of the values' tokens, each value spelled by `spelled`."""
    return st.tuples(*[spelled(v) for v in values]).flatmap(spelled_line)


def reference_read(lines, name):
    """read_bases as the text format states it, line by line through
    as_basis: the bases, or the message of the BasisError it raises."""
    bases = []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            bases.append(as_basis(tokens))
        except BasisError as exc:
            return f"{name}: line {lineno}: {exc}"
        except ValueError:
            return f"{name}: line {lineno}: non-integer token in {line.strip()!r}"
    return bases


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

    @pytest.mark.parametrize(
        "basis, expected",
        [
            ((0, 1), BasisClass(admissible=True, restricted=True, symmetric=True, range=2)),
            ((0, 1, 3, 4), BasisClass(admissible=True, restricted=True, symmetric=True, range=8)),
            (
                (0, 1, 2, 5, 7, 11, 15, 19, 21, 22, 24),
                BasisClass(admissible=True, restricted=False, symmetric=False, range=46),
            ),
            ((0, 2), BasisClass(admissible=False, restricted=False, symmetric=True, range=0)),
        ],
    )
    def test_equals_record(self, basis, expected):
        # the worked examples above, compared as whole records
        assert classify(basis) == expected

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

    @given(st.one_of(bases, symmetric_bases(), st.integers(0, 120).map(lambda a: (0, a) if a else (0,))))
    def test_equals_first_principles(self, basis):
        # the set of pairwise sums, its first gap, and a_i + a_{k-i} == a_k
        top = basis[-1]
        sums = {a + b for a in basis for b in basis}
        rng = next(t for t in range(2 * top + 2) if t not in sums) - 1
        symmetric = all(basis[i] + basis[-1 - i] == top for i in range(len(basis)))
        assert classify(basis) == BasisClass(rng >= top, rng >= 2 * top, symmetric, rng)

    @given(symmetric_bases())
    def test_symmetric_bases(self, basis):
        assert classify(basis).symmetric


class TestTextForm:
    def test_format(self):
        assert format_basis((0, 1, 3, 4)) == "0 1 3 4"

    @given(st.lists(st.integers(min_value=0, max_value=MAX_ELEMENT), min_size=1, max_size=60))
    def test_format_equals_join(self, elements):
        expected = " ".join(map(str, elements))
        assert format_basis(elements) == expected
        assert format_basis(tuple(elements)) == expected

    def test_format_calls_str(self):
        # each element is written as str() writes it, whatever its type
        assert format_basis((0, 1.5, True, 7)) == "0 1.5 True 7"
        f = io.StringIO()
        write_bases(f, {}, [(0, 2.5)])
        assert f.getvalue() == "0 2.5\n# count=1\n"

    def test_parse(self):
        assert read_bases(["0 1 3 4"]) == ({}, [(0, 1, 3, 4)])

    @given(bases)
    def test_roundtrip(self, basis):
        assert read_bases([format_basis(basis)]) == ({}, [basis])

    def test_parse_rejects_unsorted(self):
        with pytest.raises(BasisError, match="got 3 then 1"):
            read_bases(["0 3 1"])

    def test_parse_rejects_nonzero_start(self):
        with pytest.raises(BasisError, match="starts at 0"):
            read_bases(["1 2 3"])

    def test_parse_rejects_junk(self):
        with pytest.raises(BasisError, match="non-integer"):
            read_bases(["0 1 x"])

    def test_parse_error_carries_line_number(self):
        with pytest.raises(BasisError, match="^s.txt: line 7: "):
            read_bases(["# k=2", "", "0 1", "0 1 2", "0 2", "0 1 3", "0 2 1"], "s.txt")

    def test_read_bases_skips_comments_and_reports_lines(self):
        good = io.StringIO("# header\n# k = 3\n0 1\n\n0 1 3 4\n")
        assert read_bases(good) == ({"k": "3"}, [(0, 1), (0, 1, 3, 4)])
        bad = io.StringIO("0 1\n0 3 1\n")
        with pytest.raises(BasisError, match="bad.txt: line 2"):
            read_bases(bad, "bad.txt")

    @pytest.mark.parametrize(
        "line, expected",
        [
            ("0 1 3 4", (0, 1, 3, 4)),
            ("  0\t1 3  4 ", (0, 1, 3, 4)),
            ("0", (0,)),
            ("0 +3 0_4 \uff15", (0, 3, 4, 5)),  # int() accepts a sign, "_" and full-width digits
            ("\uff10 1", (0, 1)),
            (f"0 1 {MAX_ELEMENT}", (0, 1, MAX_ELEMENT)),
            ("0 1 x", "bad.txt: line 4: non-integer token in '0 1 x'"),
            ("0 1.5 2", "bad.txt: line 4: non-integer token in '0 1.5 2'"),
            ("0 3 1 x", "bad.txt: line 4: non-integer token in '0 3 1 x'"),
            ("1 2 3", "bad.txt: line 4: a basis starts at 0, got 1"),
            ("-1 0 1", "bad.txt: line 4: a basis starts at 0, got -1"),
            ("0 1 1 2", "bad.txt: line 4: elements must strictly increase, got 1 then 1"),
            ("0 3 2", "bad.txt: line 4: elements must strictly increase, got 3 then 2"),
            ("0 1 -1", "bad.txt: line 4: elements must strictly increase, got 1 then -1"),
            ("0 1 4194305", "bad.txt: line 4: element 4194305 exceeds the supported maximum 4194304"),
            ("0 4194305 2", "bad.txt: line 4: elements must strictly increase, got 4194305 then 2"),
            # the same value spelled two ways, and a bad token repeated
            ("+0 01 1_0 12", (0, 1, 10, 12)),
            ("0 01 1 2", "bad.txt: line 4: elements must strictly increase, got 1 then 1"),
            ("0 1 2 x x", "bad.txt: line 4: non-integer token in '0 1 2 x x'"),
        ],
    )
    def test_read_bases_accepts_and_rejects(self, line, expected):
        # the line comes fourth, after a header line, a blank line and a good basis
        text = f"# k=3\n\n0 1 2\n{line}\n"
        if isinstance(expected, tuple):
            assert read_bases(io.StringIO(text), "bad.txt") == ({"k": "3"}, [(0, 1, 2), expected])
            assert as_basis(line.split()) == expected
        else:
            with pytest.raises(BasisError) as info:
                read_bases(io.StringIO(text), "bad.txt")
            assert str(info.value) == expected

    @given(st.lists(bases.flatmap(spelled_lines), max_size=8))
    def test_read_bases_equals_as_basis_per_line(self, lines):
        # repeated tokens, leading zeros, "+", "_", tabs and runs of spaces
        expected = [as_basis(line.split()) for line in lines]
        assert read_bases(lines) == ({}, expected)

    def test_token_memo_is_bounded(self):
        # a file that never repeats a token: the memo starts over when
        # full, and every line still reads as as_basis reads it
        lines = [f"0 {i} {i + 1}" for i in range(1, 2 * _Ints.LIMIT, 2)]
        assert read_bases(lines)[1] == [as_basis(line.split()) for line in lines]
        ints = _Ints()
        assert all(ints[str(i)] == i for i in range(_Ints.LIMIT + 3))
        assert len(ints) == 3

    @given(
        st.lists(
            st.one_of(
                st.lists(st.integers(min_value=-2, max_value=12), max_size=6).flatmap(spelled_lines),
                st.lists(
                    st.sampled_from(["0", "1", "3", "x", "1.5", "1__0", "_1", str(MAX_ELEMENT + 1)]), max_size=4
                ).map(" ".join),
                st.sampled_from(["# k=3", "#", ""]),
            ),
            max_size=8,
        )
    )
    def test_read_bases_equals_reference(self, lines):
        # the same bases, or for the first bad line the same message and line number
        expected = reference_read(lines, "s.txt")
        if isinstance(expected, str):
            with pytest.raises(BasisError) as info:
                read_bases(lines, "s.txt")
            assert str(info.value) == expected
        else:
            assert read_bases(lines, "s.txt")[1] == expected

    @given(
        st.lists(
            st.lists(st.integers(min_value=1, max_value=MAX_ELEMENT), max_size=12, unique=True).map(
                lambda xs: (0, *sorted(xs))
            ),
            max_size=8,
        )
    )
    def test_write_read_roundtrip(self, stream):
        f = io.StringIO()
        assert write_bases(f, {"k": 3, "min_range": 5}, stream) == len(stream)
        f.seek(0)
        meta, back = read_bases(f, "s.txt")
        assert meta == {"k": "3", "min_range": "5", "count": str(len(stream))}
        assert back == stream

    def test_read_bases_checks_count(self):
        assert read_bases(["# count=1", "0 1"]) == ({"count": "1"}, [(0, 1)])
        with pytest.raises(ValueError, match="s.txt: header count 2 but 1"):
            read_bases(["# count=2", "0 1"], "s.txt")
        for damaged in ("# count=", "# count=x"):
            with pytest.raises(ValueError, match="s.txt: header count .* not an integer"):
                read_bases([damaged, "0 1"], "s.txt")

    def test_write_bases(self):
        # header lines, one formatted basis per line, and the count last
        f = io.StringIO()
        assert write_bases(f, {"k": 2, "min_range": 0}, [(0, 1, 2), (0, 1, 3)]) == 2
        assert f.getvalue() == "# k=2\n# min_range=0\n0 1 2\n0 1 3\n# count=2\n"
        f.seek(0)
        assert read_bases(f) == ({"k": "2", "min_range": "0", "count": "2"}, [(0, 1, 2), (0, 1, 3)])

    def test_write_bases_count_in_header(self):
        # a header that states `count`, as a report's does, gets no second one
        f = io.StringIO()
        header = {"k": 2, "n": 4, "pivot": 1, "count": 2}
        assert write_bases(f, header, [(0, 1, 2), (0, 1, 3)]) == 2
        assert f.getvalue() == "# k=2\n# n=4\n# pivot=1\n# count=2\n0 1 2\n0 1 3\n"
        f.seek(0)
        assert read_bases(f) == ({"k": "2", "n": "4", "pivot": "1", "count": "2"}, [(0, 1, 2), (0, 1, 3)])

    def test_write_bases_mixed_lengths(self):
        # lengths 1, 5, 12, then 5 again: one line template per length
        f = io.StringIO()
        stream = [(0,), (0, 1, 3, 5, 6), tuple(range(12)), [0, 2, 3, 7, 9]]
        assert write_bases(f, {"k": "mixed"}, stream) == 4
        assert f.getvalue() == (
            "# k=mixed\n"
            "0\n"
            "0 1 3 5 6\n"
            "0 1 2 3 4 5 6 7 8 9 10 11\n"
            "0 2 3 7 9\n"
            "# count=4\n"
        )

    def test_atomic_write_follows_symlink(self, tmp_path):
        # the file a symlink names is replaced; the link stays a link
        (tmp_path / "real.txt").write_text("old\n")
        (tmp_path / "link.txt").symlink_to("real.txt")
        with atomic_write(tmp_path / "link.txt") as f:
            f.write("new\n")
        assert (tmp_path / "link.txt").is_symlink()
        assert (tmp_path / "real.txt").read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]
