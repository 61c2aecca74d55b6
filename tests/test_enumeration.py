"""Tests for the admissible-basis enumerator."""

import multiprocessing
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addbasis.catalog import DEFAULT
from addbasis.core import MAX_ELEMENT, atomic_write, basis_range, read_bases, sumset_bits, write_bases
from addbasis.enumeration import EnumSpec, Workers, _floor_step, _split, enumerate_admissible
from addbasis.mitm import SearchTarget, upper_bound_restricted
from addbasis.oracle import all_admissible
from conftest import unpruned

bases = st.lists(
    st.integers(min_value=1, max_value=80), max_size=8, unique=True
).map(lambda xs: (0, *sorted(xs)))

# k -> number of admissible bases, pinned against the brute force
ADMISSIBLE_COUNTS = {1: 1, 2: 2, 3: 5, 4: 17, 5: 65, 6: 292, 7: 1434, 8: 7875}


@cache
def oracle_stream(length):
    return tuple(all_admissible(length))


def walked_stream(k):
    """The stream that the k descent walks at n2*(k): its shorter stream,
    with the floors of that level."""
    target = SearchTarget.create(k, DEFAULT.known_restricted_range(k))
    return target.stream(min(target.pivot, target.suffix_length))


@st.composite
def stem_specs(draw):
    """(EnumSpec(L, T), stem) with L <= 7, a random admissible stem of up
    to L + 1 elements, and T up to just past the largest range n2(L)."""
    length = draw(st.integers(min_value=1, max_value=7))
    stem = (0,)
    for _ in range(draw(st.integers(min_value=0, max_value=length))):
        top = basis_range(stem) + 1
        stem += (draw(st.integers(min_value=stem[-1] + 1, max_value=top)),)
    top_range = DEFAULT.known_unrestricted_range(length)
    threshold = draw(st.integers(min_value=0, max_value=top_range + 2))
    return EnumSpec(length, threshold), stem


def meets(basis, floors):
    """The floors by their definition: the prefix of each depth d has
    range >= floors[d - 1], by basis_range of the prefix."""
    return all(basis_range(basis[: d + 1]) >= f for d, f in enumerate(floors, start=1))


@st.composite
def floored_specs(draw):
    """A stem_specs (spec, stem) with a floor per depth, each drawn up to
    just past n2(d) and capped at T, in any order: a prefix can fail a
    shallow floor and pass every deeper one."""
    spec, stem = draw(stem_specs())
    floors = tuple(
        draw(st.integers(min_value=0, max_value=min(spec.min_range, DEFAULT.known_unrestricted_range(d) + 1)))
        for d in range(1, spec.length + 1)
    )
    return EnumSpec(spec.length, spec.min_range, floors=floors), stem


@st.composite
def shallow_floored_specs(draw):
    """A stem_specs (spec, stem) whose floors reach the first gap at the
    shallow depths: up to a depth of 1 to 3, floor[d] lies in
    [n2(d - 1) + 1, n2(d)] (capped at T), at or above the first gap of
    every prefix of depth d - 1, so the floor step runs at each node
    there; deeper floors as in floored_specs."""
    spec, stem = draw(stem_specs())
    shallow = draw(st.integers(min_value=1, max_value=min(3, spec.length)))
    floors = []
    for d in range(1, spec.length + 1):
        top = DEFAULT.known_unrestricted_range(d)
        if d <= shallow:
            floor = draw(st.integers(min_value=DEFAULT.known_unrestricted_range(d - 1) + 1, max_value=top))
        else:
            floor = draw(st.integers(min_value=0, max_value=top + 1))
        floors.append(min(spec.min_range, floor))
    return EnumSpec(spec.length, spec.min_range, floors=floors), stem


@st.composite
def admissible_partials(draw):
    """A random admissible partial basis of 1 to 9 elements."""
    basis = (0,)
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        basis += (draw(st.integers(min_value=basis[-1] + 1, max_value=basis_range(basis) + 1)),)
    return basis


def load(path):
    with open(path) as f:
        return read_bases(f, str(path))


def save(path, spec, bases):
    with atomic_write(path) as f:
        return write_bases(f, {"k": spec.length, "min_range": spec.min_range}, bases)


class TestEnumSpec:
    def test_defaults(self):
        spec = EnumSpec(5)
        assert spec.min_range == 0 and spec.floors == ()

    def test_floors_are_keyword_only(self):
        # a stem goes to enumerate_admissible(extend=...): one passed as a
        # third argument is not read as floors
        with pytest.raises(TypeError):
            EnumSpec(5, 0, (0, 1, 3))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            EnumSpec(0)

    def test_rejects_negative_range(self):
        with pytest.raises(ValueError):
            EnumSpec(3, -1)

    def test_rejects_range_above_twice_max_element(self):
        # no basis with elements up to MAX_ELEMENT reaches such a range
        with pytest.raises(ValueError, match=str(2 * MAX_ELEMENT)):
            EnumSpec(3, 2 * MAX_ELEMENT + 1)
        assert EnumSpec(3, 2 * MAX_ELEMENT).min_range == 2 * MAX_ELEMENT

    def test_floors_need_one_entry_per_depth(self):
        assert EnumSpec(3, 6, floors=[0, 2, 6]).floors == (0, 2, 6)
        # no floors, as a list too, name the plain stream
        assert EnumSpec(3, 6, floors=[]) == EnumSpec(3, 6)
        assert hash(EnumSpec(3, 6, floors=[])) == hash(EnumSpec(3, 6))
        with pytest.raises(ValueError, match="one per depth"):
            EnumSpec(3, 6, floors=(0, 6))

    def test_floors_stay_within_min_range(self):
        with pytest.raises(ValueError, match="between 0 and min_range 6"):
            EnumSpec(3, 6, floors=(0, 7, 6))
        with pytest.raises(ValueError, match="between 0 and min_range 6"):
            EnumSpec(3, 6, floors=(-1, 2, 6))


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
        with pytest.raises(ValueError, match="strictly increase"):
            list(enumerate_admissible(EnumSpec(5), extend=[(0, 1, 3, 2)]))

    def test_covered_count(self):
        _, bits = sumset_bits((0, 1))
        assert (bits & ((1 << 7) - 1)).bit_count() == 3


class TestNextCandidates:
    """A node's candidates, as the walk generates them: the stream of
    length len(node) below the node extends it by each admissible next
    element."""

    @staticmethod
    def candidates(node):
        return [s[-1] for s in enumerate_admissible(EnumSpec(len(node)), extend=[node])]

    def test_worked_example(self):
        assert self.candidates((0, 1, 3, 4)) == [5, 6, 7, 8, 9]

    def test_empty_for_inadmissible_partial(self):
        assert self.candidates((0, 2)) == []

    @pytest.mark.parametrize("node", [(0, 2), (0, 1, 2, 7), (0, 1, 3, 4, 12)])
    @pytest.mark.parametrize("extra", [-1, 0, 1, 3])
    def test_no_stems_below_an_inadmissible_node(self, node, extra):
        # the walk starts at the node's parent, whose first gap is below
        # the node's last element; at extra = -1 the node is full length
        # and gets the same check
        assert list(enumerate_admissible(EnumSpec(len(node) + extra), extend=[node])) == []

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
        assert (0, 1, 2, 3) in list(enumerate_admissible(EnumSpec(3, 6), extend=[(0, 1)]))

    def test_hopeless_node(self):
        # one more element after (0, 1, 2) cannot cover [0, 12]
        spec = EnumSpec(3, 12)
        assert list(enumerate_admissible(spec, extend=[(0, 1, 2)])) == []
        assert unpruned(spec, extend=[(0, 1, 2)]) == []

    @settings(max_examples=300)
    @given(stem_specs())
    def test_never_cuts_a_reachable_target(self, spec_stem):
        # soundness and completeness of the production walk below any stem:
        # exactly the oracle's bases with that stem and range >= T
        spec, stem = spec_stem
        expected = [
            b for b in oracle_stream(spec.length)
            if b[: len(stem)] == stem and basis_range(b) >= spec.min_range
        ]
        assert list(enumerate_admissible(spec, extend=[stem])) == expected


class TestFloors:
    """A floored stream is the plain stream filtered by its floors, below
    any stem, walked by the production walk and the unpruned reference."""

    # the prefix stream of SearchTarget.create(14, 80): no floor below
    # depth 4, then 6, 12, 18 and 22
    SPEC = EnumSpec(7, 22, floors=(0, 0, 0, 6, 12, 18, 22))

    @settings(max_examples=600)
    @given(st.one_of(floored_specs(), shallow_floored_specs()))
    def test_equals_the_filtered_oracle(self, spec_stem):
        spec, stem = spec_stem
        expected = [
            b for b in oracle_stream(spec.length)
            if b[: len(stem)] == stem and basis_range(b) >= spec.min_range and meets(b, spec.floors)
        ]
        assert list(enumerate_admissible(spec, extend=[stem])) == expected
        assert unpruned(spec, extend=[stem]) == expected

    def test_a_stem_below_a_shallow_floor_is_empty(self):
        # (0, 1, 3) has range 4 < 5, and (0, 1, 3, 4) range 8 >= 5: only
        # the check of the stem's own prefixes drops it
        floors = (0, 5, 5, 5, 10)
        plain, floored = EnumSpec(5, 10), EnumSpec(5, 10, floors=floors)
        assert list(enumerate_admissible(plain, extend=[(0, 1, 3, 4)])) != []
        assert list(enumerate_admissible(floored, extend=[(0, 1, 3, 4)])) == []
        assert list(enumerate_admissible(floored, extend=[(0, 1, 3, 4, 8)])) == []
        assert list(enumerate_admissible(floored, extend=[(0, 1, 2, 4)])) == [
            b for b in enumerate_admissible(plain, extend=[(0, 1, 2, 4)]) if meets(b, floors)
        ]

    @pytest.mark.parametrize("depth", [4, 5, 6])
    def test_stem_partitions_give_the_whole_stream(self, depth):
        # as the pool's jobs do: every stem of the depth, floored or not
        spec = self.SPEC
        whole = list(enumerate_admissible(spec))
        assert whole == [b for b in enumerate_admissible(EnumSpec(7, 22)) if meets(b, spec.floors)]
        parts = list(enumerate_admissible(EnumSpec(depth)))
        pieces = []
        for stem in parts:
            pieces.extend(enumerate_admissible(spec, extend=[stem]))
        assert pieces == whole
        if depth == 6:
            # a stem that fails the depth-5 floor and passes the depth-6 one
            assert any(not meets(s, spec.floors[:5]) and basis_range(s) >= 18 for s in parts)

    def test_parallel_equals_serial(self):
        with Workers(2) as workers:
            assert list(enumerate_admissible(self.SPEC, workers=workers)) == list(
                enumerate_admissible(self.SPEC)
            )


class TestExtend:
    """`extend`: the extensions of each given partial basis, in the order
    given, against the direct stream."""

    @settings(max_examples=300)
    @given(floored_specs(), st.data())
    def test_stems_of_a_depth_give_the_stream(self, spec_stem, data):
        # every admissible stem of one depth below the whole stream, and
        # the floored shorter stream one element short
        whole, _ = spec_stem
        depth = data.draw(st.integers(min_value=1, max_value=whole.length))
        expected = list(enumerate_admissible(whole))
        parts = list(enumerate_admissible(EnumSpec(depth)))
        assert list(enumerate_admissible(whole, extend=parts)) == expected
        assert unpruned(whole, extend=parts) == expected
        floors = whole.floors
        if whole.length >= 2 and max(floors[:-1]) == floors[-2]:
            # the shorter stream's min_range is the floor of its depth
            shorter = EnumSpec(whole.length - 1, floors[-2], floors=floors[:-1])
            extended = enumerate_admissible(whole, extend=enumerate_admissible(shorter))
            assert list(extended) == expected

    def test_no_bases_no_stream(self):
        assert list(enumerate_admissible(EnumSpec(6, 12), extend=[])) == []

    def test_inadmissible_or_floorless_stems_extend_to_nothing(self):
        assert list(enumerate_admissible(EnumSpec(3, 6), extend=[(0, 2)])) == []
        assert list(enumerate_admissible(EnumSpec(3, 6), extend=[(0, 1, 2, 7)])) == []
        floored = EnumSpec(5, 10, floors=(0, 5, 5, 5, 10))
        assert list(enumerate_admissible(floored, extend=[(0, 1, 3, 4)])) == []

    def test_order_of_the_bases_is_kept(self):
        spec = EnumSpec(4, 8)
        out = list(enumerate_admissible(spec, extend=[(0, 1, 3), (0, 1, 2)]))
        assert out == [b for b in enumerate_admissible(spec) if b[:3] == (0, 1, 3)] + [
            b for b in enumerate_admissible(spec) if b[:3] == (0, 1, 2)
        ]

    def test_rejects_a_basis_longer_than_the_stream(self):
        with pytest.raises(ValueError, match=r"stem \(0, 1, 2\) .* depth 1"):
            list(enumerate_admissible(EnumSpec(1), extend=[(0, 1), (0, 1, 2)]))

    def test_walks_in_this_process(self, started_pools):
        spec = EnumSpec(7, 16)
        with Workers(2) as workers:
            out = list(enumerate_admissible(spec, workers=workers, extend=enumerate_admissible(EnumSpec(3))))
        assert out == list(enumerate_admissible(spec))
        assert started_pools == []


class TestFloorStep:
    """The floor step: a node with holes under its children's floor reads
    its next elements off its first gap g and the largest such hole h."""

    # a floor at every depth, from depth 1 on: each (0, 1, ...) prefix
    # has holes under some floor, so the step runs from the root down
    SPEC = EnumSpec(7, 22, floors=(2, 3, 6, 9, 13, 17, 22))

    @given(admissible_partials(), st.data())
    def test_candidates_cover_g_and_h(self, node, data):
        # lo above max P + 1 stands for the run bound, and lo > hi for an
        # x loop that it has emptied
        _, cov = sumset_bits(node)
        hi = ((~cov) & (cov + 1)).bit_length() - 1
        lo = data.draw(st.integers(min_value=node[-1] + 1, max_value=hi + 2))
        floor = data.draw(st.integers(min_value=hi, max_value=2 * hi + 2))
        below = ~cov & ((2 << floor) - 1)
        rev = sum(1 << (lo - 1 - e) for e in node)
        g, h = hi, below.bit_length() - 1
        # bit a - lo of the step's mask stands for the next element a, and
        # no bit lies above hi
        step = _floor_step(below, rev, lo, hi)
        assert step >> max(hi - lo + 1, 0) == 0
        got = {a for a in range(lo, hi + 1) if step >> (a - lo) & 1}
        assert got == {a for a in range(lo, hi + 1) if g - a in node and (h - a in node or h == 2 * a)}
        # exact: it keeps every child that reaches the floor
        assert {a for a in range(lo, hi + 1) if basis_range(node + (a,)) >= floor} <= got

    def test_run_bound_past_the_first_gap(self):
        # nodes two short of this stream have holes under the x floor, and
        # the run bound moves the start of their x loop to 12, past their
        # first gap 11: the step gives them no x, and the stream is empty
        spec = EnumSpec(7, 28, floors=(1, 3, 8, 5, 4, 11, 22))
        assert [b for b in oracle_stream(7) if basis_range(b) >= 28 and meets(b, spec.floors)] == []
        assert list(enumerate_admissible(spec)) == []

    @pytest.mark.parametrize("k", range(3, 27))
    def test_prune_does_not_change_descent_streams(self, k):
        # both floored streams of every level from the pairing bound down to
        # n2*(k), at every pivot up to k = 10 and the default one above; from
        # k = 17 on, those of n2*(k) only, the streams that a descent walks
        # from the root once the catalog names n2*(k)
        low = DEFAULT.known_restricted_range(k)
        for pivot in range(1, k - 1) if k <= 10 else [k // 2]:
            for n in range(upper_bound_restricted(k) if k <= 16 else low, low - 1, -2):
                target = SearchTarget.create(k, n, pivot)
                for length in {target.pivot, target.suffix_length}:
                    spec = target.stream(length)
                    got = list(enumerate_admissible(spec))
                    assert got == unpruned(spec), (pivot, n, length)

    @pytest.mark.parametrize("processes", [2])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
    def test_stems_give_the_serial_stream(self, depth, processes, started_pools):
        # `extend` walks the stems in this process, whatever the workers, so
        # a Workers of 2 processes, which could start a pool, starts none
        spec = self.SPEC
        serial = list(enumerate_admissible(spec))
        assert serial == [b for b in enumerate_admissible(EnumSpec(7, 22)) if meets(b, spec.floors)]
        assert len(serial) == 35
        with Workers(processes) as workers:
            pieces = [
                b
                for stem in enumerate_admissible(EnumSpec(depth))
                for b in enumerate_admissible(spec, workers=workers, extend=[stem])
            ]
        assert pieces == serial
        assert started_pools == []


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

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8, 9, 10])
    def test_prune_does_not_change_the_stream(self, k):
        # the unpruned reference tries every x and every final element, so
        # this pins the run bound, the in-range cap and the exact
        # last-element step as well as the counting cut; from k = 10 on,
        # where the reference takes about 0.14 s per stream, only the
        # thresholds near n2(k)
        top = DEFAULT.known_unrestricted_range(k)
        for threshold in range(top - 8 if k >= 10 else 0, top + 3):
            spec = EnumSpec(k, threshold)
            assert list(enumerate_admissible(spec)) == unpruned(spec), threshold

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("short", [1, 2])
    def test_prune_does_not_change_short_stems(self, k, short):
        # stems one or two elements short of the k + 1 of a leaf enter the
        # last two levels directly, as the pool's deepened stems can
        for stem in enumerate_admissible(EnumSpec(k - short)):
            for threshold in range(DEFAULT.known_unrestricted_range(k) + 3):
                spec = EnumSpec(k, threshold)
                got = list(enumerate_admissible(spec, extend=[stem]))
                assert got == unpruned(spec, extend=[stem]), (stem, threshold)

    @pytest.mark.parametrize("threshold,size", [(54, 4), (53, 5), (52, 35), (51, 56), (50, 213)])
    def test_descent_stream_sizes(self, threshold, size):
        # the plain (11, .) streams of the five levels of the k = 23 descent,
        # n = 204..196, 313 bases; the descent walks only n = 196, floored
        assert sum(1 for _ in enumerate_admissible(EnumSpec(11, threshold))) == size

    def test_stem_restricts_the_stream(self):
        spec = EnumSpec(6, 10)
        whole = list(enumerate_admissible(spec))
        part = list(enumerate_admissible(spec, extend=[(0, 1, 2)]))
        assert part == [b for b in whole if b[:3] == (0, 1, 2)]

    def test_complete_stem_is_a_leaf_check(self):
        basis = (0, 1, 3, 4)
        assert list(enumerate_admissible(EnumSpec(3, 8), extend=[basis])) == [basis]
        assert list(enumerate_admissible(EnumSpec(3, 9), extend=[basis])) == []

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
    def test_stem_partitions_are_complete_and_disjoint(self, depth):
        spec = EnumSpec(6, 12)
        whole = list(enumerate_admissible(spec))
        pieces = []
        for stem in enumerate_admissible(EnumSpec(depth)):
            pieces.extend(enumerate_admissible(spec, extend=[stem]))
        assert sorted(pieces) == whole
        assert len(pieces) == len(set(pieces))

    def test_parallel_equals_serial(self):
        # 756 bases, partitioned below the root
        spec = EnumSpec(7, 19)
        serial = list(enumerate_admissible(spec))
        with Workers(2) as workers:
            parallel = list(enumerate_admissible(spec, workers=workers))
        assert parallel == serial

    def test_parallel_auto_depth(self):
        spec = EnumSpec(6, 12)
        with Workers(2) as workers:
            parallel = list(enumerate_admissible(spec, workers=workers))
        assert parallel == list(enumerate_admissible(spec))

    def test_streams_share_one_pool(self, started_pools):
        specs = [EnumSpec(6, 12), EnumSpec(7, 19), EnumSpec(8)]
        with Workers(2) as workers:
            parallel = [list(enumerate_admissible(s, workers=workers)) for s in specs]
            assert len(multiprocessing.active_children()) == 2
        assert parallel == [list(enumerate_admissible(s)) for s in specs]
        assert len(started_pools) == 1
        assert multiprocessing.active_children() == []


class TestWorkers:
    def test_no_pool_until_a_parallel_map(self, started_pools):
        with Workers(2):
            pass
        with Workers(2) as workers:
            # a stream too short to split runs in this process
            assert list(enumerate_admissible(EnumSpec(2), workers=workers)) == [
                (0, 1, 2), (0, 1, 3)
            ]
        assert started_pools == []

    def test_one_process_starts_no_pool(self, started_pools):
        with Workers(1) as workers:
            assert list(enumerate_admissible(EnumSpec(8), workers=workers)) == list(
                enumerate_admissible(EnumSpec(8))
            )
        assert started_pools == []

    @pytest.mark.parametrize(
        "spec,processes,jobs",
        [pytest.param(EnumSpec(n, r), 2, j, id=f"{n}-{r}-{j}") for n, r, j in
         [(10, 42, 17), (11, 50, 17), (12, 56, 65), (13, 60, 65)]]
        + [pytest.param(walked_stream(k), 2, j, id=f"k{k}-{j}") for k, j in [(24, 17), (25, 65), (41, 65)]]
        + [pytest.param(EnumSpec(10, 42), 3, 65, id="10-42-3-workers-65")],
    )
    def test_split_by_levels_below_the_stems(self, spec, processes, jobs):
        # 2 workers: the length-10 and 11 streams stop at 17 stems, 7 or
        # fewer levels above their leaves; longer ones go on to 65.  The
        # streams that the k = 24, 25 and 41 descents walk, of length 11,
        # 12 and 20, split into every admissible stem of their depth, as no
        # floor drops one.  3 workers need 24 stems of (10, 42), past the
        # 17 of depth 4
        assert len(_split(spec, processes)) == jobs

    def test_split_drops_stems_below_a_floor(self):
        # the shorter stream of SearchTarget.create(12, 64): of the 17
        # plain stems of depth 4, 8 reach the floors, and only they ship
        spec = SearchTarget.create(12, 64).stream(5)
        assert spec.min_range == 14
        sent = []
        with Workers(2) as workers:
            imap = workers.imap

            def counting_imap(func, items):
                items = list(items)
                sent.extend(items)
                return imap(func, items)

            workers.imap = counting_imap
            parallel = list(enumerate_admissible(spec, workers=workers))
        assert [job[2] for job in sent] == [(stem,) for stem in _split(spec, 2)]
        assert len(sent) == 8
        assert parallel == list(enumerate_admissible(spec))

    def test_imap_keeps_job_order(self):
        with Workers(2) as workers:
            assert list(workers.imap(abs, range(0, -40, -1))) == list(range(40))

    def test_pool_closes_on_an_exception(self, started_pools):
        with pytest.raises(KeyboardInterrupt):
            with Workers(2) as workers:
                next(enumerate_admissible(EnumSpec(8), workers=workers))
                raise KeyboardInterrupt
        assert len(started_pools) == 1
        assert multiprocessing.active_children() == []


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
        with Workers(2) as workers:
            stream = enumerate_admissible(EnumSpec(8), workers=workers)
            assert sum(1 for _ in stream) == ADMISSIBLE_COUNTS[8]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EnumSpec(-1)


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        spec = EnumSpec(5, 10)
        expected = list(enumerate_admissible(spec))
        path = tmp_path / "stream.txt"
        count = save(path, spec, enumerate_admissible(spec))
        assert count == len(expected)
        meta, bases = load(path)
        assert bases == expected
        assert meta == {"k": "5", "min_range": "10", "count": str(len(expected))}

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.txt"
        assert save(path, EnumSpec(3, 9), iter(())) == 0
        meta, bases = load(path)
        assert bases == [] and meta["count"] == "0"

    def test_interrupted_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "stream.txt"
        save(path, EnumSpec(3), [(0, 1, 3, 4)])

        def broken():
            yield (0, 1, 2, 3)
            raise RuntimeError("stopped")

        with pytest.raises(RuntimeError):
            save(path, EnumSpec(3), broken())
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
