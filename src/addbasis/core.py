"""Exact sumset algebra for additive 2-bases.

An additive 2-basis is a finite set of integers 0 = a_0 < a_1 < ... < a_k
whose pairwise sums (repetitions allowed) cover an initial segment of the
integers.  Everything in this package reduces to three questions about a
candidate set A: which sums does A + A hit, how far does the covered
initial segment [0, n] extend (the range of A), and how does A relate to
its mirror image b - A.

Bases are plain tuples of ints; a 2-basis of *length* k has k + 1 elements
because the mandatory leading 0 is not counted.  Sum coverage is kept as a
Python int used as a bit vector (bit t set iff t is a pairwise sum), so
the first-gap scan and subset tests are word-parallel no matter how large
the basis gets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

Basis = tuple[int, ...]

# Coverage vectors are dense: a basis with top element a_k allocates
# 2*a_k + 1 bits.  Nothing in range overflows in Python, but an absurd
# element would silently try to allocate a gigantic vector, so reject it
# loudly instead.
MAX_ELEMENT = 1 << 22


class BasisError(ValueError):
    """A sequence that violates the basis invariants."""


def as_basis(elements: Iterable[int]) -> Basis:
    """Validate and normalize to a basis tuple.

    Requires a strictly increasing sequence of ints starting at 0.
    """
    elems = tuple(int(a) for a in elements)
    if not elems:
        raise BasisError("a basis has at least the element 0")
    if elems[0] != 0:
        raise BasisError(f"a basis starts at 0, got {elems[0]}")
    for prev, cur in zip(elems, elems[1:]):
        if cur <= prev:
            raise BasisError(f"elements must strictly increase, got {prev} then {cur}")
    if elems[-1] > MAX_ELEMENT:
        raise BasisError(f"element {elems[-1]} exceeds the supported maximum {MAX_ELEMENT}")
    return elems


def sumset_bits(elements: Iterable[int]) -> tuple[int, int]:
    """(mask, bits) of an increasing set A, computed from scratch: mask
    has bit a set for every a in A, bits has bit t set iff t is in A + A.

    Incremental form of the sumset: with mask = sum of 2^a over a <= a_i,
    shifting mask by a_i contributes exactly the sums involving a_i as the
    larger addend, so OR-ing mask << a_i over increasing a_i is A + A.
    A need not start at 0 (the search builds un-mirrored suffixes too).
    """
    mask = 0
    bits = 0
    for a in elements:
        mask |= 1 << a
        bits |= mask << a
    return mask, bits


def basis_range(basis: Sequence[int]) -> int:
    """n2(A): the largest n such that basis + basis covers [0, n]
    (-1 if 0 itself is missing)."""
    bits = sumset_bits(basis)[1]
    # lowest zero bit of `bits`, minus one
    return ((~bits) & (bits + 1)).bit_length() - 2


def mirror(elements: Iterable[int], b: int) -> tuple[int, ...]:
    """Reflect a set of ints about b: {b - a for a in elements}, sorted.

    The input need not start at 0 (suffix fragments are mirrored too);
    b must dominate every element so the image stays nonnegative.
    """
    elems = tuple(elements)
    top = max(elems)
    if b < top:
        raise ValueError(f"mirror point {b} is below the largest element {top}")
    return tuple(sorted(b - a for a in elems))


@dataclass(frozen=True, slots=True)
class BasisClass:
    """Classification of a basis by its range.

    admissible: range >= a_k, i.e. the covered segment reaches the top
    element.  restricted: range >= 2*a_k, the largest possible for the
    top element (and then equal to it).  symmetric: a_i + a_{k-i} = a_k.
    """

    admissible: bool
    restricted: bool
    symmetric: bool
    range: int


def classify(basis: Sequence[int]) -> BasisClass:
    """Classify a valid basis (admissible / restricted / symmetric)."""
    top = basis[-1]
    rng = basis_range(basis)
    sym = all(basis[i] + basis[-1 - i] == top for i in range((len(basis) + 1) // 2))
    return BasisClass(
        admissible=rng >= top,
        restricted=rng >= 2 * top,
        symmetric=sym,
        range=rng,
    )


def format_basis(basis: Sequence[int]) -> str:
    return " ".join(str(a) for a in basis)


def parse_basis(text: str, lineno: int | None = None) -> Basis:
    """Parse one space-separated basis line; errors carry the line number."""
    where = f"line {lineno}: " if lineno is not None else ""
    tokens = text.split()
    if not tokens:
        raise BasisError(where + "empty basis line")
    try:
        elems = [int(t) for t in tokens]
    except ValueError:
        raise BasisError(where + f"non-integer token in {text!r}") from None
    try:
        return as_basis(elems)
    except BasisError as exc:
        raise BasisError(where + str(exc)) from None


def read_bases(lines: Iterable[str], name: str = "<input>") -> tuple[dict[str, str], list[Basis]]:
    """Read the text format of streams, reports and cache entries.

    Lines of the form `# key=value` fill the header dict; other `#` lines
    and blank lines are skipped; every other line is one basis.  When the
    header carries `count`, it must be an integer equal to the number of
    bases.  Errors are ValueErrors that name the source and, for a basis
    line, its line number.
    """
    meta: dict[str, str] = {}
    bases: list[Basis] = []
    try:
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                key, eq, value = stripped[1:].partition("=")
                if eq:
                    meta[key.strip()] = value.strip()
                continue
            bases.append(parse_basis(stripped, lineno))
    except BasisError as exc:
        raise BasisError(f"{name}: {exc}") from None
    if "count" in meta:
        try:
            count = int(meta["count"])
        except ValueError:
            raise ValueError(f"{name}: header count {meta['count']!r} is not an integer") from None
        if count != len(bases):
            raise ValueError(f"{name}: header count {count} but {len(bases)} bases present")
    return meta, bases
