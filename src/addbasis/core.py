"""Exact sumset algebra for additive 2-bases.

An additive 2-basis is a finite set of integers 0 = a_0 < a_1 < ... < a_k
whose pairwise sums (repetitions allowed) cover an initial segment of the
integers.  Everything in this package reduces to three questions about a
candidate set A: which sums does A + A hit, how far does the covered
initial segment [0, n] extend (the range of A), and how does A relate to
its mirror image b - A.  The per-depth floors of a search stream are
tested by the DFS walker of enumeration alone.

Bases are plain tuples of ints; a 2-basis of *length* k has k + 1 elements
because the mandatory leading 0 is not counted.  Sum coverage is kept as a
Python int used as a bit vector (bit t set iff t is a pairwise sum), so
the first-gap scan and subset tests are word-parallel no matter how large
the basis gets.

Lists of bases (streams, cache entries and the CLI's reports) are stored
in one text format: `# key=value` header lines and one basis per line.
read_bases is its one reader and write_bases its one writer; files are
written through atomic_write.  A basis line is its elements one space
apart, and _template is the one statement of that format: format_basis
and write_bases fill it with a single `%` operation.  read_bases converts
each distinct token once per call, through a dict whose misses call
int(), and hands the tuple to _checked, the validity rule that as_basis
also applies.  A stream has few distinct tokens (the (10, 30) stream
has 42 among 2,119,524), so nearly every token costs a dict lookup, not
a parse.

classify makes one sumset_bits call per basis, reads the range off it as
basis_range does, and tests a_1 + a_{k-1} = a_k before the full symmetry
check, which few bases pass.  BasisClass is a plain (not frozen) slots
record, built positionally, since a frozen one sets each field through
object.__setattr__, which cost about a quarter of classify; nothing
hashes or mutates one.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from operator import add, eq, lt
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

Basis = tuple[int, ...]

# Coverage vectors are dense: a basis with top element a_k allocates
# 2*a_k + 1 bits.  Nothing in range overflows in Python, but an absurd
# element would silently try to allocate a gigantic vector, so reject it
# loudly instead.  A range target becomes a vector of that many bits too,
# and no basis under this bound has a range above 2 * MAX_ELEMENT.
MAX_ELEMENT = 1 << 22


class BasisError(ValueError):
    """A sequence that violates the basis invariants."""


def as_basis(elements: Iterable[int]) -> Basis:
    """Validate and normalize to a basis tuple: each element converted
    once with int(), then checked by _checked.  An element that int()
    rejects raises int()'s own ValueError.
    """
    return _checked(tuple(map(int, elements)))


def _checked(elems: Basis) -> Basis:
    """Return a tuple of ints that is a basis, or raise BasisError.

    This is the one statement of the validity rule, which as_basis and
    read_bases both call: the elements start at 0, strictly increase and
    end at most MAX_ELEMENT.  Valid input passes C-level checks only; the
    checks that name what is wrong run only for invalid input.
    """
    if elems and elems[0] == 0 and elems[-1] <= MAX_ELEMENT and all(map(lt, elems, elems[1:])):
        return elems
    if not elems:
        raise BasisError("a basis has at least the element 0")
    if elems[0] != 0:
        raise BasisError(f"a basis starts at 0, got {elems[0]}")
    for prev, cur in zip(elems, elems[1:]):
        if cur <= prev:
            raise BasisError(f"elements must strictly increase, got {prev} then {cur}")
    raise BasisError(f"element {elems[-1]} exceeds the supported maximum {MAX_ELEMENT}")


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


@dataclass(slots=True)
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
    bits = sumset_bits(basis)[1]
    # the first gap minus one, as basis_range reads it
    rng = ((~bits) & (bits + 1)).bit_length() - 2
    # a_1 + a_{k-1} == a_k rules out most asymmetric bases before the
    # full check; a basis of fewer than 3 elements is symmetric
    sym = len(basis) < 3 or (
        basis[1] + basis[-2] == top and all(map(eq, map(add, basis, reversed(basis)), repeat(top)))
    )
    return BasisClass(rng >= top, rng >= 2 * top, sym, rng)


def _template(n: int) -> str:
    """The line of a basis with n elements: n `%s` fields one space apart.

    `%s` calls str() on each element, so the line equals
    " ".join(map(str, basis)) for any element type.
    """
    return " ".join(["%s"] * n)


def format_basis(basis: Sequence[int]) -> str:
    return _template(len(basis)) % tuple(basis)


def write_bases(f: IO[str], header: Mapping[str, object], bases: Iterable[Sequence[int]]) -> int:
    """Write a stream: one `# key=value` line per header item, one basis
    per line, then `# count=N` last, since N is known only at the end.
    A header that already states `count`, as a report's does, is not
    followed by a second one; read_bases accepts it in either place.
    Returns N."""
    write = f.write
    for key, value in header.items():
        write(f"# {key}={value}\n")
    # one line template per basis length, kept only for this call
    templates: dict[int, str] = {}
    count = 0
    for basis in bases:
        n = len(basis)
        template = templates.get(n)
        if template is None:
            template = templates[n] = _template(n) + "\n"
        write(template % tuple(basis))
        count += 1
    if "count" not in header:
        write(f"# count={count}\n")
    return count


@contextmanager
def atomic_write(path) -> Iterator[IO[str]]:
    """Open a text file that appears at `path` only if the block completes.

    On entry `.<name>.<pid>.tmp` is created in the target's directory (a
    symlink's target), so an unwritable target fails before any work, with
    an OSError naming `path`.  On normal exit the file is renamed over the
    target; on any exception it is removed and the target is left as it
    was.  No fsync.
    """
    target = Path(path).resolve()
    if target.is_dir():
        raise IsADirectoryError(f"{path} is a directory")
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        f = open(tmp, "w")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with f:
            yield f
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Ints(dict):
    """token -> int(token), converted on the first lookup of each token.

    It holds at most LIMIT tokens and starts over when full, since a file
    that never repeats a token, as one of huge hand-made elements can be,
    would otherwise keep every token string alive: 190,000 lines of 11
    such tokens peaked at 273 MB unbounded against 98 MB with int() alone.
    A file whose elements stay below LIMIT, as every stream the search
    writes does, fits whole.
    """

    LIMIT = 1 << 16

    def __missing__(self, token: str) -> int:
        if len(self) >= self.LIMIT:
            self.clear()
        value = self[token] = int(token)
        return value


def read_bases(lines: Iterable[str], name: str = "<input>") -> tuple[dict[str, str], list[Basis]]:
    """Read the text format of streams, reports and cache entries.

    Lines of the form `# key=value` fill the header dict, wherever they
    appear (streams put `count` last, reports in the header); other `#`
    lines and blank lines are skipped; every other line is one basis.
    `lines` is consumed one line at a time (a file is never read whole).
    Each basis line is split, each distinct token is converted with int()
    once per call, and the tuple is checked by _checked, the one validity
    rule: elements start at 0, strictly increase and stay at most
    MAX_ELEMENT.  When the text carries `count`, it must be an integer
    equal to the number of bases.  Errors are ValueErrors that name the
    source and, for a basis line, its line number.
    """
    meta: dict[str, str] = {}
    bases: list[Basis] = []
    append = bases.append
    to_int = _Ints().__getitem__
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0][0] == "#":
            key, sep, value = line.strip()[1:].partition("=")
            if sep:
                meta[key.strip()] = value.strip()
            continue
        try:
            append(_checked(tuple(map(to_int, tokens))))
        except BasisError as exc:
            raise BasisError(f"{name}: line {lineno}: {exc}") from None
        except ValueError:
            # int() rejected a token
            raise BasisError(f"{name}: line {lineno}: non-integer token in {line.strip()!r}") from None
    if "count" in meta:
        try:
            count = int(meta["count"])
        except ValueError:
            raise ValueError(f"{name}: header count {meta['count']!r} is not an integer") from None
        if count != len(bases):
            raise ValueError(f"{name}: header count {count} but {len(bases)} bases present")
    return meta, bases
