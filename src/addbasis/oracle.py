"""Brute-force reference for small lengths.

Walks every admissible basis of a given length and reads off the extremal
range and the extremal restricted range together with all bases attaining
them.  The point is independence, not speed: coverage is recomputed from
scratch at every node with the core primitives, and none of the pruning
or incremental state of the production enumerator is shared.  The two
implementations check each other in the test suite.

Cost grows roughly 6x per unit of length; the default limit of 10 keeps
accidental invocations from burning hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import Basis, basis_range, format_basis


DEFAULT_LIMIT = 10


class OracleLimitError(ValueError):
    """Requested length exceeds the configured brute-force limit."""


@dataclass(frozen=True, slots=True)
class OracleResult:
    """Everything the brute force learns about one length."""

    length: int
    n2: int
    extremal: tuple[Basis, ...]
    n2_restricted: int
    extremal_restricted: tuple[Basis, ...]


def all_admissible(length: int) -> Iterator[Basis]:
    """Yield every admissible basis of the given length, lexicographically.

    The only structure used: a partial basis P extends admissibly exactly
    by elements in [last + 1, range(P) + 1], with range recomputed fresh
    each time.
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")

    def walk(partial: Basis) -> Iterator[Basis]:
        if len(partial) == length + 1:
            yield partial
            return
        for a in range(partial[-1] + 1, basis_range(partial) + 2):
            yield from walk(partial + (a,))

    yield from walk((0,))


def brute_force(length: int, limit: int = DEFAULT_LIMIT) -> OracleResult:
    """Exhaustively determine the extremal and extremal restricted bases.

    Raises OracleLimitError for length > limit; raise the limit explicitly
    when a long run is intended.
    """
    if length > limit:
        raise OracleLimitError(
            f"length {length} exceeds the brute-force limit {limit}; "
            f"pass a higher limit to run anyway"
        )
    best = -1
    best_bases: list[Basis] = []
    best_restricted = -1
    restricted_bases: list[Basis] = []
    for basis in all_admissible(length):
        rng = basis_range(basis)
        if rng > best:
            best = rng
            best_bases = [basis]
        elif rng == best:
            best_bases.append(basis)
        if rng == 2 * basis[-1]:
            if rng > best_restricted:
                best_restricted = rng
                restricted_bases = [basis]
            elif rng == best_restricted:
                restricted_bases.append(basis)
    return OracleResult(
        length=length,
        n2=best,
        extremal=tuple(best_bases),
        n2_restricted=best_restricted,
        extremal_restricted=tuple(restricted_bases),
    )


def format_result(result: OracleResult) -> str:
    """Text form: extremal section then extremal-restricted section."""
    lines = [f"# k={result.length}"]
    lines.append(f"# n2={result.n2}")
    lines.append(f"# extremal_count={len(result.extremal)}")
    lines.extend(format_basis(b) for b in result.extremal)
    lines.append(f"# n2_restricted={result.n2_restricted}")
    lines.append(f"# extremal_restricted_count={len(result.extremal_restricted)}")
    lines.extend(format_basis(b) for b in result.extremal_restricted)
    return "\n".join(lines) + "\n"
