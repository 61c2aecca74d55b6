"""Known extremal values, published extremal bases, reports and the stream cache.

Two integer sequences anchor everything here.  n2(k) is the extremal
range over all admissible bases of length k, known for k <= 24 (OEIS
A001212).  The restricted variant n2*(k) is the extremal range over bases
whose range reaches twice the top element, known for k <= 41 (OEIS
A006638); the two agree for every k <= 24 except k = 10, where 46 > 44.

The packaged data files carry the complete published sets of extremal
restricted bases for k = 1..41 (runs of equally spaced elements expanded
by tools/transcribe_fixtures.py, which re-verifies every row), plus the
two length-10 bases that attain the nonrestricted extremum.

Also here: the text/JSON rendering of search reports, and a disk cache of
enumerated prefix streams keyed by (length, min_range, tool version).
Reports are rendered, not persisted: the CLI writes the rendered document
to stdout or --out, and it reads back with core.read_bases (text) or json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from . import __version__
from .core import Basis, as_basis, format_basis, read_bases
from .enumeration import EnumSpec, save_enumeration

if TYPE_CHECKING:  # pragma: no cover
    from .mitm import SearchReport


class CatalogMissingError(LookupError):
    """No recorded value for the requested length."""


# n2(k), k = 0..24.  The k = 0 entry is the degenerate basis {0}; it backs
# the bound formulas for the shortest prefixes.
_UNRESTRICTED = (
    0, 2, 4, 8, 12, 16, 20, 26, 32, 40, 46, 54, 64, 72, 80,
    92, 104, 116, 128, 140, 152, 164, 180, 196, 212,
)

# n2*(k), k = 1..41
_RESTRICTED = (
    2, 4, 8, 12, 16, 20, 26, 32, 40, 44, 54, 64, 72, 80, 92,
    104, 116, 128, 140, 152, 164, 180, 196, 212, 228, 244, 262,
    280, 298, 316, 338, 360, 382, 404, 426, 448, 470, 492, 514,
    536, 562,
)


@dataclass(frozen=True)
class CatalogTable:
    """Known n2 / n2* values by length."""

    unrestricted: Mapping[int, int]
    restricted: Mapping[int, int]

    def known_unrestricted_range(self, length: int) -> int:
        try:
            return self.unrestricted[length]
        except KeyError:
            raise CatalogMissingError(f"n2({length}) is not on record") from None

    def known_restricted_range(self, length: int) -> int:
        try:
            return self.restricted[length]
        except KeyError:
            raise CatalogMissingError(f"n2*({length}) is not on record") from None


DEFAULT = CatalogTable(dict(enumerate(_UNRESTRICTED)), dict(enumerate(_RESTRICTED, start=1)))


# --- published extremal bases ---


@dataclass(frozen=True, slots=True)
class Fixture:
    """One published extremal basis: its length, range, and symmetry tag."""

    length: int
    range: int
    symmetric: bool
    basis: Basis


def _load_fixture_file(name: str) -> dict[int, tuple[Fixture, ...]]:
    by_length: dict[int, list[Fixture]] = {}
    text = resources.files("addbasis").joinpath("data", name).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) < 4 or parts[2] not in ("S", "A"):
            raise ValueError(f"{name}: line {lineno}: expected 'k range S|A elements...'")
        try:
            length = int(parts[0])
            rng = int(parts[1])
            basis = as_basis(int(t) for t in parts[3:])
        except ValueError as exc:
            raise ValueError(f"{name}: line {lineno}: {exc}") from None
        if len(basis) != length + 1:
            raise ValueError(f"{name}: line {lineno}: {len(basis)} elements for k={length}")
        fixture = Fixture(length, rng, parts[2] == "S", basis)
        by_length.setdefault(length, []).append(fixture)
    return {k: tuple(v) for k, v in by_length.items()}


@cache
def extremal_restricted_fixtures() -> dict[int, tuple[Fixture, ...]]:
    """All published extremal restricted bases, keyed by length (1..41)."""
    return _load_fixture_file("restricted_extremal.txt")


@cache
def unrestricted_extremal_fixtures() -> dict[int, tuple[Fixture, ...]]:
    """Published extremal bases that beat the restricted range (k=10 only)."""
    return _load_fixture_file("unrestricted_extremal.txt")


# --- search reports ---


def render_report(report: "SearchReport", fmt: str = "text") -> str:
    """Serialize a report; `text` is the on-disk format, `json` mirrors it."""
    if fmt == "json":
        doc = {
            "k": report.k,
            "n": report.n,
            "pivot": report.pivot,
            "count": len(report.bases),
            "bases": [list(b) for b in report.bases],
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [
        f"# k={report.k}",
        f"# n={report.n}",
        f"# pivot={report.pivot}",
        f"# count={len(report.bases)}",
    ]
    lines.extend(format_basis(b) for b in report.bases)
    return "\n".join(lines) + "\n"


# --- prefix stream cache ---


class PrefixCache:
    """Disk cache of enumerated streams, keyed by (length, min_range, version).

    A hit returns exactly the list a fresh enumeration would produce; the
    stored header carries the enumeration key and the count guards against
    truncation.  Entries are written atomically, so an interrupted store
    leaves no entry and the next load misses.  Stale versions simply miss.
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, length: int, min_range: int) -> Path:
        return self.directory / f"prefixes-k{length}-r{min_range}-v{__version__}.txt"

    def load(self, length: int, min_range: int) -> list[Basis] | None:
        path = self.path_for(length, min_range)
        if not path.exists():
            return None
        with open(path) as f:
            meta, bases = read_bases(f, str(path))
        if meta.get("k") != str(length) or meta.get("min_range") != str(min_range):
            raise ValueError(f"{path}: header does not match its cache key")
        return bases

    def store(self, length: int, min_range: int, bases: Iterable[Sequence[int]]) -> Path:
        path = self.path_for(length, min_range)
        save_enumeration(path, EnumSpec(length, min_range), bases)
        return path
