"""Known extremal values, published extremal bases and the stream cache.

Two integer sequences anchor everything here.  n2(k) is the extremal
range over all admissible bases of length k, known for k <= 24 (OEIS
A001212).  The restricted variant n2*(k) is the extremal range over bases
whose range reaches twice the top element, known for k <= 41 (OEIS
A006638); the two agree for every k <= 24 except k = 10, where 46 > 44.

The packaged data files carry the complete published sets of extremal
restricted bases for k = 1..41, with the runs of equally spaced elements
of the published tables written out, plus the two length-10 bases that
attain the nonrestricted extremum.

Also here: a disk cache of enumerated prefix streams keyed by (length,
min_range, floors, tool version).  The cache reads and writes its entries
through core (read_bases, write_bases, atomic_write), and answers only
the entry stored under the key it is asked for: cutting a stream down to
floors is the walker's job, which the mitm search asks of it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import __version__
from .core import Basis, as_basis, atomic_write, read_bases, write_bases


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
            basis = as_basis(parts[3:])
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


# --- prefix stream cache ---


class PrefixCache:
    """Disk cache of enumerated streams, keyed by (length, min_range, floors,
    version).

    A hit returns exactly the list a fresh enumeration would produce; the
    stored header carries the enumeration key and the count line, last (or,
    in older entries, in the header), guards against truncation.  Entries
    are written atomically, so an interrupted store leaves no entry and the
    next load misses.  Stale versions simply miss.

    A stream with floors (see EnumSpec) is a subset of the plain stream of
    the same (length, min_range), so its entry carries the floors in a
    header line and a digest of them in its file name: it never answers a
    plain request or one with other floors, and a plain entry, such as an
    `enumerate --out` file, never answers a floored one.  The search cuts
    a plain entry down to its floors with the walker (see
    `mitm._level_streams`).
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, length: int, min_range: int, floors: Sequence[int] = ()) -> Path:
        tag = f"-f{_digest(floors)}" if floors else ""
        return self.directory / f"prefixes-k{length}-r{min_range}{tag}-v{__version__}.txt"

    def load(self, length: int, min_range: int, floors: Sequence[int] = ()) -> list[Basis] | None:
        """The entry stored under this key, or None when there is none."""
        path = self.path_for(length, min_range, floors)
        if not path.exists():
            return None
        with open(path) as f:
            meta, bases = read_bases(f, str(path))
        if "count" not in meta:
            raise ValueError(f"{path}: no count line, so the entry is incomplete")
        if (
            meta.get("k") != str(length)
            or meta.get("min_range") != str(min_range)
            or meta.get("floors") != (_floors_text(floors) if floors else None)
        ):
            raise ValueError(f"{path}: header does not match its cache key")
        return bases

    def store(
        self, length: int, min_range: int, bases: Iterable[Sequence[int]], floors: Sequence[int] = ()
    ) -> Path:
        path = self.path_for(length, min_range, floors)
        with atomic_write(path) as f:
            write_bases(f, stream_header(length, min_range, floors), bases)
        return path


def stream_header(length: int, min_range: int, floors: Sequence[int] = ()) -> dict[str, object]:
    """The `# key=value` header of a stream file, which `enumerate` and
    `PrefixCache.store` both write: so an `enumerate --out` file under
    the name that `path_for` gives its (length, min_range) is a plain
    cache entry."""
    header: dict[str, object] = {"k": length, "min_range": min_range}
    if floors:
        header["floors"] = _floors_text(floors)
    header["version"] = __version__
    return header


def _floors_text(floors: Sequence[int]) -> str:
    return ",".join(map(str, floors))


def _digest(floors: Sequence[int]) -> str:
    # CRC-32: zlib is loaded at start-up, while hashlib's OpenSSL adds
    # ~3 MB resident to every run; a collision fails the header check
    return f"{zlib.crc32(_floors_text(floors).encode()):08x}"
