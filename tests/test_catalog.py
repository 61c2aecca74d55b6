"""Tests for the value catalog, fixtures, report rendering and the stream cache."""

import json
from types import SimpleNamespace

import pytest

from addbasis import catalog
from addbasis.catalog import (
    DEFAULT,
    CatalogMissingError,
    CatalogTable,
    PrefixCache,
    render_report,
)
from addbasis.core import classify, format_basis, read_bases
from addbasis.mitm import SearchReport, SearchTarget, _certainly_empty, search_restricted


class TestKnownValues:
    def test_spot_values(self):
        assert DEFAULT.known_unrestricted_range(0) == 0
        assert DEFAULT.known_unrestricted_range(1) == 2
        assert DEFAULT.known_unrestricted_range(10) == 46
        assert DEFAULT.known_unrestricted_range(12) == 64
        assert DEFAULT.known_unrestricted_range(24) == 212
        assert DEFAULT.known_restricted_range(10) == 44
        assert DEFAULT.known_restricted_range(25) == 228
        assert DEFAULT.known_restricted_range(41) == 562

    def test_coverage_limits(self):
        assert max(DEFAULT.unrestricted) == 24
        assert max(DEFAULT.restricted) == 41
        with pytest.raises(CatalogMissingError):
            DEFAULT.known_unrestricted_range(25)
        with pytest.raises(CatalogMissingError):
            DEFAULT.known_restricted_range(42)
        with pytest.raises(CatalogMissingError):
            DEFAULT.known_restricted_range(0)

    def test_restricted_equals_unrestricted_except_k10(self):
        for k in range(1, 25):
            if k == 10:
                assert DEFAULT.known_restricted_range(k) == 44 < DEFAULT.known_unrestricted_range(k)
            else:
                assert DEFAULT.known_restricted_range(k) == DEFAULT.known_unrestricted_range(k)

    def test_values_strictly_increase(self):
        for k in range(1, 24):
            assert DEFAULT.known_unrestricted_range(k) < DEFAULT.known_unrestricted_range(k + 1)
        for k in range(1, 41):
            assert DEFAULT.known_restricted_range(k) < DEFAULT.known_restricted_range(k + 1)


class TestCatalogFile:
    """The packaged data files, one "k range S|A elements..." row per
    published basis, as the catalog reads them; and a partial table."""

    @pytest.fixture
    def data_dir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(catalog, "resources", SimpleNamespace(files=lambda package: tmp_path))
        (tmp_path / "data").mkdir()
        return tmp_path / "data"

    def test_roundtrip(self, restricted_fixtures, data_dir):
        rows = [f for k in (3, 10) for f in restricted_fixtures[k]]
        (data_dir / "rows.txt").write_text("# k range S|A elements\n" + "".join(
            f"{f.length} {f.range} {'S' if f.symmetric else 'A'} {format_basis(f.basis)}\n"
            for f in rows
        ))
        loaded = catalog._load_fixture_file("rows.txt")
        assert loaded == {3: restricted_fixtures[3], 10: restricted_fixtures[10]}

    def test_unknown_fields_parse_as_missing(self):
        table = CatalogTable(unrestricted={}, restricted={25: 228})
        with pytest.raises(CatalogMissingError):
            table.known_unrestricted_range(25)
        assert table.known_restricted_range(25) == 228
        # a length the table does not know never marks a level empty
        target = SearchTarget.create(9, 80, 1)
        assert _certainly_empty(target, DEFAULT) and not _certainly_empty(target, table)

    def test_bad_line_reports_position(self, data_dir):
        (data_dir / "rows.txt").write_text("3 8 S 0 1 3 4\n5 16 S 0 1 3\n")
        with pytest.raises(ValueError, match="rows.txt: line 2"):
            catalog._load_fixture_file("rows.txt")

    def test_short_line_rejected(self, data_dir):
        (data_dir / "rows.txt").write_text("7 26\n")
        with pytest.raises(ValueError, match="expected"):
            catalog._load_fixture_file("rows.txt")

    def test_non_integer_field_reports_position(self, data_dir):
        (data_dir / "rows.txt").write_text("3 8 S 0 1 3 4\n5 x S 0 1 3 5 7 8\n")
        with pytest.raises(ValueError, match="rows.txt: line 2"):
            catalog._load_fixture_file("rows.txt")


EXPECTED_FIXTURE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 1, 9: 1, 10: 8,
    11: 2, 12: 1, 13: 1, 14: 1, 15: 1, 16: 1, 17: 1, 18: 1, 19: 1,
    20: 1, 21: 2, 22: 1, 23: 1, 24: 1, 25: 1, 26: 2, 27: 1, 28: 1,
    29: 1, 30: 6, 31: 1, 32: 1, 33: 1, 34: 1, 35: 1, 36: 1, 37: 1,
    38: 1, 39: 1, 40: 2, 41: 1,
}


class TestFixtures:
    def test_every_length_present_with_expected_multiplicity(self, restricted_fixtures):
        assert {k: len(v) for k, v in restricted_fixtures.items()} == EXPECTED_FIXTURE_COUNTS

    def test_every_fixture_reverifies(self, restricted_fixtures):
        for k, fixtures in restricted_fixtures.items():
            for fixture in fixtures:
                assert len(fixture.basis) == k + 1
                cls = classify(fixture.basis)
                assert cls.restricted, fixture
                assert cls.range == fixture.range == 2 * fixture.basis[-1]
                assert cls.range == DEFAULT.known_restricted_range(k)
                assert cls.symmetric == fixture.symmetric, fixture

    def test_unrestricted_fixtures_reverify(self, unrestricted_fixtures):
        assert set(unrestricted_fixtures) == {10}
        rows = unrestricted_fixtures[10]
        assert len(rows) == 2
        for fixture in rows:
            cls = classify(fixture.basis)
            assert cls.range == 46 == fixture.range == DEFAULT.known_unrestricted_range(10)
            assert cls.admissible and not cls.restricted and not cls.symmetric


def _sample_report():
    return SearchReport(
        k=3,
        n=8,
        pivot=1,
        bases=((0, 1, 3, 4),),
        prefix_count=1,
        suffix_count=1,
        elapsed=0.25,
    )


class TestReports:
    def test_text_rendering(self):
        text = render_report(_sample_report())
        assert text == "# k=3\n# n=8\n# pivot=1\n# count=1\n0 1 3 4\n"

    def test_rendering_is_deterministic(self):
        report = _sample_report()
        assert render_report(report) == render_report(report)
        assert render_report(report, "json") == render_report(report, "json")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            render_report(_sample_report(), "yaml")

    def test_text_roundtrip(self):
        # the text form reads back through the one header + bases reader
        report = _sample_report()
        meta, bases = read_bases(render_report(report).splitlines(), "report.txt")
        assert meta == {"k": "3", "n": "8", "pivot": "1", "count": "1"}
        assert tuple(bases) == report.bases

    def test_json_roundtrip(self):
        doc = json.loads(render_report(_sample_report(), "json"))
        assert doc == {"k": 3, "n": 8, "pivot": 1, "count": 1, "bases": [[0, 1, 3, 4]]}

    def test_count_mismatch_detected(self):
        text = "# k=3\n# n=8\n# pivot=1\n# count=2\n0 1 3 4\n"
        with pytest.raises(ValueError, match="bad.txt: header count 2 but 1"):
            read_bases(text.splitlines(), "bad.txt")

    def test_bad_basis_line_reports_position(self):
        text = "# k=3\n# n=8\n# pivot=1\n# count=1\n0 3 1\n"
        with pytest.raises(ValueError, match="bad.txt: line 5"):
            read_bases(text.splitlines(), "bad.txt")


class TestPrefixCache:
    def test_miss_then_hit(self, tmp_path):
        cache = PrefixCache(tmp_path / "cache")
        assert cache.load(4, 10) is None
        bases = [(0, 1, 2, 3, 4), (0, 1, 2, 4, 5)]
        path = cache.store(4, 10, bases)
        assert path.exists()
        assert cache.load(4, 10) == bases

    def test_key_includes_version(self, tmp_path):
        cache = PrefixCache(tmp_path)
        from addbasis import __version__

        assert f"v{__version__}" in cache.path_for(4, 10).name
        assert "k4" in cache.path_for(4, 10).name
        assert "r10" in cache.path_for(4, 10).name

    def test_header_key_mismatch_detected(self, tmp_path):
        cache = PrefixCache(tmp_path)
        path = cache.store(4, 10, [(0, 1, 2, 3, 4)])
        doctored = path.read_text().replace("# k=4", "# k=5")
        path.write_text(doctored)
        with pytest.raises(ValueError, match="cache key"):
            cache.load(4, 10)

    def test_truncation_detected(self, tmp_path):
        cache = PrefixCache(tmp_path)
        path = cache.store(4, 10, [(0, 1, 2, 3, 4), (0, 1, 2, 4, 5)])
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="count"):
            cache.load(4, 10)

    def test_interrupted_store_leaves_no_entry(self, tmp_path):
        cache = PrefixCache(tmp_path)
        target = SearchTarget.create(5, 16)
        key = (target.pivot, target.prefix_min_range)

        def interrupted():
            yield (0, 1, 2)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            cache.store(*key, interrupted())
        assert cache.load(*key) is None
        assert list(tmp_path.iterdir()) == []
        report = search_restricted(target, cache=cache)
        assert report.bases == ((0, 1, 3, 5, 7, 8),)
        assert cache.load(*key) is not None

    @pytest.mark.parametrize("count", ["", "12x"])
    def test_damaged_count_names_the_file(self, tmp_path, count):
        cache = PrefixCache(tmp_path)
        path = cache.store(4, 10, [(0, 1, 2, 3, 4)])
        path.write_text(path.read_text().replace("# count=1", f"# count={count}"))
        with pytest.raises(ValueError, match=f"{path.name}: header count .* not an integer"):
            cache.load(4, 10)
