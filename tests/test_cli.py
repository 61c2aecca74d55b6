"""Tests for the command line interface."""

import json
import os

import pytest

from addbasis import __version__
from addbasis.catalog import PrefixCache
from addbasis.cli import main
from addbasis.core import parse_basis, read_bases
from addbasis.enumeration import EnumSpec, enumerate_admissible


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def blocked_dir(tmp_path):
    """A directory path that cannot exist: its parent is a regular file."""
    (tmp_path / "file").write_text("")
    return tmp_path / "file" / "dir"


def stdout_bases(out):
    return [
        parse_basis(line)
        for line in out.splitlines()
        if line and not line.startswith("#") and not line.startswith(("n2", "MATCH", "MISMATCH"))
    ]


class TestSearch:
    def test_found(self, capsys, restricted_fixtures):
        code, out, err = run(capsys, "search", "-k", "10", "-n", "44")
        assert code == 0
        assert "# count=8" in out
        assert set(stdout_bases(out)) == {f.basis for f in restricted_fixtures[10]}
        assert "prefixes" in err

    def test_empty_exits_1(self, capsys):
        code, out, _ = run(capsys, "search", "-k", "10", "-n", "46")
        assert code == 1
        assert "# count=0" in out

    def test_odd_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "search", "-k", "10", "-n", "45")
        assert code == 2
        assert "error" in err

    def test_bad_pivot_is_usage_error(self, capsys):
        code, _, err = run(capsys, "search", "-k", "10", "-n", "44", "--pivot", "9")
        assert code == 2

    def test_missing_argument_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "-k", "10"])
        assert exc.value.code == 2

    def test_out_file(self, capsys, tmp_path):
        # --out writes exactly the bytes stdout would show
        out_path = tmp_path / "report.txt"
        _, shown, _ = run(capsys, "search", "-k", "9", "-n", "40")
        code, out, _ = run(capsys, "search", "-k", "9", "-n", "40", "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text() == shown
        assert "# k=9\n# n=40\n" in shown

    def test_json_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        argv = ("search", "-k", "9", "-n", "40", "--format", "json")
        _, shown, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text() == shown
        assert json.loads(shown)["count"] >= 1

    def test_unwritable_out_is_usage_error(self, capsys, blocked_dir):
        out_path = blocked_dir / "r.txt"
        code, out, err = run(capsys, "search", "-k", "5", "-n", "16", "--out", str(out_path))
        assert code == 2 and out == ""
        assert err.splitlines()[-1].startswith("error: ") and str(out_path) in err

    def test_cache_dir_under_a_file_is_usage_error(self, capsys, blocked_dir):
        code, out, err = run(capsys, "search", "-k", "5", "-n", "16", "--cache-dir", str(blocked_dir))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(blocked_dir) in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "search", "-k", "9", "-n", "40", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 9 and doc["n"] == 40
        assert doc["count"] == len(doc["bases"])

    def test_cache_dir_flag(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        code, out1, _ = run(capsys, "search", "-k", "9", "-n", "40", "--cache-dir", str(cache_dir))
        assert code == 0
        assert list(cache_dir.glob("prefixes-*.txt"))
        code, out2, err = run(capsys, "search", "-k", "9", "-n", "40", "--cache-dir", str(cache_dir))
        assert code == 0
        assert out2 == out1
        assert "cache hit" in err

    def test_cache_dir_from_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ADDBASIS_CACHE_DIR", str(tmp_path / "envcache"))
        code, _, _ = run(capsys, "search", "-k", "9", "-n", "40")
        assert code == 0
        assert list((tmp_path / "envcache").glob("prefixes-*.txt"))

    def test_damaged_cache_entry_is_named(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        path = PrefixCache(cache_dir).path_for(2, 4)
        path.write_text("# k=2\n# min_range=4\n# count=\n0 1 3\n")
        code, _, err = run(capsys, "search", "-k", "5", "-n", "16", "--cache-dir", str(cache_dir))
        assert code == 2
        assert path.name in err and "count" in err

    def test_threads_above_cores_is_usage_error(self, capsys):
        too_many = str((os.cpu_count() or 1) + 1)
        with pytest.raises(SystemExit) as exc:
            main(["search", "-k", "5", "-n", "16", "--threads", too_many])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_threads_not_a_number_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "-k", "5", "-n", "16", "--threads", "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected a worker count between 1 and" in err and "got x" in err
        assert "_threads" not in err


class TestExtremal:
    def test_reports_value_and_match(self, capsys, restricted_fixtures):
        code, out, _ = run(capsys, "extremal", "-k", "6")
        assert code == 0
        assert "n2*(6) = 20" in out
        assert "MATCH: catalog n2*(6) = 20" in out
        assert set(stdout_bases(out)) == {f.basis for f in restricted_fixtures[6]}

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "extremal", "-k", "6")
        _, second, _ = run(capsys, "extremal", "-k", "6")
        assert first == second

    def test_threads_do_not_change_output(self, capsys):
        _, serial, _ = run(capsys, "extremal", "-k", "7", "--threads", "1")
        _, threaded, _ = run(capsys, "extremal", "-k", "7", "--threads", "2")
        assert serial == threaded

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "extremal", "-k", "6", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["n2_star"] == 20 and doc["match"] is True
        assert doc["catalog_n2_star"] == 20
        assert len(doc["bases"]) == doc["count"] == 2

    def test_out_file_holds_report(self, capsys, tmp_path):
        # the file holds the report block that stdout shows between the
        # n2* line and the MATCH line; the summary stays on stdout
        out_path = tmp_path / "extremal.txt"
        _, shown, _ = run(capsys, "extremal", "-k", "6")
        code, out, _ = run(capsys, "extremal", "-k", "6", "--out", str(out_path))
        assert code == 0
        first, *block, last = shown.splitlines(keepends=True)
        assert first == "n2*(6) = 20\n" and last.startswith("MATCH")
        assert out_path.read_text() == "".join(block)
        assert out == first + last
        assert "# count=2\n" in block

    def test_json_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "extremal.json"
        _, shown, _ = run(capsys, "extremal", "-k", "6", "--format", "json")
        code, out, _ = run(capsys, "extremal", "-k", "6", "--format", "json", "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text() == shown


class TestEnumerate:
    def test_streams_and_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-k", "4")
        assert code == 0
        assert "# k=4" in out and "# count=17" in out
        assert len(stdout_bases(out)) == 17

    def test_min_range_filter(self, capsys):
        expected = list(enumerate_admissible(EnumSpec(4, 8)))
        code, out, _ = run(capsys, "enumerate", "-k", "4", "--min-range", "8")
        assert code == 0
        assert stdout_bases(out) == expected
        assert f"# count={len(expected)}" in out

    def test_out_file_backpatches_count(self, capsys, tmp_path):
        path = tmp_path / "stream.txt"
        code, _, _ = run(capsys, "enumerate", "-k", "5", "--min-range", "10", "--out", str(path))
        assert code == 0
        with open(path) as f:
            meta, bases = read_bases(f, str(path))
        assert int(meta["count"]) == len(bases)
        assert bases == list(enumerate_admissible(EnumSpec(5, 10)))

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-k", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 5 and len(doc["bases"]) == 5

    def test_unwritable_out_is_usage_error(self, capsys, blocked_dir):
        code, _, err = run(capsys, "enumerate", "-k", "3", "--out", str(blocked_dir / "x.txt"))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_usage_error_on_bad_length(self, capsys):
        code, _, err = run(capsys, "enumerate", "-k", "0")
        assert code == 2 and "error" in err


class TestVerify:
    def test_classifies_lines(self, capsys, tmp_path):
        path = tmp_path / "bases.txt"
        path.write_text("# sample\n0 1 3 4\n0 1 2 5 7 11 15 19 21 22 24\n")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0 1 3 4: range 8, admissible, restricted, symmetric"
        assert "range 46, admissible, not restricted, asymmetric" in lines[1]

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n"))
        code, out, _ = run(capsys, "verify", "-")
        assert code == 0
        assert "restricted" in out

    def test_malformed_line_fails_with_position(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n0 3 1\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 1
        assert "line 2" in err

    def test_count_mismatch_fails(self, capsys, tmp_path):
        path = tmp_path / "bases.txt"
        path.write_text("# count=2\n0 1 3 4\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1 and out == ""
        assert "header count 2 but 1" in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_json_document(self, capsys, tmp_path):
        path = tmp_path / "bases.txt"
        path.write_text("0 1 3 4\n")
        code, out, _ = run(capsys, "verify", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["bases"][0]["range"] == 8
        assert doc["bases"][0]["restricted"] is True


class TestOracle:
    def test_sections(self, capsys):
        code, out, _ = run(capsys, "oracle", "-k", "3")
        assert code == 0
        assert "# n2=8" in out and "# n2_restricted=8" in out

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "oracle", "-k", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["n2"] == 12 and doc["extremal"] == [[0, 1, 3, 5, 6]]

    def test_limit_is_usage_error(self, capsys):
        code, _, err = run(capsys, "oracle", "-k", "12")
        assert code == 2
        assert "limit" in err

    def test_raised_limit_runs(self, capsys):
        code, out, _ = run(capsys, "oracle", "-k", "4", "--oracle-limit", "4")
        assert code == 0


class TestMisc:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
