"""Tests for the command line interface."""

import functools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import addbasis
from addbasis import __version__, cli
from addbasis.catalog import PrefixCache
from addbasis.cli import _json_template, main
from addbasis.core import MAX_ELEMENT, read_bases, write_bases
from addbasis.enumeration import EnumSpec, enumerate_admissible
from addbasis.mitm import SearchTarget, search_restricted


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def blocked_dir(tmp_path):
    """A directory path that cannot exist: its parent is a regular file."""
    (tmp_path / "file").write_text("")
    return tmp_path / "file" / "dir"


@pytest.fixture
def two_cores(monkeypatch):
    """At least 2 cores as `--threads` counts them, so that `--threads 2`
    is accepted on any host; 2 pool workers run on one core as well."""
    cores = max(os.cpu_count() or 1, 2)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)


@pytest.fixture
def bases_file(tmp_path):
    """A two-line file of bases for `verify`, named by `{bases}` in an argv."""
    path = tmp_path / "bases.txt"
    path.write_text("0 1 3 4\n0 1 2 5 7 11 15 19 21 22 24\n")
    return path


def with_bases(argv, bases_file):
    return [a.format(bases=bases_file) for a in argv]


# commands whose --out file holds exactly the bytes stdout would show
OUT_EQUALS_STDOUT = {
    "search": ("search", "-k", "9", "-n", "40"),
    "enumerate": ("enumerate", "-k", "5", "--min-range", "10"),
    "verify": ("verify", "{bases}"),
    "oracle": ("oracle", "-k", "3"),
}


def stdout_bases(out):
    """The bases of the text report or stream on stdout, through read_bases,
    which also checks its count; `extremal`'s summary lines are left out."""
    lines = [line for line in out.splitlines() if not line.startswith(("n2", "MATCH", "MISMATCH"))]
    return read_bases(lines, "<stdout>")[1]


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

    def test_range_above_twice_max_element_is_usage_error(self, capsys):
        # no basis with elements up to MAX_ELEMENT reaches such a range
        code, out, err = run(capsys, "search", "-k", "5", "-n", str(2 * MAX_ELEMENT + 2))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(2 * MAX_ELEMENT) in err

    def test_bad_pivot_is_usage_error(self, capsys):
        code, _, err = run(capsys, "search", "-k", "10", "-n", "44", "--pivot", "9")
        assert code == 2

    def test_missing_argument_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "-k", "10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", OUT_EQUALS_STDOUT.values(), ids=OUT_EQUALS_STDOUT)
    def test_out_file(self, capsys, tmp_path, bases_file, argv):
        # --out writes exactly the bytes stdout would show
        argv = with_bases(argv, bases_file)
        out_path = tmp_path / "report.txt"
        _, shown, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text() == shown
        assert shown

    @pytest.mark.parametrize("argv", OUT_EQUALS_STDOUT.values(), ids=OUT_EQUALS_STDOUT)
    def test_json_out_file(self, capsys, tmp_path, bases_file, argv):
        out_path = tmp_path / "report.json"
        argv = (*with_bases(argv, bases_file), "--format", "json")
        _, shown, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text() == shown
        assert json.loads(shown)

    def test_unwritable_out_is_usage_error(self, capsys, blocked_dir):
        # the path is checked before the search starts, so no progress shows
        out_path = blocked_dir / "r.txt"
        code, out, err = run(capsys, "search", "-k", "5", "-n", "16", "--out", str(out_path))
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ") and str(out_path) in line

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

    @pytest.mark.parametrize("k, n, code", [(9, 40, 0), (10, 46, 1)])
    def test_json_equals_json_dumps(self, capsys, k, n, code):
        # written one basis at a time, laid out as json.dumps lays out the
        # whole document; k = 10, n = 46 holds no basis
        report = search_restricted(SearchTarget.create(k, n))
        doc = {"k": k, "n": n, "pivot": report.pivot, "count": report.count,
               "bases": [list(b) for b in report.bases]}
        got = run(capsys, "search", "-k", str(k), "-n", str(n), "--threads", "1", "--format", "json")
        assert got[:2] == (code, json.dumps(doc, indent=2) + "\n")

    def test_cache_dir_flag(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        code, out1, _ = run(capsys, "search", "-k", "9", "-n", "40", "--cache-dir", str(cache_dir))
        assert code == 0
        assert list(cache_dir.glob("prefixes-*.txt"))
        code, out2, err = run(capsys, "search", "-k", "9", "-n", "40", "--cache-dir", str(cache_dir))
        assert code == 0
        assert out2 == out1
        assert "cache hit" in err

    def test_enumerate_out_is_a_plain_cache_entry(self, capsys, tmp_path):
        # an `enumerate --out` file under the name the cache gives a plain
        # (length, min_range) entry answers the floored (5, 14) stream of
        # k = 12, n = 64, filtered by its floors; the (6, 20) stream is
        # extended from it
        uncached = run(capsys, "search", "-k", "12", "-n", "64", "--threads", "1")
        cache_dir = tmp_path / "cache"
        path = PrefixCache(cache_dir).path_for(5, 14)
        code, _, _ = run(capsys, "enumerate", "-k", "5", "--min-range", "14", "--threads", "1", "--out", str(path))
        assert code == 0
        code, out, err = run(capsys, "search", "-k", "12", "-n", "64", "--threads", "1", "--cache-dir", str(cache_dir))
        assert (code, out) == uncached[:2]
        assert "cache hit: 10 bases of length 5, range >= 14" in err

    @pytest.mark.parametrize("order", [(12, 14), (14, 12)])
    def test_descents_share_a_cache_dir(self, capsys, tmp_path, order):
        # both descents enumerate (6, 18) at their base levels, n = 64 and
        # n = 80, each with floors of its own, so neither may answer the other
        uncached = {k: run(capsys, "extremal", "-k", str(k), "--threads", "1")[:2] for k in order}
        cache_dir = tmp_path / "cache"
        for k in order:
            assert run(capsys, "extremal", "-k", str(k), "--threads", "1",
                       "--cache-dir", str(cache_dir))[:2] == uncached[k]
        assert len(list(cache_dir.glob("prefixes-k6-r18-f*.txt"))) == 2
        for k in order:
            code, out, err = run(capsys, "extremal", "-k", str(k), "--threads", "1",
                                 "--cache-dir", str(cache_dir))
            assert (code, out) == uncached[k] and "cache hit" in err

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

    def test_threads_default_to_the_usable_cpus(self, monkeypatch):
        # as under `taskset -c 1` on a host with more cores
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
        assert cli._build_parser().parse_args(["extremal", "-k", "5"]).threads == 1
        # the upper bound stays the number of cores
        assert cli._build_parser().parse_args(["extremal", "-k", "5", "--threads", "4"]).threads == 4
        # without an affinity call, all cores
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli._build_parser().parse_args(["extremal", "-k", "5"]).threads == 4

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

    def test_threads_do_not_change_output(self, capsys, two_cores):
        code, serial, _ = run(capsys, "extremal", "-k", "7", "--threads", "1")
        assert code == 0 and "n2*(7)" in serial
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
        # the stream's count, known only at its end, is its last line
        path = tmp_path / "stream.txt"
        code, _, _ = run(capsys, "enumerate", "-k", "5", "--min-range", "10", "--out", str(path))
        assert code == 0
        with open(path) as f:
            meta, bases = read_bases(f, str(path))
        assert path.read_text().splitlines()[-1] == f"# count={len(bases)}"
        assert bases == list(enumerate_admissible(EnumSpec(5, 10)))

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-k", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 5 and len(doc["bases"]) == 5

    def test_unwritable_out_is_usage_error(self, capsys, blocked_dir):
        # the error names the user's path, not the temporary file
        out_path = blocked_dir / "x.txt"
        code, _, err = run(capsys, "enumerate", "-k", "3", "--out", str(out_path))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"'{out_path}'" in err and ".tmp" not in err

    def test_usage_error_on_bad_length(self, capsys):
        code, _, err = run(capsys, "enumerate", "-k", "0")
        assert code == 2 and "error" in err

    def test_empty_json_document(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-k", "3", "--min-range", "99", "--format", "json")
        assert code == 0
        assert out == pinned({"k": 3, "min_range": 99, "version": __version__, "count": 0,
                              "bases": []})

    def test_min_range_above_twice_max_element_is_usage_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "-k", "3", "--min-range", str(2 * MAX_ELEMENT + 1))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(2 * MAX_ELEMENT) in err

    def test_min_range_at_twice_max_element_is_empty(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-k", "3", "--min-range", str(2 * MAX_ELEMENT))
        assert code == 0
        assert out.splitlines()[-1] == "# count=0"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_progress_on_stderr(self, capsys, monkeypatch, fmt):
        # 5 bases with a heartbeat every 2 bases: two progress lines
        monkeypatch.setattr(cli, "_heartbeat", functools.partial(cli._heartbeat, every=2))
        code, _, err = run(capsys, "enumerate", "-k", "3", "--format", fmt, "--threads", "1")
        assert code == 0
        assert err.splitlines() == ["... 2 bases", "... 4 bases"]


# one command of each kind that enumerates streams, with --threads 2
POOLED_COMMANDS = {
    "search": ("search", "-k", "12", "-n", "64"),
    "extremal": ("extremal", "-k", "12"),
    "enumerate": ("enumerate", "-k", "8", "--min-range", "20"),
}


@pytest.mark.parametrize("argv", POOLED_COMMANDS.values(), ids=POOLED_COMMANDS)
def test_one_pool_per_command(capsys, started_pools, two_cores, argv):
    code, serial, _ = run(capsys, *argv, "--threads", "1")
    assert code == 0 and serial
    assert started_pools == []
    _, threaded, _ = run(capsys, *argv, "--threads", "2")
    assert len(started_pools) == 1
    assert threaded == serial


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

    def test_help_states_the_default_limit(self, capsys):
        # the parser does not load the oracle, so the help line states the
        # number itself; it must stay the oracle's own default
        from addbasis.oracle import DEFAULT_LIMIT

        with pytest.raises(SystemExit):
            main(["oracle", "--help"])
        assert f"(default {DEFAULT_LIMIT})" in " ".join(capsys.readouterr().out.split())


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

    def test_failure_leaves_out_untouched(self, capsys, tmp_path):
        out_path = tmp_path / "out.txt"
        out_path.write_text("kept\n")
        bad = tmp_path / "bad.txt"
        bad.write_text("0 3 1\n")
        assert run(capsys, "verify", str(bad), "--out", str(out_path))[0] == 1
        assert run(capsys, "search", "-k", "5", "-n", "15", "--out", str(out_path))[0] == 2
        assert out_path.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "out.txt"]

    def test_closed_stdout_pipe_exits_quietly(self):
        # the reader goes away after one line of a ~1 MB stream, more
        # than the pipe holds, so the writer meets the closed pipe
        src = str(Path(addbasis.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "addbasis.cli", "enumerate", "-k", "9", "--threads", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.stdout.readline() == b"# k=9\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b""


def pinned(doc):
    return json.dumps(doc, indent=2) + "\n"


# literal stdout of small runs, text and JSON, so that a refactor that
# changes any output byte fails here
PINNED_STDOUT = {
    "search": (
        ("search", "-k", "5", "-n", "16"),
        "# k=5\n# n=16\n# pivot=2\n# count=1\n0 1 3 5 7 8\n",
        pinned({"k": 5, "n": 16, "pivot": 2, "count": 1, "bases": [[0, 1, 3, 5, 7, 8]]}),
    ),
    "extremal": (
        ("extremal", "-k", "5"),
        "n2*(5) = 16\n# k=5\n# n=16\n# pivot=2\n# count=1\n0 1 3 5 7 8\n"
        "MATCH: catalog n2*(5) = 16\n",
        pinned({
            "k": 5, "n2_star": 16, "pivot": 2, "count": 1, "bases": [[0, 1, 3, 5, 7, 8]],
            "catalog_n2_star": 16, "match": True,
        }),
    ),
    "enumerate": (
        ("enumerate", "-k", "4", "--min-range", "12"),
        "# k=4\n# min_range=12\n# version=0.1.0\n0 1 3 5 6\n# count=1\n",
        pinned({"k": 4, "min_range": 12, "version": "0.1.0", "count": 1, "bases": [[0, 1, 3, 5, 6]]}),
    ),
    "oracle": (
        ("oracle", "-k", "3"),
        "# k=3\n# n2=8\n# extremal_count=1\n0 1 3 4\n"
        "# n2_restricted=8\n# extremal_restricted_count=1\n0 1 3 4\n",
        pinned({
            "k": 3, "n2": 8, "extremal": [[0, 1, 3, 4]],
            "n2_restricted": 8, "extremal_restricted": [[0, 1, 3, 4]],
        }),
    ),
    "verify": (
        ("verify", "{bases}"),
        "0 1 3 4: range 8, admissible, restricted, symmetric\n"
        "0 1 2 5 7 11 15 19 21 22 24: range 46, admissible, not restricted, asymmetric\n",
        pinned({"bases": [
            {"elements": [0, 1, 3, 4], "range": 8,
             "admissible": True, "restricted": True, "symmetric": True},
            {"elements": [0, 1, 2, 5, 7, 11, 15, 19, 21, 22, 24], "range": 46,
             "admissible": True, "restricted": False, "symmetric": False},
        ]}),
    ),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, text, doc", PINNED_STDOUT.values(), ids=PINNED_STDOUT)
def test_pinned_stdout(capsys, bases_file, argv, text, doc, fmt):
    code, out, _ = run(capsys, *with_bases(argv, bases_file), "--format", fmt)
    assert code == 0
    assert out == (text if fmt == "text" else doc)


# literal stdout of `verify` on 0 and 1 basis: the streamed JSON must keep
# the layout json.dumps(..., indent=2) gives, the empty list included
PINNED_VERIFY = {
    "empty-text": ("", "text", ""),
    "empty-json": ("", "json", '{\n  "bases": []\n}\n'),
    "one-text": ("0 1 3 4\n", "text", "0 1 3 4: range 8, admissible, restricted, symmetric\n"),
    "single-element-json": (
        "0\n",
        "json",
        '{\n  "bases": [\n    {\n      "elements": [\n        0\n      ],\n      "range": 0,\n'
        '      "admissible": true,\n      "restricted": true,\n      "symmetric": true\n    }\n'
        '  ]\n}\n',
    ),
    "one-json": (
        "0 1 3 4\n",
        "json",
        '{\n  "bases": [\n    {\n      "elements": [\n        0,\n        1,\n        3,\n        4\n'
        '      ],\n      "range": 8,\n      "admissible": true,\n      "restricted": true,\n'
        '      "symmetric": true\n    }\n  ]\n}\n',
    ),
}


@pytest.mark.parametrize("content, fmt, expected", PINNED_VERIFY.values(), ids=PINNED_VERIFY)
def test_pinned_verify(capsys, tmp_path, content, fmt, expected):
    path = tmp_path / "bases.txt"
    path.write_text(content)
    code, out, _ = run(capsys, "verify", str(path), "--format", fmt)
    assert code == 0
    assert out == expected


class _Sink:
    """A stdout that keeps nothing it is given."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_verify_streams_its_output(tmp_path, monkeypatch):
    # verify --format json holds the list read_bases returns, not the
    # records or the document: its peak stays within 3x the reader's
    rng = random.Random(9)
    stream = [(0, *sorted(rng.sample(range(1, 400), 12))) for _ in range(20_000)]
    path = tmp_path / "bases.txt"
    with open(path, "w") as f:
        write_bases(f, {}, stream)

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def read():
        with open(path) as f:
            read_bases(f)

    monkeypatch.setattr("sys.stdout", _Sink())
    read_peak = peak(read)
    verify_peak = peak(lambda: main(["verify", str(path), "--format", "json"]))
    assert verify_peak < 3 * read_peak


@pytest.mark.parametrize("n", range(1, 43))
def test_json_template_matches_json_dumps(n):
    # a basis list sits two levels deep in `enumerate`, three in a
    # `verify` record, and the record itself two levels deep
    basis = tuple(range(0, 7 * n, 7))
    for depth in (2, 3):
        expected = json.dumps(list(basis), indent=2).replace("\n", "\n" + "  " * depth)
        assert _json_template(["%s"] * n, depth) % basis == expected
    record = {"elements": list(basis), "range": 12 * n,
              "admissible": True, "restricted": False, "symmetric": n % 2 == 0}
    fields = dict.fromkeys(record, "%s") | {"elements": ["%s"] * n}
    values = (*basis, *(json.dumps(record[key]) for key in list(record)[1:]))
    expected = json.dumps(record, indent=2).replace("\n", "\n    ")
    assert _json_template(fields, 2) % values == expected


def test_enumerate_json_streams_its_output(monkeypatch):
    # enumerate --format json holds the stream's tuples, as `count` comes
    # first, but neither lists of the bases nor the document string
    spec = EnumSpec(9, 24)

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    stream_peak = peak(lambda: list(enumerate_admissible(spec)))
    monkeypatch.setattr("sys.stdout", _Sink())
    argv = ["enumerate", "-k", "9", "--min-range", "24", "--format", "json", "--threads", "1"]
    json_peak = peak(lambda: main(argv))
    assert json_peak < 2 * stream_peak
