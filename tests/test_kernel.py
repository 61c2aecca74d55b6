"""The compiled walker against the Python reference, and how it is built.

`enumeration._iter_admissible` hands a walk to the kernel compiled from
`_walk.c` when it loaded and holds the stream, and runs `_python_walk`
otherwise.  Each differential test gives the same call to both: the
reference is reached by `_walk.reference()`, which sets `_walk.lib`, the
kernel handle, to None.  The kernel always makes the five cuts; the
`prune` parametrizations compare it with the reference both with its
cuts and without them (`conftest.unpruned`).
The build tests point the kernel cache at a temporary directory through
XDG_CACHE_HOME.
"""

import fnmatch
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import addbasis
from addbasis import _walk, enumeration
from addbasis.catalog import DEFAULT
from addbasis.core import basis_range
from addbasis.enumeration import EnumSpec, _iter_admissible, _split, enumerate_admissible
from addbasis.mitm import SearchTarget, upper_bound_restricted
from conftest import unpruned

ROOT = Path(addbasis.__file__).resolve().parents[2]


def reference(call):
    """call() with every walk in it run in `_python_walk`."""
    with _walk.reference():
        return call()


def assert_same_stream(spec, extend=None, prune=True):
    """The kernel's stream against the reference's, with its cuts or,
    with prune=False, without them."""
    walked = list(enumerate_admissible(spec, extend=extend))
    if prune:
        expected = reference(lambda: list(enumerate_admissible(spec, extend=extend)))
    else:
        expected = unpruned(spec, extend)
    assert walked == expected, (spec, extend, prune)
    return walked


def test_loads_where_a_compiler_is_on_the_path():
    # so that a tier-1 run with `cc` cannot test only the fallback
    assert _walk.kernel() is not None or shutil.which(_walk.CC[0]) is None


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("k", range(3, 27))
def test_descent_streams(kernel, k, prune):
    # both floored streams of every level from the pairing bound down to
    # n2*(k) up to k = 16, every pivot up to k = 13, and from k = 17 on
    # those of n2*(k) at the default pivot
    low = DEFAULT.known_restricted_range(k)
    for pivot in range(1, k - 1) if k <= 13 else [k // 2]:
        for n in range(upper_bound_restricted(k) if k <= 16 else low, low - 1, -2):
            target = SearchTarget.create(k, n, pivot)
            for length in {target.pivot, target.suffix_length}:
                assert_same_stream(target.stream(length), prune=prune)


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("k", range(1, 9))
def test_plain_streams_at_every_threshold(kernel, k, prune):
    top = DEFAULT.known_unrestricted_range(k)
    for threshold in range(top + 3):
        assert_same_stream(EnumSpec(k, threshold), prune=prune)


@pytest.mark.parametrize("prune", [True, False])
def test_multi_stem_extend(kernel, prune):
    # the shorter stream of the k = 14 descent at n2*(14) = 80
    spec = SearchTarget.create(14, 80).stream(7)
    whole = list(enumerate_admissible(spec))
    depth5 = list(enumerate_admissible(EnumSpec(5)))
    # some stem has a prefix below its floor, which the root check drops
    assert any(basis_range(stem[: d + 1]) < spec.floors[d - 1] for stem in depth5 for d in range(1, 6))
    stems = [
        *depth5,
        *reversed(depth5),
        # inadmissible, one past the element bound 28, and the root
        (0, 2), (0, 1, 2, 7), (0, 1, 3, 5, 6, 13, 14, 40), (0,),
        # full length, one and two short: the leaf check, the exact step
        whole[0], whole[-1][:-1], whole[len(whole) // 2][:-2],
    ]
    assert len(assert_same_stream(spec, extend=stems, prune=prune)) > 2 * len(whole)
    # the descent's filter: a lower level's bases as full-length stems
    lower = SearchTarget.create(14, 78).stream(7)
    assert assert_same_stream(spec, extend=list(enumerate_admissible(lower)), prune=prune) == whole


@pytest.mark.parametrize("k", [20, 22, 26, 28])
def test_split_plans(kernel, k):
    target = SearchTarget.create(k, DEFAULT.known_restricted_range(k))
    for spec in [target.stream(target.pivot), EnumSpec(12, 56), EnumSpec(10, 30)]:
        assert _split(spec, 2) == reference(lambda: _split(spec, 2))


@pytest.mark.parametrize("length", [14, 15, 21, 22, 26, 27, 30])
def test_each_width_boundary(kernel, length, restricted_fixtures):
    # the kernel's widths end at L = 14, 21, 26 and 30: a stream on each
    # side of each, three elements below a prefix of the k = 41 basis;
    # at min_range 0 the width must hold the first gaps by itself
    basis = restricted_fixtures[41][0].basis
    stem = [basis[: length - 2]]
    for spec in EnumSpec(length, basis_range(basis[: length + 1])), EnumSpec(length, 0):
        walked = list(enumerate_admissible(spec, extend=stem))
        assert _walk.nodes is not None
        assert walked == reference(lambda: list(enumerate_admissible(spec, extend=stem)))
        assert basis[: length + 1] in walked


def test_a_stream_past_the_widest_kernel_walks_in_python(kernel, monkeypatch, restricted_fixtures):
    # a node of length L has at most (L+1)(L+2)/2 distinct sums, so its
    # first gap takes (L+1)(L+2)/2 + 1 bits, and min_range T takes T + 1:
    # the widest kernel, 512 bits, holds (30, 511) but not length 31 or
    # min_range 512, which walk in Python
    widest = kernel.walk_new(30, 511, None, 0)
    assert widest is not None
    kernel.walk_free(widest)
    assert kernel.walk_new(31, 0, None, 0) is None
    assert kernel.walk_new(3, 512, None, 0) is None
    walks = []
    python_walk = enumeration._python_walk

    def spy(*args):
        walks.append(args[:2])
        return python_walk(*args)

    monkeypatch.setattr(enumeration, "_python_walk", spy)
    basis = restricted_fixtures[31][0].basis
    spec = EnumSpec(31, restricted_fixtures[31][0].range)
    assert basis in assert_same_stream(spec, extend=[basis[:30]])
    assert assert_same_stream(EnumSpec(3, 512)) == []
    assert (31, spec.min_range) in walks and (3, 512) in walks


def test_a_length_or_range_past_a_c_int_walks_in_python(kernel, monkeypatch):
    # ctypes would hand the kernel 2**32 + 5 as 5
    monkeypatch.setattr(enumeration, "_python_walk", lambda *args: iter([args[:2]]))
    assert list(_iter_admissible(2**32 + 5, 0, [(0,)])) == [(2**32 + 5, 0)]
    assert list(_iter_admissible(5, 2**32 + 5, [(0,)])) == [(5, 2**32 + 5)]


def test_a_stem_past_the_bound_extends_to_nothing(kernel):
    # an element above L(L+1)/2 = 10 at length 4: the first gap of the
    # other elements' sums is at most 10, below it, so the Python walk
    # gives such a stem no basis, and the kernel skips it
    stems = [(0, 1), (0, 1, 2, 11), (0, 11), (0, 1, 3)]
    walked = list(_iter_admissible(4, 6, stems))
    assert walked == reference(lambda: list(_iter_admissible(4, 6, stems)))
    assert walked == [b for stem in ((0, 1), (0, 1, 3)) for b in enumerate_admissible(EnumSpec(4, 6), extend=[stem])]
    assert reference(lambda: list(_iter_admissible(4, 6, [(0, 11), (0, 1, 2, 3, 11)]))) == []


def test_a_closed_walk_frees_its_state(kernel, monkeypatch):
    made, freed = [], []
    new, free = kernel.walk_new, kernel.walk_free

    def walk_new(*args):
        made.append(new(*args))
        return made[-1]

    def walk_free(state):
        freed.append(state)
        free(state)

    monkeypatch.setattr(kernel, "walk_new", walk_new)
    monkeypatch.setattr(kernel, "walk_free", walk_free)
    spec = EnumSpec(10, 30)
    walk = enumerate_admissible(spec)
    assert next(walk) == reference(lambda: next(enumerate_admissible(spec)))
    assert len(made) == 1 and freed == []
    walk.close()
    assert freed == made


class TestBuild:
    @pytest.mark.parametrize("cc, told", [("false", "false exited 1"), ("addbasis-no-such-cc", None)])
    def test_a_failing_compiler_gives_the_python_walk(self, monkeypatch, tmp_path, capsys, cc, told):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_walk, "CC", (cc,))
        monkeypatch.setattr(_walk, "lib", False)
        spec = EnumSpec(6, 12)
        assert list(enumerate_admissible(spec)) == reference(lambda: list(enumerate_admissible(spec)))
        assert _walk.lib is None
        cache = tmp_path / "addbasis"
        assert not cache.exists() or list(cache.iterdir()) == []
        # a compiler that fails is told in one line that names the reason
        # and the cache file; a missing one is the quiet fallback
        err = capsys.readouterr().err
        if told is None:
            assert err == ""
        else:
            (line,) = err.splitlines()
            assert str(cache) in line and told in line

    def test_builds_into_the_cache_once(self, monkeypatch, tmp_path):
        if shutil.which(_walk.CC[0]) is None:
            pytest.skip("no C compiler on PATH")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_walk, "lib", False)
        assert _walk.kernel() is not None
        built = list((tmp_path / "addbasis").iterdir())
        assert [p.suffix for p in built] == [".so"]
        # a second process finds it there, and starts no process to load it
        code = (
            "import sys; from addbasis.enumeration import EnumSpec, enumerate_admissible; "
            "n = sum(1 for _ in enumerate_admissible(EnumSpec(8, 20))); "
            "from addbasis import _walk; "
            "print(n, _walk.lib is not None, 'subprocess' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), XDG_CACHE_HOME=str(tmp_path)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["7029", "True", "False"]
        assert list((tmp_path / "addbasis").iterdir()) == built


def test_the_package_ships_the_kernel_source():
    # an installed package builds its kernel from the source it ships
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = config["tool"]["setuptools"]["package-data"]["addbasis"]
    source = Path(_walk.SOURCE).relative_to(Path(addbasis.__file__).parent).as_posix()
    assert any(fnmatch.fnmatch(source, glob) for glob in globs)
