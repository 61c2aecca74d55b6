"""Acceptance criteria, one test per criterion.

Each test exercises the stated command or function at full scale and
asserts the published values exactly.  The conftest prints a one-line
PASS/FAIL/NOT RUN summary per criterion after the run.  Criterion 5
carries the `long` marker and is deselected by default; it also needs a
prefix cache that takes ~100 CPU-hours to build and skips with an
explanation when it is absent.
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from addbasis.catalog import DEFAULT, PrefixCache
from addbasis.cli import main
from addbasis.core import basis_range, classify, mirror, sumset_bits
from addbasis.enumeration import EnumSpec, enumerate_admissible
from addbasis.mitm import SearchTarget, find_extremal_restricted, search_restricted, upper_bound_restricted
from addbasis.oracle import all_admissible

N2 = {1: 2, 2: 4, 3: 8, 4: 12, 5: 16, 6: 20, 7: 26, 8: 32, 9: 40, 10: 46}
N2_RESTRICTED = {**N2, 10: 44}
N2_STAR_11_TO_26 = [54, 64, 72, 80, 92, 104, 116, 128, 140, 152, 164, 180, 196, 212, 228, 244]


def cli_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_oracle_small_lengths(capsys, restricted_fixtures, unrestricted_fixtures):
    started = time.perf_counter()
    results = {}
    for k in range(1, 11):
        code, doc = cli_json(capsys, "oracle", "-k", str(k))
        assert code == 0
        results[k] = doc
    for k in range(1, 10):
        assert results[k]["n2"] == N2[k], f"n2({k})"
        assert results[k]["n2_restricted"] == N2[k], f"n2*({k})"
    assert {tuple(b) for b in results[6]["extremal_restricted"]} == {
        f.basis for f in restricted_fixtures[6]
    }
    doc10 = results[10]
    assert doc10["n2"] == 46
    assert {tuple(b) for b in doc10["extremal"]} == {
        f.basis for f in unrestricted_fixtures[10]
    }
    assert doc10["n2_restricted"] == 44
    eight = {tuple(b) for b in doc10["extremal_restricted"]}
    assert eight == {f.basis for f in restricted_fixtures[10]}
    asymmetric = {b for b in eight if mirror(b, b[-1]) != b}
    assert len(asymmetric) == 4
    assert all(mirror(b, b[-1]) in asymmetric for b in asymmetric)
    assert time.perf_counter() - started <= 300


def test_criterion_2_worked_examples(capsys, restricted_fixtures):
    started = time.perf_counter()

    code = main(["enumerate", "-k", "12", "--min-range", "58"])
    out = capsys.readouterr().out
    assert code == 0
    body = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert len(body) == 187
    assert "# count=187" in out

    code = main(["search", "-k", "25", "-n", "240"])
    out = capsys.readouterr().out
    assert code == 1
    assert "# count=0" in out

    code = main(["search", "-k", "25", "-n", "228"])
    out = capsys.readouterr().out
    assert code == 0
    found = [tuple(int(t) for t in line.split())
             for line in out.splitlines() if line and not line.startswith("#")]
    assert found == [f.basis for f in restricted_fixtures[25]]
    assert time.perf_counter() - started <= 600


def test_criterion_3_extremal_tables(restricted_fixtures):
    started = time.perf_counter()
    for k, expected_n in zip(range(11, 27), N2_STAR_11_TO_26):
        report = find_extremal_restricted(k)
        assert report.n == expected_n, f"n2*({k})"
        expected_bases = {f.basis for f in restricted_fixtures[k]}
        assert set(report.bases) == expected_bases, f"bases at k={k}"
        if k in (11, 21, 26):
            assert report.count == 2, f"k={k} has two extremal bases"
    assert time.perf_counter() - started <= 7200


def test_criterion_4_length_30(restricted_fixtures):
    report = find_extremal_restricted(30)
    assert report.n == 316
    assert set(report.bases) == {f.basis for f in restricted_fixtures[30]}
    assert report.count == 6
    assert sum(1 for b in report.bases if classify(b).symmetric) == 4
    groups = report.mirror_pairs()
    assert sum(1 for g in groups if len(g) == 1) == 4
    assert sum(1 for g in groups if len(g) == 2) == 1


@pytest.mark.long
def test_criterion_5_length_41_seeded(restricted_fixtures):
    cache_dir = os.environ.get("ADDBASIS_CACHE_DIR") or (
        Path(__file__).resolve().parents[1] / "cache"
    )
    cache_dir = Path(cache_dir)
    target = SearchTarget.create(41, 562)
    assert target.pivot == 20 and target.prefix_min_range == 139
    if not cache_dir.exists():
        pytest.skip(
            "no prefix cache: enumerating the 5514 length-20 prefixes of "
            "range >= 139 takes on the order of 100 CPU-hours; build it with "
            "'addbasis enumerate -k 20 --min-range 139 --out "
            f"{cache_dir}/prefixes-k20-r139-v0.1.0.txt' on a large machine"
        )
    prefixes = PrefixCache(cache_dir).load(20, 139)
    if prefixes is None:
        pytest.skip(f"prefix cache for (k=20, range>=139) not found under {cache_dir}")
    assert len(prefixes) == 5514
    report = search_restricted(target, streams=(prefixes, prefixes))
    assert report.n == 562
    assert set(report.bases) == {f.basis for f in restricted_fixtures[41]}


def test_criterion_6_property_suites(restricted_fixtures, unrestricted_fixtures):
    started = time.perf_counter()

    # mirror involution and coverage reflection on 10^4 random sets
    rng = random.Random(20260816)
    for _ in range(10_000):
        size = rng.randint(1, 8)
        elems = tuple(sorted(rng.sample(range(60), size)))
        b = elems[-1] + rng.randint(0, 10)
        image = mirror(elems, b)
        assert mirror(image, b) == elems
        width = 2 * b + 1
        cov = sumset_bits(elems)[1]
        assert int(f"{cov:0{width}b}"[::-1], 2) == sumset_bits(image)[1]

    # the published bases classify exactly as published, and the mirror of
    # a restricted basis is again restricted with the same range
    for k, fixtures in restricted_fixtures.items():
        published = {f.basis for f in fixtures}
        for fixture in fixtures:
            cls = classify(fixture.basis)
            assert cls.restricted and cls.range == fixture.range == 2 * fixture.basis[-1]
            assert cls.symmetric == fixture.symmetric
            image = mirror(fixture.basis, fixture.basis[-1])
            image_cls = classify(image)
            assert image_cls.restricted and image_cls.range == cls.range
            assert image in published  # tables are closed under mirroring
            assert (image == fixture.basis) == fixture.symmetric
    for fixture in unrestricted_fixtures[10]:
        cls = classify(fixture.basis)
        assert cls.admissible and not cls.restricted and cls.range == 46

    # pruning changes work, never results: every threshold at k = 7
    for threshold in range(basis_range((0, 1, 2, 5, 8, 11, 12, 13)) + 3):
        spec = EnumSpec(7, threshold)
        assert list(enumerate_admissible(spec, prune=True)) == list(
            enumerate_admissible(spec, prune=False)
        )

    # the pivot moves the split, not the answer
    for k in range(3, 10):
        default = find_extremal_restricted(k)
        for pivot in range(1, k - 1):
            report = find_extremal_restricted(k, pivot)
            assert report.n == default.n, f"k={k} pivot={pivot}"
            assert report.bases == default.bases, f"k={k} pivot={pivot}"

    # the pairing bound dominates every catalogued extremal value
    for k in range(3, 42):
        assert upper_bound_restricted(k) >= DEFAULT.known_restricted_range(k)

    # production enumerator vs naive reference, all thresholds at k = 6
    reference = list(all_admissible(6))
    for threshold in range(22):
        expected = [b for b in reference if basis_range(b) >= threshold]
        assert list(enumerate_admissible(EnumSpec(6, threshold))) == expected

    assert time.perf_counter() - started <= 120


def test_criterion_7_admissible_count():
    assert sum(1 for _ in enumerate_admissible(EnumSpec(12))) == 15_752_080
