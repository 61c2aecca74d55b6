"""Shared fixtures and the acceptance summary.

Acceptance tests are named test_criterion_<N>_*; their outcomes are
collected and printed as one line per criterion at the end of the run.
Criteria marked `long` are deselected by default (see pyproject.toml) and
show up as NOT RUN.
"""

import multiprocessing
import re

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile("ci")

CRITERIA = {
    1: "oracle reproduces n2/n2* and all extremal bases for k = 1..10",
    2: "worked examples: 187 prefixes at k=12, the unique k=25 basis at n=228",
    3: "extremal restricted search matches the published tables for k = 11..26",
    4: "k=30: n2* = 316 with all six bases",
    5: "k=41 seeded search rediscovers the published basis (long, needs cache)",
    6: "property suites: mirror identities, theorems, pruning, pivots, bounds",
    7: "admissible count at k=12 is 15752080",
}

_outcomes: dict[int, str] = {}


def pytest_runtest_logreport(report):
    match = re.search(r"::test_criterion_(\d+)", report.nodeid)
    if not match:
        return
    num = int(match.group(1))
    if report.when == "call":
        _outcomes[num] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _outcomes[num] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    labels = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    for num in sorted(CRITERIA):
        outcome = _outcomes.get(num)
        label = labels.get(outcome, "NOT RUN") if outcome else "NOT RUN"
        terminalreporter.write_line(f"[{label:>7}] criterion {num}: {CRITERIA[num]}")


@pytest.fixture(scope="session")
def restricted_fixtures():
    from addbasis.catalog import extremal_restricted_fixtures

    return extremal_restricted_fixtures()


@pytest.fixture(scope="session")
def unrestricted_fixtures():
    from addbasis.catalog import unrestricted_extremal_fixtures

    return unrestricted_extremal_fixtures()


@pytest.fixture
def started_pools(monkeypatch):
    """The process pools started while the test runs, in order: a
    counting wrapper on multiprocessing.Pool, the one name the program
    starts its pools through."""
    started = []
    real = multiprocessing.Pool

    def counting_pool(*args, **kwargs):
        pool = real(*args, **kwargs)
        started.append(pool)
        return pool

    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    return started
