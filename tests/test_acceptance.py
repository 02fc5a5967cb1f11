"""Acceptance checklist.

Each numbered claim the package makes must hold at its stated tolerance;
the checks live in :mod:`syncqubits.verify` so that the test suite and the
``verify`` command can never drift apart.  One test (and one printed
PASS/FAIL line) per criterion.
"""

import pytest

from syncqubits.verify import CHECKS


@pytest.fixture(scope="module")
def results(verify_results):
    return {r.number: r for r in verify_results}


@pytest.mark.parametrize(
    "number", range(1, 14), ids=[f"{i:02d}-{key}" for i, (key, _) in enumerate(CHECKS, start=1)]
)
def test_criterion(results, number):
    res = results[number]
    line = f"{'PASS' if res.passed else 'FAIL'} {res.number:2d} {res.key}: {res.detail}"
    print(line)
    assert res.passed, line


def test_all_thirteen_reported(results):
    assert sorted(results) == list(range(1, 14))
    keys = [key for key, _ in CHECKS]
    assert [results[i].key for i in range(1, 14)] == keys
    assert len(set(keys)) == 13
