"""Every CLI limit case of ``tests/data/cli_limits.txt``, one test per
entry, each run on src/ in a child process under the entry's own time
limit and address-space cap (see ``cli_limits.py``). An ``xfail`` entry is
a strict expected failure."""

import pytest

import cli_limits

ENTRIES = cli_limits.load()


@pytest.fixture(scope="module")
def wrongs():
    # every entry is replayed once, JOBS children at a time
    return dict(zip((entry.line for entry in ENTRIES), cli_limits.replay_all(ENTRIES)))


def param(entry):
    xfail = [pytest.mark.xfail(strict=True, reason=entry.xfail)] if entry.xfail else []
    return pytest.param(entry, id=entry.line, marks=xfail)


@pytest.mark.parametrize("entry", [param(entry) for entry in ENTRIES])
def test_cli_limit(entry, wrongs):
    assert wrongs[entry.line] is None, wrongs[entry.line]
