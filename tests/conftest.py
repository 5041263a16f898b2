import pytest

from sumways import cli, homogeneous


def clear_memos():
    """Empty the per-shape memos of the like-dice engines: the ``poly`` and
    ``add-die`` expansions and the parked λ walks."""
    homogeneous._die_power.cache_clear()
    homogeneous._last_add_die_column.cache_clear()
    homogeneous._parked.cache_clear()


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""

    def run(*args: str):
        code = cli.main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run
