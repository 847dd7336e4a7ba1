"""CLI exit-code contract for resilience runs.

* exit 0 + a ``[resilience]`` warning summary on stderr when every region
  shipped (degraded compiles included);
* exit 3 when any region was unrecoverable (``--no-degrade``);
* exit 2 when a resilience flag is out of range, before anything compiles.
"""

import pytest

from repro.cli import main


def test_clean_run_exits_zero_without_summary(capsys):
    rc = main(["table1", "--scale", "test"])
    assert rc == 0
    assert "[resilience]" not in capsys.readouterr().err


def test_chaos_run_recovers_and_warns(capsys):
    rc = main(["table1", "--scale", "test", "--chaos", "42", "--max-retries", "2"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "[resilience]" in captured.err
    assert "fault(s)" in captured.err


def test_no_degrade_chaos_run_exits_three(capsys):
    rc = main(["table1", "--scale", "test", "--chaos", "42", "--no-degrade"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "UNRECOVERABLE" in captured.err


def test_unknown_experiment_still_exits_two():
    assert main(["not-an-experiment"]) == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--deadline", "-1"],
        ["--deadline", "0"],
        ["--chaos", "42", "--max-retries", "-3"],
    ],
)
def test_bad_resilience_value_exits_two(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--scale", "test"] + flags)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be" in err
    assert "Traceback" not in err
