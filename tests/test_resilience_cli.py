"""CLI exit-code contract for resilience runs.

* exit 0 + a ``[resilience]`` warning summary on stderr when every region
  shipped (degraded compiles included);
* exit 3 when any region was unrecoverable (``--no-degrade``);
* exit 2 when a resilience flag is out of range, or an output path cannot
  be written, before anything compiles.

The summary is a view of the run's event stream, so replaying a ``--trace``
file through :func:`repro.obs.aggregate_trace` renders the same line.
"""

import pytest

from repro.cli import main
from repro.obs import aggregate_trace, render_resilience


def _summary_line(err):
    lines = [line for line in err.splitlines() if line.startswith("[resilience]")]
    assert len(lines) == 1, err
    return lines[0]


def _replayed_summary(trace):
    aggregator, skipped = aggregate_trace(str(trace))
    assert skipped == 0
    return "[resilience] %s" % render_resilience(aggregator)


def test_clean_run_exits_zero_without_summary(capsys):
    rc = main(["table1", "--scale", "test"])
    assert rc == 0
    assert "[resilience]" not in capsys.readouterr().err


def test_chaos_run_recovers_and_warns(capsys, tmp_path):
    trace = tmp_path / "chaos.jsonl"
    rc = main([
        "table1", "--scale", "test", "--chaos", "42", "--max-retries", "2",
        "--trace", str(trace),
    ])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    line = _summary_line(captured.err)
    assert "fault(s)" in line
    assert line == _replayed_summary(trace)


def test_no_degrade_chaos_run_exits_three(capsys, tmp_path):
    trace = tmp_path / "no-degrade.jsonl"
    rc = main([
        "table1", "--scale", "test", "--chaos", "42", "--no-degrade",
        "--trace", str(trace),
    ])
    captured = capsys.readouterr()
    assert rc == 3
    line = _summary_line(captured.err)
    assert "UNRECOVERABLE (" in line
    assert line == _replayed_summary(trace)


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


@pytest.mark.parametrize(
    "flag",
    [
        "--trace",
        "--profile-stacks",
        "--record",
        "--csv",
    ],
)
def test_unwritable_output_path_exits_two(flag, capsys, tmp_path):
    """Every output target is checked before the run: a file under a
    missing directory, or a directory under a regular file."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = blocker / "out" if flag in ("--record", "--csv") else tmp_path / "missing" / "out"
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--scale", "test", flag, str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "%s: cannot write to" % flag in err
    assert "Traceback" not in err
