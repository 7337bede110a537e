"""The digest script's failure paths, run in process."""

import pathlib
import runpy
import subprocess

SCRIPT = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
          / "check_workload_digests.py")


def _digest_main():
    return runpy.run_path(str(SCRIPT))["main"]


def test_digest_script_exits_two_when_quartic_is_not_importable(
        monkeypatch, capsys):
    main = _digest_main()
    monkeypatch.setattr(main.__globals__["importlib"].util, "find_spec",
                        lambda name: None)
    assert main() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot import quartic")
    assert captured.err.count("\n") == 1


def test_digest_script_shows_a_failing_command_s_stderr(monkeypatch, capsys):
    main = _digest_main()
    err = b"Traceback (most recent call last):\n" + b"  frame\n" * 9 + (
        b"ModuleNotFoundError: No module named 'quartic'\n")

    def failing(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 1, b"", err)

    monkeypatch.setattr(subprocess, "run", failing)
    assert main() == 1
    out = capsys.readouterr().out
    assert out.count("MISMATCH rc=1") == 3
    assert out.count("  ModuleNotFoundError: No module named 'quartic'") == 3
    # only the tail of each stderr
    assert "Traceback" not in out
