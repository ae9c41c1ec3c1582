"""Tests of the combined verification script: it passes, and its defaults
are the CLI's."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

from qgl21 import cli

ROOT = Path(__file__).resolve().parents[1]


def test_verify_all_passes_at_small_sizes():
    env = dict(os.environ, NO_COLOR="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verify_all.py"),
         "--nmax", "2", "--induced-nmax", "2", "--dim", "4"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "overall: all suites passed"


def test_verify_all_defaults_are_the_cli_defaults(monkeypatch, capsys):
    # the commands verify_all.py runs with no flags, recorded, not run
    commands = []
    with monkeypatch.context() as m:
        m.setattr(cli, "main", lambda argv: commands.append(argv) or 0)
        m.setattr(sys, "argv", ["verify_all.py"])
        assert runpy.run_path(str(ROOT / "scripts" / "verify_all.py"))[
            "main"]() == 0
    # every suite of the CLI is in the battery
    assert {argv[1] for argv in commands} == set(cli.VERIFY_SUITES)
    # each engine returns no results, so a report is the title alone, and
    # the title names the size the suite ran at
    for module, name in ((cli.ua, "check_straightening_identities"),
                         (cli.ind, "check_relations_on_module"),
                         (cli.rz, "check_relations_on_fock"),
                         (cli.rz, "dyson_check")):
        monkeypatch.setattr(module, name, lambda *args: [])
    sized = [argv for argv in commands if {"--nmax", "--dim"} & set(argv)]
    assert len(sized) == 7
    capsys.readouterr()
    for argv in sized:
        k = argv.index("--nmax" if "--nmax" in argv else "--dim")
        assert cli.main(argv) == 0
        given = capsys.readouterr().out
        assert cli.main(argv[:k] + argv[k + 2:]) == 0
        assert capsys.readouterr().out == given


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    source = tmp_path / "one.py"
    source.write_text('"""A docstring."""\n# a comment\n\nx = 1\ny = x  # 2\n')
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"),
         str(tmp_path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", str(source), "2", "total"]
