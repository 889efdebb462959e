"""The README's Quickstart and command-line examples print what the README shows."""

import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from alphacrit import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# "$ [echo LINE | ]alphacrit ARGS[ | tail -1]", then the output lines shown under it
EXAMPLE = re.compile(r"^\$ (?:echo (\S+) \| )?alphacrit (.*?)( \| tail -1)?\n((?:[^$`\n].*\n)*)", re.M)
EXAMPLES = EXAMPLE.findall(README)


def test_quickstart_prints_its_comments():
    (source,) = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
    comments = [line.split("#", 1)[1].strip() for line in source.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(source, {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments) == 6
    for line, comment in zip(printed, comments):
        # the printed line is the comment's first word or words: "6 6" of "6 6: one odd cycle ..."
        assert re.match(re.escape(line) + r"(\W|$)", comment), (line, comment)


def test_readme_shows_every_cli_command():
    assert [args.split()[0] for _, args, _, _ in EXAMPLES] == ["analyze", "enumerate", "verify", "witness"]


@pytest.mark.parametrize("stdin, args, tail, shown", EXAMPLES, ids=[e[1].split()[0] for e in EXAMPLES])
def test_cli_example_prints_what_the_readme_shows(monkeypatch, capsys, stdin, args, tail, shown):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(f"{stdin}\n".encode())))
    assert cli.main(shlex.split(args)) == 0
    out = capsys.readouterr().out.splitlines()
    assert (out[-1:] if tail else out) == shown.splitlines()
