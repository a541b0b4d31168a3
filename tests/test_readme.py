"""The README's examples, run as written.

Every `$ shortpres ...` line of a fenced block is run through cli.main in
this process, with stdout and stderr written to one buffer, and its output
must be the lines that follow it in the block.  A `| grep PATTERN` tail is
applied here, line by line.  A block that elides output with `...` is not
run.  The Library snippet runs statement by statement, and what each
`print` writes on one line must be the comment on its line; a comment
ending in `...` gives a prefix of it.
"""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from shortpres import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
FENCED = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def _commands():
    """(command line, expected output) for each `$ shortpres` line of a
    block without elisions."""
    out = []
    for _, body in FENCED:
        lines = body.splitlines()
        if not lines or not lines[0].startswith("$ shortpres ") or any(
                line.strip() == "..." for line in lines):
            continue
        for line in lines:
            if line.startswith("$ "):
                out.append([line[2:], []])
            else:
                out[-1][1].append(line)
    return [pytest.param(command, "\n".join(expected).strip("\n") + "\n", id=command)
            for command, expected in out]


def _run(command):
    """The combined stdout and stderr of a README command line."""
    argv, *tail = command.split(" | ")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        cli.main(shlex.split(argv)[1:])
    lines = buf.getvalue().splitlines(keepends=True)
    for step in tail:
        grep, pattern = shlex.split(step)
        assert grep == "grep", command
        lines = [line for line in lines if re.search(pattern, line)]
    return "".join(lines)


@pytest.mark.parametrize("command,expected", _commands())
def test_command_prints_what_the_readme_shows(command, expected):
    assert _run(command) == expected


def test_library_snippet_prints_its_comments():
    (source,) = [body for lang, body in FENCED if lang == "python"]
    lines = source.splitlines()
    namespace, checked, wrong = {}, 0, []
    for stmt in ast.parse(source).body:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
        code, _, comment = lines[stmt.end_lineno - 1].partition("  # ")
        printed, comment = buf.getvalue().rstrip("\n"), comment.strip()
        if not code.startswith("print(") or "\n" in printed:
            continue
        checked += 1
        if not (printed.startswith(comment[:-3]) if comment.endswith("...")
                else printed == comment):
            wrong.append((code.strip(), comment, printed))
    assert wrong == []
    assert checked, "no one-line print found"
