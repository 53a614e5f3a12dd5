"""The README's library tour and command examples run against the current
API and CLI."""

import contextlib
import io
import pathlib
import re
import shlex

from qwalled.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "<README library tour>", "exec"), {})
    assert out.getvalue().count("\n") >= 7


def test_command_examples_run(capsys):
    examples = [shlex.split(line, comments=True)
                for block in re.findall(r"```sh\n(.*?)```", README.read_text(),
                                        re.S)
                for line in block.splitlines() if line.startswith("qwalled ")]
    assert len(examples) >= 9
    for argv in examples:
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().out
