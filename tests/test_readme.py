"""Every `$ eudoxus ...` example in README.md prints what the README shows."""

import re
import shlex
from pathlib import Path

from eudoxus.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list:
    """[argv, expected stdout] for each example line of the README's sh blocks;
    the lines below an example, up to the next one, are its output."""
    examples = []
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        current = None
        for line in block.splitlines(keepends=True):
            if line.startswith("$ eudoxus "):
                current = [shlex.split(line)[2:], ""]
                examples.append(current)
            elif current is not None:
                current[1] += line
    return examples


def test_readme_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the ultra examples share one state file here
    examples = _examples()
    assert examples
    for argv, expected in examples:
        main(argv)
        assert capsys.readouterr().out == expected, argv
