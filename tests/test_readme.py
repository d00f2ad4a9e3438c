"""The README's examples run as written: its Python block and its command lines."""

import re
import shlex
from pathlib import Path

from geodesy.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks():
    """(language, body) of every fenced code block in the README."""
    return re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    blocks = fenced_blocks()

    python = [body for lang, body in blocks if lang == "python"]
    assert python, "README has no python block"
    for body in python:
        exec(compile(body, str(README), "exec"), {"__name__": "readme"})

    commands = [
        line
        for _, body in blocks
        for line in body.splitlines()
        if line.startswith("geodesy ")
    ]
    assert commands, "README has no geodesy command lines"
    for line in commands:
        code = main(shlex.split(line)[1:])
        assert code == 0, f"{line!r} exited {code}: {capsys.readouterr().err}"
