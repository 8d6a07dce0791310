"""The README's command lines and script names follow the code."""

import re
import shlex
from pathlib import Path

from weylbound.cli import COMMANDS, make_parser

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _cli_block_commands():
    block = README.split("## CLI", 1)[1].split("```", 2)[1]
    text = block.replace("\\\n", " ")
    return [
        shlex.split(line.split("#", 1)[0])
        for line in text.splitlines()
        if line.startswith("weylbound ")
    ]


def test_readme_cli_lines_parse():
    commands = _cli_block_commands()
    parser = make_parser()
    for argv in commands:
        assert argv[0] == "weylbound"
        parser.parse_args(argv[1:])
    # every command has an example
    assert {argv[1] for argv in commands} == set(COMMANDS)


def test_readme_names_existing_scripts():
    named = set(re.findall(r"scripts/(\w+\.py)", README))
    assert named == {path.name for path in (ROOT / "scripts").glob("*.py")}
