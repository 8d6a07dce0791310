"""The README's command lines and script names follow the code."""

import dataclasses
import importlib
import inspect
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



# the libraries the README cites by their usual short names
_LIBRARIES = {"np": "numpy", "math": "math", "scipy": "scipy"}
_FIELD = object()  # a dataclass field, which the class need not hold


def _heads() -> dict:
    """What a dotted name may start with: the package, its modules, the
    classes they define, and the cited libraries."""
    modules = {
        path.stem: importlib.import_module(f"weylbound.{path.stem}")
        for path in (ROOT / "src" / "weylbound").glob("*.py")
        if path.stem != "__init__"
    }
    heads = {"weylbound": importlib.import_module("weylbound"), **modules}
    heads.update({short: importlib.import_module(lib) for short, lib in _LIBRARIES.items()})
    for module in modules.values():
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                heads[name] = obj
    return heads


def _attribute(obj, attr):
    """obj.attr, a package's submodule or a dataclass's field; None if
    there is none."""
    if hasattr(obj, attr):
        return getattr(obj, attr)
    if inspect.ismodule(obj) and hasattr(obj, "__path__"):
        try:
            return importlib.import_module(f"{obj.__name__}.{attr}")
        except ImportError:
            return None
    if dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}:
        return _FIELD
    return None


def test_readme_dotted_names_resolve():
    # every backquoted `module.name` or `Class.attr`, a call's arguments
    # dropped, names something that exists; file names are not names
    heads = _heads()
    codes = re.findall(r"`([A-Za-z_][\w.]*\.\w+)(?:\([^`]*\))?`", README)
    names = {c for c in codes if not re.search(r"\.(json|py|md|txt|csv)$", c)}
    assert {"oscint.panel_rule", "WeightFamily.stack"} <= names
    missing = []
    for name in sorted(names):
        head, *attrs = name.split(".")
        obj = heads.get(head)
        for attr in attrs:
            obj = None if obj is None else _attribute(obj, attr)
        if obj is None:
            missing.append(name)
    assert missing == []
