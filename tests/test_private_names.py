"""No package module imports or reads a private (``_``-prefixed) name of
another package module: a rule two modules share is public in its home
module.  Importing the file-boundary module ``_files`` itself is allowed;
its own names are public."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "taccompress"
MODULES = sorted(PACKAGE.glob("*.py"))
SUBMODULES = {path.stem for path in MODULES} - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str) -> list[str]:
    """The ``module.name`` of each private name of a package module that
    ``source`` imports or reads, in order of appearance."""
    tree = ast.parse(source)
    aliases = {}  # local name -> the package submodule it is bound to
    uses = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module or ""
        elif (node.module or "").split(".")[0] == "taccompress":
            module = node.module.partition(".")[2]
        else:
            continue
        for alias in node.names:
            if not module and alias.name in SUBMODULES:
                aliases[alias.asname or alias.name] = alias.name
            elif _private(alias.name):
                uses.append(f"{module or 'taccompress'}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            uses.append(f"{aliases[node.value.id]}.{node.attr}")
    return uses


def test_the_guard_names_private_uses():
    source = ("import os\nfrom . import __version__, _files, bench, codec as native\n"
              "from .simulate import _seed, generate\nfrom taccompress.layout import _X\n"
              "bench._helper(native._decode, _files.write, os._exit, bench.__doc__)\n")
    assert private_uses(source) == ["simulate._seed", "layout._X",
                                    "bench._helper", "codec._decode"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_no_private_name_of_another(path):
    assert private_uses(path.read_text(encoding="utf-8")) == []
