"""Every name that the package exports has a reader outside the tests.

src/enhcone/__init__.py exports a name only if the library's own code
refers to it, the benchmark under bench/ names it (as an identifier or
as a string literal, the way bench/spans.py names what it traces), or
a demo uses it.  A name that only the tests call belongs in
tests/oracles.py or in the test that needs it.  Everything is read as
source with ast, so docstrings and comments count for nothing.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "enhcone"


def _exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


def _names(paths, attributes: bool = True, strings: bool = False) -> set[str]:
    """Identifiers read in the files at paths: bare names, attribute names
    when attributes is set, and string constants when strings is set."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif attributes and isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


# The library's modules import each other's names, so a use there is a
# bare name; an attribute would also match a method of the same name
# (MatrixGF.transpose is not combinatorics.transpose).
READERS = {
    "src/enhcone": _names(
        (p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), attributes=False
    ),
    "bench": _names((ROOT / "bench").glob("*.py"), strings=True),
    "demos": _names((ROOT / "demos").glob("*.py")),
}


def test_exports_are_found():
    # the parse above sees the package's imports, not an empty list
    assert {"classify_pair", "FiberQuery", "check_semismall"} <= set(_exported())


@pytest.mark.parametrize("name", _exported())
def test_exported_name_has_a_reader(name):
    readers = [where for where, names in READERS.items() if name in names]
    assert readers, f"{name} is exported, but only the tests use it"
