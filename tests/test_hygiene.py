"""No module imports a name it never reads.

An `ast` scan over the package, the tests and the demos: every name an
import binds must be read somewhere in its module, or be listed in the
module's `__all__`.  `from __future__` imports and imports marked
`# noqa: F401` (or a bare `# noqa`) are exempt.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/intentmpc", "tests", "demos")
NOQA = re.compile(r"#\s*noqa(?::[^#]*\bF401\b|(?!:))")


def unused_imports(source: str) -> list[str]:
    """`line: name` for each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if NOQA.search(lines[alias.lineno - 1]):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in read]


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", ["1: os"]),
        ("import os.path\nos.sep\n", []),
        ("from a import (\n    b,\n    c as d,\n)\nb\n", ["3: d"]),
        ("from __future__ import annotations\n", []),
        ("import a  # noqa: F401  (side effect)\n", []),
        ("import a  # noqa\n", []),
        ("import a  # noqa: E402\n", ["1: a"]),
        ("from a import b\n__all__ = ['b']\n", []),
    ],
    ids=["unused", "dotted", "multiline", "future", "noqa-F401", "noqa-bare", "noqa-other", "all"],
)
def test_scan_rules(source, expected):
    assert unused_imports(source) == expected


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): unused
        for folder in SCANNED
        for path in sorted((ROOT / folder).glob("*.py"))
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
