"""Every name a package module imports is read somewhere in that module.

No linter runs on this repository, so this test is the unused-import
check.  `__init__.py` is left out: its imports are the package's
re-exports.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "atomshuttle"


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_reads_every_name_it_imports(module):
    assert unread_imports((SRC / module).read_text()) == []


def test_unread_import_is_reported():
    source = "import json\nfrom math import hypot, sqrt\nprint(sqrt(json.dumps(1)))\n"
    assert unread_imports(source) == ["line 2: hypot"]
