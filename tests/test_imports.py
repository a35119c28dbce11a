"""What the package imports.

Every name a package module imports is read somewhere in that module.
No linter runs on this repository, so this test is the unused-import
check.  `__init__.py` is left out: its imports are the package's
re-exports.

Each command loads only what it runs: `compile` and `schedule` import
neither numpy nor the oracle or the cost model, nor `dataclasses` or
`inspect`; `cost`, `sweep` and `compare` add only the cost model; `verify`
adds the oracle and, with it, numpy and `inspect`.  No module declares a
value type with `dataclasses`.  Every exported name still resolves, most
of them lazily.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import atomshuttle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "atomshuttle"


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


def imported_modules(source: str) -> set[str]:
    tree = ast.parse(source)
    return ({alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
            | {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module})


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_imports_dataclasses(module):
    assert "dataclasses" not in imported_modules((SRC / module).read_text())


def test_unread_import_is_reported():
    source = "import json\nfrom math import hypot, sqrt\nprint(sqrt(json.dumps(1)))\n"
    assert unread_imports(source) == ["line 2: hypot"]


# A fresh interpreter: the test process itself has numpy loaded already.
_RUN_COMMAND = """\
import sys
from atomshuttle import cli
code = cli.main(sys.argv[1:])
assert code == 0, code
print(" ".join(m for m in ("numpy", "atomshuttle.oracle", "atomshuttle.cost",
                           "dataclasses", "inspect") if m in sys.modules))
"""

# each README command line -> the modules it loads of those above, and
# the artifacts it writes
README_COMMANDS = {
    "compile": (["--arch", "configs/two-way-belt.arch", "--program", "configs/sample.program"],
                [], ["compile.jsonl"]),
    "schedule": (["--arch", "configs/shuttle-and-route.arch",
                  "--program", "configs/sample.program"],
                 [], ["events.jsonl", "makespan.txt", "trajectories.csv"]),
    "verify": (["--arch", "configs/throw-and-measure.arch", "--pair", "0,0,7,7"],
               ["numpy", "atomshuttle.oracle", "inspect"], ["verify.jsonl"]),
    "cost": (["--cost", "configs/default.cost"], ["atomshuttle.cost"], ["cost.csv"]),
    "sweep": (["--variant", "throw-catch-throw", "--axis", "p1"], ["atomshuttle.cost"],
              ["sweep.csv", "sweep_contour.csv"]),
    "compare": (["--cost", "configs/default.cost"], ["atomshuttle.cost"], ["compare.csv"]),
}


@pytest.mark.parametrize("command", list(README_COMMANDS))
def test_each_readme_command_loads_only_what_it_runs(tmp_path, command):
    args, loaded, artifacts = README_COMMANDS[command]
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", _RUN_COMMAND, command, *args,
                           "--out", str(tmp_path / "out")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == loaded
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == artifacts


@pytest.mark.parametrize("name", atomshuttle.__all__)
def test_every_exported_name_resolves_and_is_listed(name):
    assert getattr(atomshuttle, name) is not None
    assert name in dir(atomshuttle)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'verify'"):
        atomshuttle.verify


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from atomshuttle import *", namespace)
    assert set(atomshuttle.__all__) <= set(namespace)
