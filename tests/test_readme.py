"""The README's CLI examples run as written, with the documented exit codes."""
import shlex
from pathlib import Path

import pytest

from atomshuttle.cli import main

ROOT = Path(__file__).resolve().parent.parent


def cli_examples() -> list[str]:
    """Every `atomshuttle ...` line of the README's `sh` blocks."""
    blocks = [b.split("```", 1)[0] for b in (ROOT / "README.md").read_text().split("```sh\n")[1:]]
    return [line for b in blocks for line in b.splitlines() if line.startswith("atomshuttle ")]


def test_readme_has_cli_examples():
    assert len(cli_examples()) >= 6


@pytest.mark.parametrize("line", cli_examples(), ids=lambda line: line.split()[1])
def test_readme_cli_example_runs(tmp_path, monkeypatch, line):
    monkeypatch.chdir(ROOT)
    argv = shlex.split(line, comments=True)[1:]
    argv[argv.index("--out") + 1] = str(tmp_path)
    assert main(argv) == (4 if "# exits 4" in line else 0)
