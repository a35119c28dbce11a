"""The README's CLI examples run as written, with the documented exit codes,
and its variant table gives the gate counts the code gives."""
import re
import shlex
from pathlib import Path

import pytest

from atomshuttle.architectures import Variant, gate_counts
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


def variant_table() -> dict:
    """{(variant, one-way case or None): (n1, n2, readouts)} of the README's
    variant table."""
    text = (ROOT / "README.md").read_text()
    lines = text.split("\n| variant ", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    rows = {}
    for line in lines:
        name, *_, n1, n2, nr = (cell.strip() for cell in line.strip("|").split("|"))
        m = re.fullmatch(r"`([a-z-]+)`(?: \(case ([12])\))?", name)
        key = (Variant(m[1]), m[2] and int(m[2]))
        assert key not in rows
        rows[key] = (int(n1), int(n2), int(nr))
    return rows


def test_readme_variant_table_matches_gate_counts():
    rows = variant_table()
    assert sorted((v.value, case or 0) for v, case in rows) == sorted(
        [(v.value, 0) for v in Variant if v is not Variant.ONE_WAY_BELT]
        + [(Variant.ONE_WAY_BELT.value, 1), (Variant.ONE_WAY_BELT.value, 2)])
    for (variant, case), counts in rows.items():
        assert counts == gate_counts(variant, case).as_tuple(), (variant, case)
